#include "server/frame_server.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace asdr::server {

namespace {

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The warn() dump of one slow frame: its facts, then its render's
 *  stage times. `others` counts the other tickets the same render
 *  answered, whose records the render's one dump stands for. */
std::string
slowDumpText(const SlowFrameRecord &rec, size_t others)
{
    std::ostringstream os;
    os << "slow frame: ticket " << rec.ticket << " ("
       << qosClassName(rec.qos) << ") " << rec.latency_ms << " ms";
    if (rec.render_ticket != 0 && rec.render_ticket != rec.ticket)
        os << " [joined ticket " << rec.render_ticket << "'s render]";
    if (others)
        os << " [render answered " << others << " other ticket"
           << (others == 1 ? "" : "s") << "]";
    if (rec.failed)
        os << " [failed]";
    if (rec.expired)
        os << " [deadline expired]";
    for (int k = 0; k < engine::kStages; ++k)
        if (const auto &sec = rec.stage_s[size_t(k)]) {
            char line[96];
            std::snprintf(line, sizeof line, "\n  %-22s %9.3f ms",
                          engine::kStageName[k], *sec * 1e3);
            os << line;
        }
    return os.str();
}

} // namespace

FrameServer::FrameServer(const SceneRegistry &registry,
                         const ServerConfig &cfg)
    : registry_(registry), cfg_(cfg),
      stuck_in_flight_(metrics_.gauge("asdr_stuck_in_flight")),
      stuck_events_(metrics_.counter("asdr_stuck_events_total")),
      sched_(cfg.qos), stats_(metrics_), slo_(cfg.slo, metrics_),
      engine_(engine::EngineConfig{cfg.threads_per_shard,
                                   cfg.frames_in_flight_per_shard})
{
    ASDR_ASSERT(cfg.shards == 1, "the server runs one engine: shards = 1");
    for (int c = 0; c < kQosClasses; ++c)
        class_metrics_[c] = ClassMetrics(metrics_, QosClass(c));
    stats_.setSlowFrameKeep(cfg.flight_recorder_frames);
    if (cfg.ladder.enabled)
        brownout_ = std::make_unique<BrownoutController>(cfg.ladder);
    for (int c = 0; c < kQosClasses; ++c)
        deadlines_enabled_ =
            deadlines_enabled_ || cfg.qos.cls[c].deadline_ms > 0.0;
    // The watchdog only exists for time-driven work: expiring queued
    // frames with nobody pumping, the stuck scan, and SLO window
    // advancement (a breach must clear even when traffic stops).
    // Breakers alone don't need it (their transitions happen at
    // admission time).
    if (cfg.watchdog_period_ms > 0 &&
        (deadlines_enabled_ || cfg.stuck_after_ms > 0.0 ||
         cfg.slo.enabled()))
        watchdog_ = std::thread([this] { watchdogRun(); });
}

FrameServer::~FrameServer()
{
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(wd_m_);
            wd_stop_ = true;
        }
        wd_cv_.notify_all();
        watchdog_.join();
    }
    // Stop admitting, shed every pending frame, then wait for the
    // in-flight tail: engine callbacks reference this object, so no
    // state may die before the last outcome is delivered.
    std::vector<PendingFrame> dropped;
    {
        std::lock_guard<std::mutex> lock(m_);
        for (auto &entry : clients_) {
            entry.second->closing = true;
            sched_.dropClient(entry.first, dropped);
        }
    }
    dropFrames(std::move(dropped));
    waitIdle();
}

uint64_t
FrameServer::openSession(const std::string &scene, QosClass qos,
                         const SessionOptions &, ResultCallback callback)
{
    const SceneEntry *entry = registry_.find(scene);
    if (!entry)
        return 0;
    auto client = std::make_unique<Client>();
    client->scene = entry;
    client->qos = qos;
    client->callback = std::move(callback);

    std::lock_guard<std::mutex> lock(m_);
    std::unique_ptr<SceneState> &state = scenes_[entry->name];
    if (!state)
        state = std::make_unique<SceneState>(metrics_, *entry);
    client->state = state.get();
    client->id = next_client_++;
    const uint64_t id = client->id;
    clients_.emplace(id, std::move(client));
    return id;
}

uint64_t
FrameServer::submitFrame(uint64_t client_id, const nerf::Camera &camera)
{
    std::vector<PendingFrame> dropped;
    std::vector<Launch> launches;
    std::vector<Deliverable> rejects;
    uint64_t ticket = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = clients_.find(client_id);
        if (it == clients_.end() || it->second->closing)
            return 0;
        Client &c = *it->second;
        ticket = next_ticket_++;
        class_metrics_[int(c.qos)].submitted->inc();
        c.state->series.submitted->inc();
        c.outstanding++;
        outstanding_total_++;

        PendingFrame pf;
        pf.ticket = ticket;
        pf.client = client_id;
        pf.scene = c.scene->id;
        pf.qos = c.qos;
        pf.camera = camera;
        pf.submitted_at = std::chrono::steady_clock::now();
        sched_.push(std::move(pf), dropped);
        pumpLocked(launches, rejects);
    }
    for (const Launch &l : launches)
        launch(l);
    dropFrames(std::move(dropped));
    deliverAll(std::move(rejects));
    return ticket;
}

FrameServer::Deliverable
FrameServer::expireLocked(PendingFrame &&pf)
{
    Client &c = *clients_.at(pf.client);
    class_metrics_[int(pf.qos)].expired->inc();
    c.state->series.expired->inc();
    Deliverable d;
    d.result.client = pf.client;
    d.result.ticket = pf.ticket;
    d.result.qos = pf.qos;
    d.result.expired = true;
    d.result.latency_s = secondsBetween(
        pf.submitted_at, std::chrono::steady_clock::now());
    d.cb = c.callback;
    return d;
}

FrameServer::Deliverable
FrameServer::breakerRejectLocked(PendingFrame &&pf, SceneState &scene)
{
    Client &c = *clients_.at(pf.client);
    class_metrics_[int(pf.qos)].failed->inc();
    scene.series.failed->inc();
    scene.series.breaker_fast_fails->inc();
    Deliverable d;
    d.result.client = pf.client;
    d.result.ticket = pf.ticket;
    d.result.qos = pf.qos;
    d.result.error = std::make_exception_ptr(std::runtime_error(
        "scene quarantined: circuit breaker open (" + scene.series.name +
        ")"));
    d.result.latency_s = secondsBetween(
        pf.submitted_at, std::chrono::steady_clock::now());
    d.cb = c.callback;
    return d;
}

void
FrameServer::setBreaker(SceneState &scene, BreakerState to)
{
    scene.breaker.state = to;
    scene.series.breaker_state->set(double(int(to)));
}

void
FrameServer::deliverAll(std::vector<Deliverable> &&rejects)
{
    const bool had_rejects = !rejects.empty();
    for (Deliverable &d : rejects) {
        // Every admission-time reject (a deadline expiry or a breaker
        // fast-fail) is an SLO error outcome, and exactly the kind of
        // frame an operator asks "why" about: with a slow budget set,
        // each is recorded and dumped; without, one that violates an
        // availability objective is recorded silently.
        const bool violates = slo_.recordError(d.result.qos);
        if (cfg_.slow_frame_ms > 0.0 || violates) {
            SlowFrameRecord rec{d.result.ticket, 0, 0, d.result.qos,
                                d.result.latency_s * 1e3,
                                d.result.error != nullptr,
                                d.result.expired, false, {}};
            if (cfg_.slow_frame_ms > 0.0)
                warn(slowDumpText(rec, 0));
            stats_.recordSlowFrame(std::move(rec));
        }
        deliverResult(std::move(d.result), d.cb);
    }
    rejects.clear();
    if (had_rejects)
        slo_.evaluate();
}

void
FrameServer::pumpLocked(std::vector<Launch> &launches,
                        std::vector<Deliverable> &rejects)
{
    const auto now = std::chrono::steady_clock::now();
    // Fail-fast before admission: a pose that waited past its class
    // deadline is stale -- rendering it would waste a slot to deliver
    // an image the viewer has already moved beyond.
    if (deadlines_enabled_) {
        std::vector<PendingFrame> overdue;
        sched_.expireOverdue(now, overdue);
        for (PendingFrame &pf : overdue)
            rejects.push_back(expireLocked(std::move(pf)));
    }
    PendingFrame pf;
    while (int(running_.size()) < cfg_.frames_in_flight_per_shard &&
           sched_.pop(in_flight_, scene_in_flight_, pf)) {
        // The client is alive: its pending frame counts toward
        // `outstanding`, and sessions are only freed at zero.
        Client &c = *clients_.at(pf.client);
        bool probe = false;
        if (cfg_.breaker.failure_threshold > 0) {
            Breaker &b = c.state->breaker;
            if (b.state == BreakerState::Open &&
                secondsBetween(b.opened_at, now) >= cfg_.breaker.open_s) {
                setBreaker(*c.state, BreakerState::HalfOpen);
                b.probes_out = 0;
            }
            if (b.state == BreakerState::Open ||
                (b.state == BreakerState::HalfOpen &&
                 b.probes_out >= cfg_.breaker.half_open_probes)) {
                rejects.push_back(
                    breakerRejectLocked(std::move(pf), *c.state));
                continue; // no slot consumed; keep pumping
            }
            if (b.state == BreakerState::HalfOpen) {
                probe = true;
                b.probes_out++;
            }
        }
        // Quality-ladder rung: the scheduler may have floored the frame
        // (degraded_backlog stretch); the brownout controller raises it
        // further under pressure. The effective rung is whichever is
        // worse -- a floored frame never recovers fidelity here.
        QualityRung rung = QualityRung(pf.rung);
        if (brownout_ && cfg_.ladder.applies(pf.qos)) {
            const double deadline_ms = cfg_.qos.cls[int(pf.qos)].deadline_ms;
            const double waited_frac =
                deadline_ms > 0.0
                    ? secondsBetween(pf.submitted_at, now) * 1e3 /
                          deadline_ms
                    : 0.0;
            rung = std::max(rung,
                            brownout_->decide(pf.qos,
                                              sched_.pendingOf(pf.qos),
                                              waited_frac));
        }
        // Injection: force the admission to the ladder floor, driving
        // the full degraded render + wire + upscale path on demand.
        if (fault::fire(fault::kServerAdmitDegrade))
            rung = QualityRung(kQualityRungs - 1);
        pf.rung = uint8_t(rung);
        // Queue-wait span: submit -> this admission decision. The
        // engine frame id doesn't exist yet, so the span is
        // ticket-correlated only.
        telemetry::recordSpan(telemetry::kSpanQueueWait, 0, pf.ticket,
                              telemetry::toUs(pf.submitted_at),
                              telemetry::toUs(now));
        ClassMetrics &cm = class_metrics_[int(pf.qos)];
        cm.queue_wait->record(secondsBetween(pf.submitted_at, now));
        // Coalescing: the same view already on a slot renders the same
        // bits, so the frame waits on that render instead of taking a
        // slot of its own. Probes stay out both ways: a probe's outcome
        // must be its own render's.
        InFlightFrame *render = nullptr;
        for (auto &entry : running_) {
            InFlightFrame &f = entry.second;
            if (!probe && !f.probe && f.scene == pf.scene &&
                f.qos == pf.qos && f.rung == rung &&
                f.camera.identical(pf.camera)) {
                render = &f;
                break;
            }
        }
        if (render) {
            cm.coalesced->inc();
            render->waiters.push_back(
                Waiter{pf.ticket, pf.client, pf.submitted_at, c.callback});
            continue;
        }
        in_flight_[int(pf.qos)]++;
        cm.admitted->inc();
        c.state->series.notePeak(++scene_in_flight_[pf.scene]);
        running_.emplace(pf.ticket,
                         InFlightFrame{now, pf.qos, pf.scene, rung,
                                       pf.camera, probe,
                                       /*stuck_flagged=*/false, {}});
        // Degraded frames render through the scene's renderer for
        // their rung's sample budget, which shares the full-rung
        // renderer's occupancy grid.
        const core::AsdrRenderer *renderer = &c.state->renderer;
        if (rung != QualityRung::Full) {
            const core::RenderConfig dcfg =
                applyRung(c.scene->config, rung, cfg_.ladder);
            std::unique_ptr<core::AsdrRenderer> &d =
                c.state->degraded[dcfg.samples_per_ray];
            if (!d)
                d = std::make_unique<core::AsdrRenderer>(c.state->renderer,
                                                         dcfg);
            renderer = d.get();
        }
        launches.push_back(Launch{std::move(pf), renderer});
    }
}

void
FrameServer::launch(const Launch &l)
{
    telemetry::ScopedSpan admit_span(telemetry::kSpanAdmit, 0,
                                     l.frame.ticket);
    const QualityRung rung = QualityRung(l.frame.rung);
    const int full_w = l.frame.camera.width();
    const int full_h = l.frame.camera.height();
    // Resolution is camera-borne: a reduced-resolution rung renders
    // the same viewpoint through a scaled camera (the client upscales
    // back to full_w x full_h).
    int render_w = full_w, render_h = full_h;
    rungResolution(rung, cfg_.ladder, full_w, full_h, render_w, render_h);
    const bool scaled = render_w != full_w || render_h != full_h;
    engine::FrameRequest req(scaled ? l.frame.camera.scaledTo(render_w,
                                                              render_h)
                                    : l.frame.camera);
    req.renderer = l.renderer;
    // The key the scheduler admitted the frame by orders its stage
    // tasks too.
    req.priority = l.frame.key();
    req.ticket = l.frame.ticket; // correlates engine stage spans
    const uint64_t client = l.frame.client;
    const uint64_t ticket = l.frame.ticket;
    const QosClass qos = l.frame.qos;
    const auto submitted_at = l.frame.submitted_at;
    req.on_complete = [this, client, ticket, qos, rung, full_w, full_h,
                       submitted_at](engine::Frame &&frame,
                                     std::exception_ptr err) {
        onFrameDone(client, ticket, qos, rung, full_w, full_h, submitted_at,
                    std::move(frame), err);
    };
    engine_.submitAsync(std::move(req));
}

void
FrameServer::onFrameDone(uint64_t client, uint64_t ticket, QosClass qos,
                         QualityRung rung, int full_w, int full_h,
                         std::chrono::steady_clock::time_point submitted_at,
                         engine::Frame &&frame, std::exception_ptr err)
{
    const auto now = std::chrono::steady_clock::now();
    const double latency = secondsBetween(submitted_at, now);
    std::vector<Launch> launches;
    std::vector<Deliverable> rejects;
    // Every frame this render answers: its leader, then the frames that
    // joined it, in join order.
    std::vector<Waiter> answers;
    SceneMetrics *scene = nullptr;
    {
        std::lock_guard<std::mutex> lock(m_);
        in_flight_[int(qos)]--;
        Client &c = *clients_.at(client);
        scene = &c.state->series;
        answers.push_back(Waiter{ticket, client, submitted_at, c.callback});
        auto sit = scene_in_flight_.find(c.scene->id);
        if (sit != scene_in_flight_.end() && --sit->second == 0)
            scene_in_flight_.erase(sit);
        bool was_probe = false;
        auto rit = running_.find(ticket);
        if (rit != running_.end()) {
            was_probe = rit->second.probe;
            std::vector<Waiter> &w = rit->second.waiters;
            answers.insert(answers.end(), std::make_move_iterator(w.begin()),
                           std::make_move_iterator(w.end()));
            running_.erase(rit);
        }
        if (cfg_.breaker.failure_threshold > 0) {
            Breaker &b = c.state->breaker;
            // Any failure while half-open (probe or straggler), or the
            // threshold-th consecutive one while closed, (re)opens the
            // breaker and restarts the quarantine clock. One render is
            // one outcome, however many frames it answers.
            if (err && (b.state == BreakerState::HalfOpen ||
                        (b.state == BreakerState::Closed &&
                         ++b.consecutive_failures >=
                             cfg_.breaker.failure_threshold))) {
                setBreaker(*c.state, BreakerState::Open);
                b.opened_at = now;
                b.consecutive_failures = 0;
                scene->breaker_opens->inc();
            } else if (!err) {
                b.consecutive_failures = 0;
                if (b.state == BreakerState::HalfOpen && was_probe) {
                    setBreaker(*c.state, BreakerState::Closed);
                    b.probes_out = 0;
                }
            }
        }
        // Feed the brownout controller before pumping: the admissions
        // below see a p95 that includes this frame.
        if (!err && brownout_)
            brownout_->observeLatency(qos, latency * 1e3);
        pumpLocked(launches, rejects);
    }
    // Refill the freed server slot before delivery. The engine keeps
    // this frame's own slot until its deliveries return, so the next
    // frame renders while this one's consumers run only when the
    // engine has a spare slot; otherwise it starts right after.
    for (const Launch &l : launches)
        launch(l);
    deliverAll(std::move(rejects));

    // The render's stage times count once, under its class: the frames
    // that joined it share the class and add nothing.
    ClassMetrics &cm = class_metrics_[int(qos)];
    if (!err)
        for (int k = 0; k < engine::kStages; ++k)
            if (const auto &sec = frame.stage_s[size_t(k)])
                cm.stage_duration[size_t(k)]->record(*sec);
    // Each answered frame is its own outcome: counts, latency, SLO and,
    // when it is slow or violates its class's objective, one
    // flight-recorder record carrying the render's stage times. A slow
    // render is dumped once, at its first slow answer; an SLO-only
    // record stays out of the log (the breach warns for them all).
    bool dumped = false;
    for (const Waiter &a : answers) {
        const double ms = secondsBetween(a.submitted_at, now) * 1e3;
        bool violates;
        if (err) {
            cm.failed->inc();
            scene->failed->inc();
            violates = slo_.recordError(qos);
        } else {
            cm.served_rung[size_t(rung)]->inc();
            cm.latency->record(ms * 1e-3);
            scene->served_rung[size_t(rung)]->inc();
            violates = slo_.recordServed(qos, ms);
        }
        const bool slow = cfg_.slow_frame_ms > 0.0 &&
                          (err || ms > cfg_.slow_frame_ms);
        if (!slow && !violates)
            continue;
        SlowFrameRecord rec{a.ticket, ticket, frame.id, qos, ms,
                            err != nullptr, false, false, frame.stage_s};
        if (slow && !dumped) {
            warn(slowDumpText(rec, answers.size() - 1));
            dumped = true;
        }
        stats_.recordSlowFrame(std::move(rec));
    }
    slo_.evaluate();

    for (size_t i = 0; i < answers.size(); ++i) {
        const Waiter &a = answers[i];
        const double ms = secondsBetween(a.submitted_at, now) * 1e3;
        FrameResult result;
        result.client = a.client;
        result.ticket = a.ticket;
        result.render_ticket = ticket;
        result.qos = qos;
        // Every consumer owns its image (a wire session encodes it
        // against its own delta reference); the last one takes the
        // render's.
        if (i + 1 < answers.size())
            result.frame = frame;
        else
            result.frame = std::move(frame);
        result.error = err;
        result.latency_s = ms * 1e-3;
        result.rung = rung;
        result.full_width = full_w;
        result.full_height = full_h;
        deliverResult(std::move(result), a.cb);
    }
}

void
FrameServer::deliverResult(FrameResult &&result, const ResultCallback &cb)
{
    // Injection: a slow consumer between engine and client (the
    // delivery-path analog of a stalled socket reader).
    fault::fire(fault::kServerDeliverStall);
    const uint64_t client = result.client;
    if (cb) {
        cb(std::move(result));
    } else {
        std::lock_guard<std::mutex> lock(done_m_);
        done_.push_back(std::move(result));
    }
    // Retire AFTER the consumer ran: a closed-loop callback that
    // submits the next frame does so before the count can reach zero,
    // so waitIdle() cannot report idle mid-loop.
    std::lock_guard<std::mutex> lock(m_);
    retireLocked(client);
}

void
FrameServer::retireLocked(uint64_t client)
{
    auto it = clients_.find(client);
    ASDR_ASSERT(it != clients_.end(), "retiring a frame of a freed client");
    ASDR_ASSERT(it->second->outstanding > 0, "outstanding underflow");
    it->second->outstanding--;
    outstanding_total_--;
    idle_cv_.notify_all();
}

void
FrameServer::dropFrames(std::vector<PendingFrame> &&dropped)
{
    const bool had_drops = !dropped.empty();
    for (PendingFrame &pf : dropped) {
        class_metrics_[int(pf.qos)].dropped->inc();
        const bool violates = slo_.recordError(pf.qos);
        ResultCallback cb;
        {
            std::lock_guard<std::mutex> lock(m_);
            const Client &c = *clients_.at(pf.client);
            c.state->series.dropped->inc();
            cb = c.callback;
        }
        // Shed frames land in the flight recorder too (silently -- a
        // shed burst should not flood the log), so the ring answers
        // "what happened to ticket N" for every terminal outcome the
        // operator might chase.
        if (cfg_.slow_frame_ms > 0.0 || violates)
            stats_.recordSlowFrame(SlowFrameRecord{
                pf.ticket, 0, 0, pf.qos, 0.0, false, false, true, {}});
        FrameResult result;
        result.client = pf.client;
        result.ticket = pf.ticket;
        result.qos = pf.qos;
        result.dropped = true;
        deliverResult(std::move(result), cb);
    }
    if (had_drops)
        slo_.evaluate();
}

void
FrameServer::closeSession(uint64_t client)
{
    std::vector<PendingFrame> dropped;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = clients_.find(client);
        if (it == clients_.end() || it->second->closing)
            return;
        it->second->closing = true;
        sched_.dropClient(client, dropped);
    }
    dropFrames(std::move(dropped));
    std::unique_lock<std::mutex> lock(m_);
    auto it = clients_.find(client);
    if (it == clients_.end())
        return;
    // Wait on the stable Client object, not the map iterator: a
    // concurrent openSession may rehash the table mid-wait.
    Client *c = it->second.get();
    idle_cv_.wait(lock, [&] { return c->outstanding == 0; });
    clients_.erase(client);
}

bool
FrameServer::poll(FrameResult &out)
{
    std::lock_guard<std::mutex> lock(done_m_);
    if (done_.empty())
        return false;
    out = std::move(done_.front());
    done_.pop_front();
    return true;
}

size_t
FrameServer::drainResults(std::vector<FrameResult> &out)
{
    std::lock_guard<std::mutex> lock(done_m_);
    const size_t n = done_.size();
    out.reserve(out.size() + n);
    for (auto &r : done_)
        out.push_back(std::move(r));
    done_.clear();
    return n;
}

void
FrameServer::waitIdle()
{
    std::unique_lock<std::mutex> lock(m_);
    idle_cv_.wait(lock, [&] { return outstanding_total_ == 0; });
}

void
FrameServer::watchdogRun()
{
    std::unique_lock<std::mutex> lock(wd_m_);
    while (!wd_stop_) {
        wd_cv_.wait_for(
            lock, std::chrono::milliseconds(cfg_.watchdog_period_ms));
        if (wd_stop_)
            break;
        lock.unlock();
        watchdogTick();
        lock.lock();
    }
}

void
FrameServer::watchdogTick()
{
    std::vector<Launch> launches;
    std::vector<Deliverable> rejects;
    uint64_t stuck_now = 0, new_events = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        const auto now = std::chrono::steady_clock::now();
        pumpLocked(launches, rejects);
        if (cfg_.stuck_after_ms > 0.0)
            for (auto &entry : running_) {
                InFlightFrame &f = entry.second;
                if (secondsBetween(f.launched_at, now) * 1e3 >
                    cfg_.stuck_after_ms) {
                    stuck_now++;
                    if (!f.stuck_flagged) {
                        f.stuck_flagged = true;
                        new_events++;
                    }
                }
            }
    }
    if (cfg_.stuck_after_ms > 0.0) {
        stuck_in_flight_.set(double(stuck_now));
        stuck_events_.add(new_events);
    }
    for (const Launch &l : launches)
        launch(l);
    deliverAll(std::move(rejects));
    // Time alone moves the burn windows: evaluate even when no frame
    // finished this tick, so breaches clear after traffic stops.
    slo_.evaluate();
}

ServerStatsSnapshot
FrameServer::stats() const
{
    ServerStatsSnapshot snap;
    stats_.fill(snap);
    for (int c = 0; c < kQosClasses; ++c) {
        snap.cls[c] = class_metrics_[c].read();
        slo_.read(QosClass(c), snap.cls[c]);
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        snap.scenes.reserve(scenes_.size());
        for (const auto &entry : scenes_)
            snap.scenes.push_back(entry.second->series.read());
    }
    snap.stuck_in_flight = uint64_t(stuck_in_flight_.value());
    snap.stuck_events = stuck_events_.value();
    return snap;
}

std::string
FrameServer::metricsText() const
{
    return metrics_.renderText();
}

FrameServer::BreakerState
FrameServer::breakerState(const std::string &scene) const
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = scenes_.find(scene);
    return it == scenes_.end() ? BreakerState::Closed
                               : it->second->breaker.state;
}

int
FrameServer::sceneInFlight(const std::string &scene) const
{
    const SceneEntry *entry = registry_.find(scene);
    if (!entry)
        return 0;
    std::lock_guard<std::mutex> lock(m_);
    auto it = scene_in_flight_.find(entry->id);
    return it == scene_in_flight_.end() ? 0 : it->second;
}

} // namespace asdr::server
