#include "server/frame_server.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

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
    std::vector<std::shared_ptr<RenderOutcome>> answering;
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
        pumpLocked(launches, rejects, answering);
    }
    for (const Launch &l : launches)
        launch(l);
    dropFrames(std::move(dropped));
    deliverAll(std::move(rejects));
    deliverHeld(answering);
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
                        std::vector<Deliverable> &rejects,
                        std::vector<std::shared_ptr<RenderOutcome>> &answering)
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
        // Coalescing: a render of the same view makes the same bits, so
        // the frame is answered by one instead of taking a slot: a render
        // on a slot (it joins), else the scene's last render, after that
        // left its slot. Probes stay out both ways: a probe's outcome
        // must be its own render's, and a probe on its slot takes no
        // joiners.
        auto sameView = [&](const RenderOutcome &r) {
            return r.qos == pf.qos && r.rung == rung &&
                   r.camera.identical(pf.camera);
        };
        std::shared_ptr<RenderOutcome> render;
        if (!probe) {
            for (const auto &entry : running_) {
                const InFlightFrame &f = entry.second;
                if (!f.probe && f.scene == pf.scene && sameView(*f.render)) {
                    render = f.render;
                    break;
                }
            }
            const std::shared_ptr<RenderOutcome> &last = c.state->last_render;
            if (!render && last && sameView(*last))
                render = last;
        }
        if (render) {
            cm.coalesced->inc();
            render->held.push_back(
                Waiter{pf.ticket, pf.client, pf.submitted_at, c.callback});
            // A render on its slot is delivering: its completion answers
            // its joiners. Else this caller delivers from it.
            if (!render->delivering) {
                render->delivering = true;
                answering.push_back(std::move(render));
            }
            continue;
        }
        in_flight_[int(pf.qos)]++;
        cm.admitted->inc();
        c.state->series.notePeak(++scene_in_flight_[pf.scene]);
        // Keyed by the view as submitted, before any rung scaling.
        auto outcome = std::make_shared<RenderOutcome>(RenderOutcome{
            pf.ticket, pf.qos, rung, pf.camera.width(), pf.camera.height(),
            engine::Frame{}, pf.camera, &c.state->series});
        running_.emplace(pf.ticket,
                         InFlightFrame{now, pf.scene, probe,
                                       /*stuck_flagged=*/false, outcome});
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
        launches.push_back(Launch{std::move(pf), renderer, std::move(outcome)});
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
    const auto submitted_at = l.frame.submitted_at;
    req.on_complete = [this, client, submitted_at, done = l.render](
                          engine::Frame &&frame, std::exception_ptr err) {
        done->frame = std::move(frame);
        onFrameDone(client, submitted_at, done, err);
    };
    engine_.submitAsync(std::move(req));
}

void
FrameServer::onFrameDone(uint64_t client,
                         std::chrono::steady_clock::time_point submitted_at,
                         const std::shared_ptr<RenderOutcome> &done,
                         std::exception_ptr err)
{
    const auto now = std::chrono::steady_clock::now();
    const double latency = secondsBetween(submitted_at, now);
    const uint64_t ticket = done->ticket;
    const QosClass qos = done->qos;
    std::vector<Launch> launches;
    std::vector<Deliverable> rejects;
    std::vector<std::shared_ptr<RenderOutcome>> answering;
    // Every frame this render answers: its leader, then the frames that
    // joined it, in join order.
    std::vector<Waiter> answers;
    std::shared_ptr<RenderOutcome> replaced; // released outside m_
    {
        std::lock_guard<std::mutex> lock(m_);
        in_flight_[int(qos)]--;
        Client &c = *clients_.at(client);
        answers.push_back(Waiter{ticket, client, submitted_at, c.callback});
        auto sit = scene_in_flight_.find(c.scene->id);
        if (sit != scene_in_flight_.end() && --sit->second == 0)
            scene_in_flight_.erase(sit);
        bool was_probe = false;
        auto rit = running_.find(ticket);
        if (rit != running_.end()) {
            was_probe = rit->second.probe;
            running_.erase(rit);
        }
        // The frames that joined the render on its slot are answered
        // with its leader.
        answers.insert(answers.end(),
                       std::make_move_iterator(done->held.begin()),
                       std::make_move_iterator(done->held.end()));
        done->held.clear();
        // Published before the pump, so a repeat of the view that queued
        // while it rendered is answered from it; a failed render leaves
        // the scene's previous one in place.
        if (!err)
            replaced = std::exchange(c.state->last_render, done);
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
                done->scene->breaker_opens->inc();
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
        pumpLocked(launches, rejects, answering);
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
    const engine::Frame &out = done->frame;
    ClassMetrics &cm = class_metrics_[int(qos)];
    if (!err)
        for (int k = 0; k < engine::kStages; ++k)
            if (const auto &sec = out.stage_s[size_t(k)])
                cm.stage_duration[size_t(k)]->record(*sec);
    // Each answered frame is its own outcome: counts, latency, SLO and,
    // when it is slow or violates its class's objective, one
    // flight-recorder record carrying the render's stage times. A slow
    // render is dumped once, at its first slow answer; an SLO-only
    // record stays out of the log (the breach warns for them all).
    bool dumped = false;
    for (const Waiter &a : answers) {
        const double ms = secondsBetween(a.submitted_at, now) * 1e3;
        const bool violates = countAnswer(*done, err != nullptr, ms);
        const bool slow = cfg_.slow_frame_ms > 0.0 &&
                          (err || ms > cfg_.slow_frame_ms);
        if (!slow && !violates)
            continue;
        SlowFrameRecord rec{a.ticket, ticket, out.id, qos, ms,
                            err != nullptr, false, false, out.stage_s};
        if (slow && !dumped) {
            warn(slowDumpText(rec, answers.size() - 1));
            dumped = true;
        }
        stats_.recordSlowFrame(std::move(rec));
    }
    slo_.evaluate();

    for (const Waiter &a : answers)
        answer(a, *done, secondsBetween(a.submitted_at, now), err);
    // A published render was delivering from the start: the frames it
    // answered meanwhile follow its own answers.
    if (!err)
        answering.push_back(done);
    deliverHeld(answering);
}

bool
FrameServer::countAnswer(const RenderOutcome &r, bool failed, double ms)
{
    ClassMetrics &cm = class_metrics_[int(r.qos)];
    if (failed) {
        cm.failed->inc();
        r.scene->failed->inc();
        return slo_.recordError(r.qos);
    }
    cm.served_rung[size_t(r.rung)]->inc();
    cm.latency->record(ms * 1e-3);
    r.scene->served_rung[size_t(r.rung)]->inc();
    return slo_.recordServed(r.qos, ms);
}

void
FrameServer::deliverHeld(
    const std::vector<std::shared_ptr<RenderOutcome>> &renders)
{
    for (const std::shared_ptr<RenderOutcome> &r : renders)
        for (;;) {
            std::vector<Waiter> held;
            {
                std::lock_guard<std::mutex> lock(m_);
                held.swap(r->held);
                if (held.empty()) {
                    r->delivering = false;
                    break;
                }
            }
            // Each is counted and recorded as a frame that joined the
            // render is. The render was dumped, if at all, with its own
            // answers.
            const auto now = std::chrono::steady_clock::now();
            for (const Waiter &w : held) {
                const double ms = secondsBetween(w.submitted_at, now) * 1e3;
                const bool violates = countAnswer(*r, false, ms);
                if (violates ||
                    (cfg_.slow_frame_ms > 0.0 && ms > cfg_.slow_frame_ms))
                    stats_.recordSlowFrame(SlowFrameRecord{
                        w.ticket, r->ticket, r->frame.id, r->qos, ms, false,
                        false, false, r->frame.stage_s});
                answer(w, *r, ms * 1e-3, nullptr);
            }
        }
}

void
FrameServer::answer(const Waiter &a, const RenderOutcome &r,
                    double latency_s, std::exception_ptr err)
{
    FrameResult result;
    result.client = a.client;
    result.ticket = a.ticket;
    result.render_ticket = r.ticket;
    result.qos = r.qos;
    // Every consumer owns its image: a wire session encodes it against
    // its own delta reference.
    result.frame = r.frame;
    result.error = err;
    result.latency_s = latency_s;
    result.rung = r.rung;
    result.full_width = r.full_w;
    result.full_height = r.full_h;
    deliverResult(std::move(result), a.cb);
}

void
FrameServer::deliverResult(FrameResult &&result, const ResultCallback &cb)
{
    // A thread already running a result callback queues the results
    // the callback's own calls make it deliver (breaker fast-fails,
    // backlog drops, answers from a finished render, a close's sheds)
    // and delivers them in order after it returns: no nesting.
    struct Queued
    {
        FrameServer *server;
        FrameResult result;
        ResultCallback cb;
    };
    thread_local std::deque<Queued> queued;
    thread_local bool delivering = false;
    if (delivering) {
        queued.push_back(Queued{this, std::move(result), cb});
        return;
    }
    delivering = true;
    deliverNow(std::move(result), cb);
    while (!queued.empty()) {
        Queued q = std::move(queued.front());
        queued.pop_front();
        q.server->deliverNow(std::move(q.result), q.cb);
    }
    delivering = false;
}

void
FrameServer::deliverNow(FrameResult &&result, const ResultCallback &cb)
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
    std::unique_lock<std::mutex> lock(m_);
    auto it = clients_.find(client);
    ASDR_ASSERT(it != clients_.end(), "retiring a frame of a freed client");
    ASDR_ASSERT(it->second->outstanding > 0, "outstanding underflow");
    if (--it->second->outstanding == 0 && it->second->closing) {
        // A closing session's last result frees it. Its close callback
        // runs and dies outside m_, before the frame stops counting.
        {
            const CloseCallback closed = std::move(it->second->on_closed);
            clients_.erase(it);
            lock.unlock();
            if (closed)
                closed();
        }
        lock.lock();
    }
    outstanding_total_--;
    idle_cv_.notify_all();
}

void
FrameServer::dropFrames(std::vector<PendingFrame> &&dropped)
{
    const bool had_drops = !dropped.empty();
    const auto now = std::chrono::steady_clock::now();
    for (PendingFrame &pf : dropped) {
        // A shed frame waited from submit until it was shed.
        const double latency_s = secondsBetween(pf.submitted_at, now);
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
            stats_.recordSlowFrame(SlowFrameRecord{pf.ticket, 0, 0, pf.qos,
                                                   latency_s * 1e3, false,
                                                   false, true, {}});
        FrameResult result;
        result.client = pf.client;
        result.ticket = pf.ticket;
        result.qos = pf.qos;
        result.dropped = true;
        result.latency_s = latency_s;
        deliverResult(std::move(result), cb);
    }
    if (had_drops)
        slo_.evaluate();
}

void
FrameServer::closeSession(uint64_t client, CloseCallback done)
{
    std::vector<PendingFrame> dropped;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = clients_.find(client);
        if (it != clients_.end() && !it->second->closing) {
            Client &c = *it->second;
            c.closing = true;
            if (c.outstanding == 0) {
                clients_.erase(it);
            } else {
                c.on_closed = std::exchange(done, nullptr);
                sched_.dropClient(client, dropped);
            }
        }
    }
    // When nothing else is outstanding, the last shed frame's delivery
    // runs the stored callback on this thread.
    dropFrames(std::move(dropped));
    if (done)
        done();
}

void
FrameServer::closeSession(uint64_t client)
{
    std::mutex m;
    std::condition_variable cv;
    bool closed = false;
    closeSession(client, [&] {
        std::lock_guard<std::mutex> lock(m);
        closed = true;
        cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return closed; });
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
    std::vector<std::shared_ptr<RenderOutcome>> answering;
    uint64_t stuck_now = 0, new_events = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        const auto now = std::chrono::steady_clock::now();
        pumpLocked(launches, rejects, answering);
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
    deliverHeld(answering);
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
