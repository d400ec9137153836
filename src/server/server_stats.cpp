#include "server/server_stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace asdr::server {

namespace {

/** Process-wide metrics-registry series mirrored by every collector
 *  (the Prometheus view; per-ServerStats state stays in the members).
 *  References resolve once and stay valid forever. */
struct ClassSeries
{
    metrics::Counter *submitted;
    metrics::Counter *admitted;
    metrics::Counter *served;
    metrics::Counter *dropped;
    metrics::Counter *failed;
    metrics::Counter *expired;
    metrics::Histogram *latency;
    metrics::Histogram *queue_wait;
};

const ClassSeries &
classSeries(QosClass c)
{
    static const std::array<ClassSeries, kQosClasses> k = [] {
        std::array<ClassSeries, kQosClasses> a{};
        for (int i = 0; i < kQosClasses; ++i) {
            const std::string l =
                std::string("qos=\"") + qosClassName(QosClass(i)) + "\"";
            a[size_t(i)] = ClassSeries{
                &metrics::counter("asdr_frames_submitted_total", l),
                &metrics::counter("asdr_frames_admitted_total", l),
                &metrics::counter("asdr_frames_served_total", l),
                &metrics::counter("asdr_frames_dropped_total", l),
                &metrics::counter("asdr_frames_failed_total", l),
                &metrics::counter("asdr_frames_expired_total", l),
                &metrics::histogram("asdr_frame_latency_seconds", l),
                &metrics::histogram("asdr_frame_queue_wait_seconds", l),
            };
        }
        return a;
    }();
    return k[size_t(int(c))];
}

/** Minimal JSON string escaping: scene names are arbitrary registry
 *  strings, so quotes/backslashes/control bytes must not leak into
 *  the dump verbatim. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(char(c));
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(char(c));
        }
    }
    return out;
}

} // namespace

void
ServerStats::recordSubmitted(QosClass c)
{
    classSeries(c).submitted->inc();
    std::lock_guard<std::mutex> lock(m_);
    cls_[int(c)].submitted++;
}

void
ServerStats::recordAdmitted(QosClass c, double queue_s)
{
    const ClassSeries &series = classSeries(c);
    series.admitted->inc();
    series.queue_wait->record(queue_s);
    std::lock_guard<std::mutex> lock(m_);
    ClassCollector &cc = cls_[int(c)];
    cc.admitted++;
    cc.queue_sum += queue_s;
}

void
ServerStats::recordServed(QosClass c, double latency_s, QualityRung rung)
{
    const ClassSeries &series = classSeries(c);
    series.served->inc();
    series.latency->record(latency_s);
    std::lock_guard<std::mutex> lock(m_);
    ClassCollector &cc = cls_[int(c)];
    cc.served++;
    cc.served_rung[int(rung)]++;
    cc.latency_sum += latency_s;
    cc.latency_hist.record(latency_s);
}

void
ServerStats::recordDropped(QosClass c)
{
    classSeries(c).dropped->inc();
    std::lock_guard<std::mutex> lock(m_);
    cls_[int(c)].dropped++;
}

void
ServerStats::recordFailed(QosClass c)
{
    classSeries(c).failed->inc();
    std::lock_guard<std::mutex> lock(m_);
    cls_[int(c)].failed++;
}

void
ServerStats::recordExpired(QosClass c)
{
    classSeries(c).expired->inc();
    std::lock_guard<std::mutex> lock(m_);
    cls_[int(c)].expired++;
}

void
ServerStats::recordSceneSubmitted(const std::string &scene)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.submitted++;
}

void
ServerStats::recordSceneServed(const std::string &scene, QualityRung rung)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.served++;
    s.served_rung[int(rung)]++;
    if (rung != QualityRung::Full)
        s.degraded++;
}

void
ServerStats::recordSceneDropped(const std::string &scene)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.dropped++;
}

void
ServerStats::recordSceneFailed(const std::string &scene)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.failed++;
}

void
ServerStats::recordSceneExpired(const std::string &scene)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.expired++;
}

void
ServerStats::recordSceneBreakerOpened(const std::string &scene)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.breaker_opens++;
}

void
ServerStats::recordSceneBreakerFastFail(const std::string &scene)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.breaker_fast_fails++;
}

void
ServerStats::recordStuck(uint64_t stuck_now, uint64_t new_events)
{
    std::lock_guard<std::mutex> lock(m_);
    stuck_gauge_ = stuck_now;
    stuck_events_ += new_events;
}

void
ServerStats::recordSceneAdmitted(const std::string &scene, int in_flight)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &s = scenes_[scene];
    s.name = scene;
    s.peak_in_flight = std::max(s.peak_in_flight, in_flight);
}

void
ServerStats::recordSlowFrame(SlowFrameRecord &&rec)
{
    metrics::counter("asdr_slow_frames_total").inc();
    std::lock_guard<std::mutex> lock(m_);
    slow_frame_count_++;
    if (slow_frame_keep_ == 0)
        return;
    slow_frames_.push_back(std::move(rec));
    while (slow_frames_.size() > slow_frame_keep_)
        slow_frames_.pop_front();
}

void
ServerStats::setSlowFrameKeep(int n)
{
    std::lock_guard<std::mutex> lock(m_);
    slow_frame_keep_ = size_t(std::max(0, n));
    while (slow_frames_.size() > slow_frame_keep_)
        slow_frames_.pop_front();
}

ServerStatsSnapshot
ServerStats::snapshot() const
{
    std::lock_guard<std::mutex> lock(m_);
    ServerStatsSnapshot snap;
    for (int c = 0; c < kQosClasses; ++c) {
        const ClassCollector &cc = cls_[c];
        QosClassStats &out = snap.cls[c];
        out.submitted = cc.submitted;
        out.admitted = cc.admitted;
        out.served = cc.served;
        out.dropped = cc.dropped;
        out.failed = cc.failed;
        out.expired = cc.expired;
        for (int r = 0; r < kQualityRungs; ++r) {
            out.served_rung[r] = cc.served_rung[r];
            if (r > 0)
                out.degraded += cc.served_rung[r];
        }
        if (cc.served) {
            // Mean stays exact (running sum); percentiles come from
            // the log-bucketed histogram covering every observation.
            out.mean_ms = cc.latency_sum / double(cc.served) * 1e3;
            out.p50_ms = cc.latency_hist.percentile(0.50) * 1e3;
            out.p95_ms = cc.latency_hist.percentile(0.95) * 1e3;
            out.p99_ms = cc.latency_hist.percentile(0.99) * 1e3;
        }
        if (cc.admitted)
            out.mean_queue_ms = cc.queue_sum / double(cc.admitted) * 1e3;
    }
    snap.scenes.reserve(scenes_.size());
    for (const auto &entry : scenes_)
        snap.scenes.push_back(entry.second);
    snap.stuck_in_flight = stuck_gauge_;
    snap.stuck_events = stuck_events_;
    snap.slow_frame_count = slow_frame_count_;
    snap.slow_frames.assign(slow_frames_.begin(), slow_frames_.end());
    return snap;
}

void
ServerStats::reset()
{
    std::lock_guard<std::mutex> lock(m_);
    for (auto &cc : cls_)
        cc.reset();
    scenes_.clear();
    stuck_gauge_ = 0;
    stuck_events_ = 0;
    slow_frames_.clear();
    slow_frame_count_ = 0;
}

std::string
ServerStatsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\"classes\":{";
    for (int c = 0; c < kQosClasses; ++c) {
        const QosClassStats &s = cls[c];
        if (c)
            os << ",";
        os << "\"" << qosClassName(QosClass(c)) << "\":{"
           << "\"submitted\":" << s.submitted
           << ",\"admitted\":" << s.admitted << ",\"served\":" << s.served
           << ",\"dropped\":" << s.dropped << ",\"failed\":" << s.failed
           << ",\"expired\":" << s.expired
           << ",\"drop_rate\":" << s.dropRate()
           << ",\"p50_ms\":" << s.p50_ms << ",\"p95_ms\":" << s.p95_ms
           << ",\"p99_ms\":" << s.p99_ms << ",\"mean_ms\":" << s.mean_ms
           << ",\"mean_queue_ms\":" << s.mean_queue_ms << ",\"rungs\":[";
        for (int r = 0; r < kQualityRungs; ++r)
            os << (r ? "," : "") << s.served_rung[r];
        os << "],\"degraded\":" << s.degraded
           << ",\"degraded_fraction\":" << s.degradedFraction()
           << ",\"mean_rung\":" << s.meanRung() << ",\"slo\":{"
           << "\"latency_fast_burn\":" << s.slo_latency_fast_burn
           << ",\"latency_slow_burn\":" << s.slo_latency_slow_burn
           << ",\"error_fast_burn\":" << s.slo_error_fast_burn
           << ",\"error_slow_burn\":" << s.slo_error_slow_burn
           << ",\"latency_breached\":" << int(s.slo_latency_breached)
           << ",\"error_breached\":" << int(s.slo_error_breached)
           << ",\"breach_events\":" << s.slo_breach_events << "}}";
    }
    os << "},\"scenes\":{";
    for (size_t i = 0; i < scenes.size(); ++i) {
        const SceneServeStats &s = scenes[i];
        if (i)
            os << ",";
        os << "\"" << jsonEscape(s.name) << "\":{"
           << "\"submitted\":" << s.submitted
           << ",\"served\":" << s.served << ",\"dropped\":" << s.dropped
           << ",\"failed\":" << s.failed << ",\"expired\":" << s.expired
           << ",\"peak_in_flight\":" << s.peak_in_flight
           << ",\"breaker_state\":" << int(s.breaker_state)
           << ",\"breaker_opens\":" << s.breaker_opens
           << ",\"breaker_fast_fails\":" << s.breaker_fast_fails
           << ",\"rungs\":[";
        for (int r = 0; r < kQualityRungs; ++r)
            os << (r ? "," : "") << s.served_rung[r];
        os << "],\"degraded\":" << s.degraded << "}";
    }
    os << "},\"stuck_in_flight\":" << stuck_in_flight
       << ",\"stuck_events\":" << stuck_events
       << ",\"slow_frame_count\":" << slow_frame_count
       << ",\"slow_frames\":[";
    for (size_t i = 0; i < slow_frames.size(); ++i) {
        const SlowFrameRecord &r = slow_frames[i];
        if (i)
            os << ",";
        os << "{\"ticket\":" << r.ticket << ",\"frame\":" << r.frame
           << ",\"qos\":\"" << qosClassName(r.qos) << "\""
           << ",\"latency_ms\":" << r.latency_ms
           << ",\"failed\":" << (r.failed ? 1 : 0)
           << ",\"expired\":" << (r.expired ? 1 : 0)
           << ",\"dropped\":" << (r.dropped ? 1 : 0) << ",\"spans\":[";
        for (size_t s = 0; s < r.spans.size(); ++s) {
            const SlowFrameSpan &sp = r.spans[s];
            if (s)
                os << ",";
            os << "{\"name\":\"" << jsonEscape(sp.name)
               << "\",\"lane\":" << sp.lane
               << ",\"t0_us\":" << sp.t_start_us
               << ",\"t1_us\":" << sp.t_end_us << "}";
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

} // namespace asdr::server
