#include "server/server_stats.hpp"

#include <algorithm>
#include <sstream>

namespace asdr::server {

ClassMetrics::ClassMetrics(metrics::Registry &reg, QosClass c)
{
    const std::string l = metrics::label("qos", qosClassName(c));
    submitted = &reg.counter("asdr_frames_submitted_total", l);
    admitted = &reg.counter("asdr_frames_admitted_total", l);
    coalesced = &reg.counter("asdr_frames_coalesced_total", l);
    dropped = &reg.counter("asdr_frames_dropped_total", l);
    failed = &reg.counter("asdr_frames_failed_total", l);
    expired = &reg.counter("asdr_frames_expired_total", l);
    for (int r = 0; r < kQualityRungs; ++r)
        served_rung[size_t(r)] = &reg.counter(
            "asdr_frames_served_total",
            l + "," + metrics::label("rung", rungName(QualityRung(r))));
    latency = &reg.histogram("asdr_frame_latency_seconds", l);
    queue_wait = &reg.histogram("asdr_frame_queue_wait_seconds", l);
    for (int k = 0; k < engine::kStages; ++k)
        stage_duration[size_t(k)] =
            &reg.histogram("asdr_stage_duration_seconds",
                           metrics::label("stage", engine::kStageName[k]) +
                               "," + l);
}

QosClassStats
ClassMetrics::read() const
{
    QosClassStats s;
    s.submitted = submitted->value();
    s.admitted = admitted->value();
    s.coalesced = coalesced->value();
    s.dropped = dropped->value();
    s.failed = failed->value();
    s.expired = expired->value();
    for (int r = 0; r < kQualityRungs; ++r) {
        s.served_rung[r] = served_rung[size_t(r)]->value();
        s.served += s.served_rung[r];
        if (r > 0)
            s.degraded += s.served_rung[r];
    }
    s.p50_ms = latency->percentile(0.50) * 1e3;
    s.p95_ms = latency->percentile(0.95) * 1e3;
    s.p99_ms = latency->percentile(0.99) * 1e3;
    s.mean_ms = latency->mean() * 1e3;
    s.mean_queue_ms = queue_wait->mean() * 1e3;
    return s;
}

SceneMetrics::SceneMetrics(metrics::Registry &reg, const std::string &scene)
    : name(scene)
{
    const std::string l = metrics::label("scene", scene);
    submitted = &reg.counter("asdr_scene_frames_submitted_total", l);
    dropped = &reg.counter("asdr_scene_frames_dropped_total", l);
    failed = &reg.counter("asdr_scene_frames_failed_total", l);
    expired = &reg.counter("asdr_scene_frames_expired_total", l);
    for (int r = 0; r < kQualityRungs; ++r)
        served_rung[size_t(r)] = &reg.counter(
            "asdr_scene_frames_served_total",
            l + "," + metrics::label("rung", rungName(QualityRung(r))));
    peak_in_flight = &reg.gauge("asdr_scene_peak_in_flight", l);
    breaker_state = &reg.gauge("asdr_scene_breaker_state", l);
    breaker_opens = &reg.counter("asdr_scene_breaker_opens_total", l);
    breaker_fast_fails =
        &reg.counter("asdr_scene_breaker_fast_fails_total", l);
}

void
SceneMetrics::notePeak(int in_flight)
{
    if (double(in_flight) > peak_in_flight->value())
        peak_in_flight->set(double(in_flight));
}

SceneServeStats
SceneMetrics::read() const
{
    SceneServeStats s;
    s.name = name;
    s.submitted = submitted->value();
    s.dropped = dropped->value();
    s.failed = failed->value();
    s.expired = expired->value();
    for (int r = 0; r < kQualityRungs; ++r) {
        s.served_rung[r] = served_rung[size_t(r)]->value();
        s.served += s.served_rung[r];
        if (r > 0)
            s.degraded += s.served_rung[r];
    }
    s.peak_in_flight = int(peak_in_flight->value());
    s.breaker_state = uint8_t(breaker_state->value());
    s.breaker_opens = breaker_opens->value();
    s.breaker_fast_fails = breaker_fast_fails->value();
    return s;
}

ServerStats::ServerStats(metrics::Registry &reg)
    : slow_frames_total_(reg.counter("asdr_slow_frames_total"))
{
}

void
ServerStats::recordSlowFrame(SlowFrameRecord &&rec)
{
    slow_frames_total_.inc();
    std::lock_guard<std::mutex> lock(m_);
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

void
ServerStats::fill(ServerStatsSnapshot &snap) const
{
    std::lock_guard<std::mutex> lock(m_);
    // Counted before pushed: every retained record is in the count.
    snap.slow_frame_count = slow_frames_total_.value();
    snap.slow_frames.assign(slow_frames_.begin(), slow_frames_.end());
}

std::string
ServerStatsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\"slow_frame_count\":" << slow_frame_count
       << ",\"slow_frames\":[";
    for (size_t i = 0; i < slow_frames.size(); ++i) {
        const SlowFrameRecord &r = slow_frames[i];
        if (i)
            os << ",";
        os << "{\"ticket\":" << r.ticket
           << ",\"render_ticket\":" << r.render_ticket
           << ",\"frame\":" << r.frame
           << ",\"qos\":\"" << qosClassName(r.qos) << "\""
           << ",\"latency_ms\":" << r.latency_ms
           << ",\"failed\":" << (r.failed ? 1 : 0)
           << ",\"expired\":" << (r.expired ? 1 : 0)
           << ",\"dropped\":" << (r.dropped ? 1 : 0) << ",\"stage_ms\":{";
        bool first = true;
        for (int k = 0; k < engine::kStages; ++k) {
            if (!r.stage_s[size_t(k)])
                continue;
            os << (first ? "" : ",") << "\"" << engine::kStageName[k]
               << "\":" << *r.stage_s[size_t(k)] * 1e3;
            first = false;
        }
        os << "}}";
    }
    os << "]}";
    return os.str();
}

} // namespace asdr::server
