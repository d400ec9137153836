/**
 * @file
 * Serving metrics of the multi-tenant render server, and its
 * slow-frame flight recorder.
 *
 * Every serving value lives once, in the FrameServer's
 * metrics::Registry. ClassMetrics and SceneMetrics are the series one
 * QoS class and one scene record into: resolved once, so counting an
 * outcome is an atomic add. Their read() is the typed view that
 * FrameServer::stats() assembles into a ServerStatsSnapshot, and
 * FrameServer::metricsText() renders the same series as Prometheus
 * text (the body of the wire's MetricsReply).
 *
 * Latency, queue wait and each engine stage's time land in
 * log-bucketed histograms
 * (metrics::Histogram: 256 buckets, ~±4.5% relative error), so memory
 * stays bounded on arbitrarily long serving runs while the
 * percentiles cover EVERY observation -- no reservoir sampling bias
 * under bursts.
 *
 * ServerStats is the flight recorder: the last N frames that blew the
 * server's `slow_frame_ms` budget (or failed, expired, or were shed)
 * or violated their class's SLO objective, each with its facts and,
 * when it was rendered, its render's stage times. Each record is made
 * once, where the frame's outcome is decided, and costs O(1): it
 * copies nothing from the span buffers, whose spans stay in the trace
 * under the record's ticket and render_ticket. Those are records, not
 * metrics; ServerStatsSnapshot::toJson() renders them.
 */

#ifndef ASDR_SERVER_SERVER_STATS_HPP
#define ASDR_SERVER_SERVER_STATS_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "engine/frame_engine.hpp"
#include "server/qos.hpp"
#include "util/telemetry.hpp"

namespace asdr::server {

/** One class's aggregated serving record. */
struct QosClassStats
{
    uint64_t submitted = 0; ///< frames entering the server
    uint64_t admitted = 0;  ///< frames handed to the engine
    /** Frames answered by a render of the same view instead of taking
     *  a slot: they joined it while it rendered, or its scene's last
     *  render answered them after it finished. admitted + coalesced is
     *  every frame that got past admission. */
    uint64_t coalesced = 0;
    uint64_t served = 0;    ///< frames delivered successfully
    uint64_t dropped = 0;   ///< frames shed by the backlog policy
    uint64_t failed = 0;    ///< frames whose render threw
    uint64_t expired = 0;   ///< frames past their class deadline

    // Latency percentiles over served frames, submit -> finish,
    // milliseconds. Zero when no frame of the class was served.
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    /** Mean submit -> admit (or join) wait, milliseconds. */
    double mean_queue_ms = 0.0;

    /** Quality-ladder occupancy: served frames per rung (index is a
     *  QualityRung value; sums to `served`). */
    uint64_t served_rung[kQualityRungs] = {};
    /** Served frames delivered below QualityRung::Full. */
    uint64_t degraded = 0;

    // SLO burn-rate view (SloTracker::read; all zero when
    // ServerConfig::slo leaves the class unconfigured). Burn 1.0
    // == consuming the error budget exactly at the sustainable rate.
    double slo_latency_fast_burn = 0.0;
    double slo_latency_slow_burn = 0.0;
    double slo_error_fast_burn = 0.0;
    double slo_error_slow_burn = 0.0;
    /** 1 while the latency objective is breached (fast AND slow
     *  windows over the burn threshold). */
    uint8_t slo_latency_breached = 0;
    /** 1 while the availability objective is breached. */
    uint8_t slo_error_breached = 0;
    /** Cumulative ok -> breached transitions, both objectives. */
    uint64_t slo_breach_events = 0;

    double dropRate() const
    {
        return submitted ? double(dropped) / double(submitted) : 0.0;
    }

    /** Fraction of served frames delivered degraded. */
    double degradedFraction() const
    {
        return served ? double(degraded) / double(served) : 0.0;
    }

    /** Mean QualityRung value over served frames (0 = all Full). */
    double meanRung() const
    {
        if (!served)
            return 0.0;
        uint64_t sum = 0;
        for (int r = 0; r < kQualityRungs; ++r)
            sum += served_rung[r] * uint64_t(r);
        return double(sum) / double(served);
    }
};

/** One scene's aggregated serving record (the per-scene-quota view:
 *  who is hot, and how many pipeline slots it peaked at). */
struct SceneServeStats
{
    std::string name;
    uint64_t submitted = 0;
    uint64_t served = 0;
    uint64_t dropped = 0;
    uint64_t failed = 0;
    uint64_t expired = 0;
    /** Peak concurrent in-flight frames of the scene. */
    int peak_in_flight = 0;
    /** Circuit-breaker state: 0 closed, 1 open, 2 half-open. */
    uint8_t breaker_state = 0;
    uint64_t breaker_opens = 0;      ///< closed/half-open -> open trips
    uint64_t breaker_fast_fails = 0; ///< frames failed without rendering
    /** Quality-ladder occupancy: served frames per rung. */
    uint64_t served_rung[kQualityRungs] = {};
    /** Served frames delivered below QualityRung::Full. */
    uint64_t degraded = 0;
};

/** One flight-recorder entry: a frame that exceeded the slow budget,
 *  failed, expired, was shed, or violated its class's SLO objective:
 *  its facts and, for a delivered render, its stage times. */
struct SlowFrameRecord
{
    uint64_t ticket = 0;
    /** FrameResult::render_ticket: the render that produced (or failed)
     *  the frame; 0 when it was never rendered. */
    uint64_t render_ticket = 0;
    uint64_t frame = 0; ///< engine frame id (0 when never admitted)
    QosClass qos = QosClass::Standard;
    double latency_ms = 0.0;
    bool failed = false;
    bool expired = false;
    bool dropped = false; ///< shed by the backlog policy
    /** The render's engine::Frame::stage_s, seconds; empty unless the
     *  record was made when a rendered frame was delivered. */
    engine::StageSeconds stage_s;
};

struct ServerStatsSnapshot
{
    QosClassStats cls[kQosClasses];
    /** Per-scene records, sorted by scene name. */
    std::vector<SceneServeStats> scenes;
    /** Watchdog view: in-flight frames currently over the stuck
     *  threshold and the cumulative count of frames that ever crossed
     *  it. */
    uint64_t stuck_in_flight = 0;
    uint64_t stuck_events = 0;
    /** Flight recorder: the most recent records (bounded ring) and
     *  the cumulative count of all of them. */
    std::vector<SlowFrameRecord> slow_frames;
    uint64_t slow_frame_count = 0;

    uint64_t totalServed() const
    {
        uint64_t n = 0;
        for (const auto &c : cls)
            n += c.served;
        return n;
    }

    /** {"slow_frame_count":N,"slow_frames":[...]} -- the flight
     *  recorder's records. The metrics render as Prometheus text
     *  (FrameServer::metricsText). */
    std::string toJson() const;
};

/** One QoS class's series in a server's registry (label qos). */
struct ClassMetrics
{
    ClassMetrics() = default;
    ClassMetrics(metrics::Registry &reg, QosClass c);

    metrics::Counter *submitted = nullptr; ///< frames entering the server
    metrics::Counter *admitted = nullptr;  ///< handed to the engine
    metrics::Counter *coalesced = nullptr; ///< answered by another's render
    metrics::Counter *dropped = nullptr;   ///< shed by the backlog policy
    metrics::Counter *failed = nullptr;    ///< render threw / fast-failed
    metrics::Counter *expired = nullptr;   ///< past the class deadline
    /** Served frames per QualityRung (label rung); served is their sum. */
    std::array<metrics::Counter *, kQualityRungs> served_rung{};
    /** Submit -> finish of served frames, seconds. */
    metrics::Histogram *latency = nullptr;
    /** Submit -> admit (or join) wait, seconds. */
    metrics::Histogram *queue_wait = nullptr;
    /** Each engine stage's time, seconds, one observation per
     *  successful render (asdr_stage_duration_seconds{stage,qos}). */
    std::array<metrics::Histogram *, engine::kStages> stage_duration{};

    /** Counts, percentiles, and rung occupancy (SLO fields zero). */
    QosClassStats read() const;
};

/** One scene's series in a server's registry (label scene). */
struct SceneMetrics
{
    SceneMetrics(metrics::Registry &reg, const std::string &scene);

    std::string name;
    metrics::Counter *submitted = nullptr;
    metrics::Counter *dropped = nullptr;
    metrics::Counter *failed = nullptr;
    metrics::Counter *expired = nullptr;
    /** Served frames per QualityRung; served is their sum. */
    std::array<metrics::Counter *, kQualityRungs> served_rung{};
    /** Peak concurrent in-flight frames of the scene (notePeak). */
    metrics::Gauge *peak_in_flight = nullptr;
    /** 0 closed, 1 open, 2 half-open. */
    metrics::Gauge *breaker_state = nullptr;
    metrics::Counter *breaker_opens = nullptr;
    metrics::Counter *breaker_fast_fails = nullptr;

    /** Raise peak_in_flight to `in_flight` if it is higher. A peak,
     *  not a sample: callers serialise (FrameServer holds its lock). */
    void notePeak(int in_flight);

    SceneServeStats read() const;
};

/** The flight recorder. Thread-safe. */
class ServerStats
{
  public:
    /** Records also count into `reg`'s asdr_slow_frames_total. */
    explicit ServerStats(metrics::Registry &reg);

    /** Retain one flight-recorder entry (ring of the most recent
     *  `slow_frame_keep` records; the cumulative count never resets). */
    void recordSlowFrame(SlowFrameRecord &&rec);
    /** Ring capacity for recordSlowFrame (default 16; 0 keeps only
     *  the cumulative count). */
    void setSlowFrameKeep(int n);

    /** Set `snap`'s slow_frames (the retained records) and
     *  slow_frame_count (their cumulative count); nothing else. */
    void fill(ServerStatsSnapshot &snap) const;

  private:
    metrics::Counter &slow_frames_total_;
    mutable std::mutex m_;
    /** Most recent last. */
    std::deque<SlowFrameRecord> slow_frames_;
    size_t slow_frame_keep_ = 16;
};

} // namespace asdr::server

#endif // ASDR_SERVER_SERVER_STATS_HPP
