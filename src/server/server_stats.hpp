/**
 * @file
 * Serving telemetry of the multi-tenant render server: per-QoS-class
 * submitted/admitted/served/dropped/failed counts plus latency
 * percentiles built from monotonic-clock timestamps taken at submit
 * (enters the server), admit (handed to a shard engine), and finish
 * (outcome delivered).
 *
 * Latency samples land in a log-bucketed histogram per class
 * (metrics::Histogram: 256 buckets, ~±4.5% relative error), so the
 * collector's memory stays bounded on arbitrarily long serving runs
 * while the percentiles cover EVERY observation -- no reservoir
 * sampling bias under bursts. snapshot() returns a plain value;
 * toJson() renders it for dashboards and the bench harness's
 * serve_latency rows.
 *
 * The collector also keeps the slow-frame flight record: the last N
 * frames that blew the server's `slow_frame_ms` budget (or failed or
 * expired), each with its full telemetry span timeline.
 */

#ifndef ASDR_SERVER_SERVER_STATS_HPP
#define ASDR_SERVER_SERVER_STATS_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "server/qos.hpp"
#include "util/telemetry.hpp"

namespace asdr::server {

/** One class's aggregated serving record. */
struct QosClassStats
{
    uint64_t submitted = 0; ///< frames entering the server
    uint64_t admitted = 0;  ///< frames handed to a shard engine
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
    /** Mean submit -> admit wait (scheduler queue time), milliseconds. */
    double mean_queue_ms = 0.0;

    /** Quality-ladder occupancy: served frames per rung (index is a
     *  QualityRung value; sums to `served`). */
    uint64_t served_rung[kQualityRungs] = {};
    /** Served frames delivered below QualityRung::Full. */
    uint64_t degraded = 0;

    // SLO burn-rate view (SloTracker-filled at snapshot time; all zero
    // when ServerConfig::slo leaves the class unconfigured). Burn 1.0
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
 *  who is hot, and how much of a shard it peaked at). */
struct SceneServeStats
{
    std::string name;
    uint64_t submitted = 0;
    uint64_t served = 0;
    uint64_t dropped = 0;
    uint64_t failed = 0;
    uint64_t expired = 0;
    /** Peak concurrent in-flight frames observed on any one shard. */
    int peak_in_flight = 0;
    /** Circuit-breaker view (FrameServer fills the live state at
     *  snapshot time): 0 closed, 1 open, 2 half-open. */
    uint8_t breaker_state = 0;
    uint64_t breaker_opens = 0;      ///< closed/half-open -> open trips
    uint64_t breaker_fast_fails = 0; ///< frames failed without rendering
    /** Quality-ladder occupancy: served frames per rung. */
    uint64_t served_rung[kQualityRungs] = {};
    /** Served frames delivered below QualityRung::Full. */
    uint64_t degraded = 0;
};

/** One span of a slow frame's retained timeline (value copy of the
 *  telemetry::Span, name owned so the record outlives the buffers). */
struct SlowFrameSpan
{
    std::string name;
    uint32_t lane = 0;
    uint64_t t_start_us = 0;
    uint64_t t_end_us = 0;
};

/** One flight-recorder entry: a frame that exceeded the slow budget,
 *  failed, or expired, with its span timeline (empty when tracing was
 *  off -- the record itself still lands). */
struct SlowFrameRecord
{
    uint64_t ticket = 0;
    uint64_t frame = 0; ///< engine frame id (0 when never admitted)
    QosClass qos = QosClass::Standard;
    double latency_ms = 0.0;
    bool failed = false;
    bool expired = false;
    bool dropped = false; ///< shed by the backlog policy
    std::vector<SlowFrameSpan> spans;
};

struct ServerStatsSnapshot
{
    QosClassStats cls[kQosClasses];
    /** Per-scene records, sorted by scene name. */
    std::vector<SceneServeStats> scenes;
    /** Watchdog view: in-flight frames currently over the stuck
     *  threshold (gauge, FrameServer-filled) and the cumulative count
     *  of frames that ever crossed it. */
    uint64_t stuck_in_flight = 0;
    uint64_t stuck_events = 0;
    /** Flight recorder: the most recent slow/failed/expired frames
     *  (bounded ring) and the cumulative count of all of them. */
    std::vector<SlowFrameRecord> slow_frames;
    uint64_t slow_frame_count = 0;

    uint64_t totalServed() const
    {
        uint64_t n = 0;
        for (const auto &c : cls)
            n += c.served;
        return n;
    }

    /** {"classes":{"interactive":{...},...}} -- a dashboard/bench dump. */
    std::string toJson() const;
};

/** Thread-safe collector; the FrameServer records into one of these. */
class ServerStats
{
  public:
    void recordSubmitted(QosClass c);
    /** `queue_s`: submit -> admit wait in seconds. */
    void recordAdmitted(QosClass c, double queue_s);
    /** `latency_s`: submit -> finish in seconds; `rung` the
     *  QualityRung the frame was served at. */
    void recordServed(QosClass c, double latency_s,
                      QualityRung rung = QualityRung::Full);
    void recordDropped(QosClass c);
    void recordFailed(QosClass c);
    void recordExpired(QosClass c);

    // Per-scene accounting (the admission-quota observability):
    void recordSceneSubmitted(const std::string &scene);
    void recordSceneServed(const std::string &scene,
                           QualityRung rung = QualityRung::Full);
    void recordSceneDropped(const std::string &scene);
    void recordSceneFailed(const std::string &scene);
    void recordSceneExpired(const std::string &scene);
    /** One closed/half-open -> open transition of the scene's breaker. */
    void recordSceneBreakerOpened(const std::string &scene);
    /** One frame failed fast by an open breaker (also recorded as a
     *  class + scene failure by the caller). */
    void recordSceneBreakerFastFail(const std::string &scene);
    /** Watchdog tick: `stuck_now` in-flight frames currently over the
     *  threshold, `new_events` of them crossing it this tick. */
    void recordStuck(uint64_t stuck_now, uint64_t new_events);
    /** `in_flight`: the scene's post-admission in-flight count on its
     *  shard; the snapshot keeps the peak. */
    void recordSceneAdmitted(const std::string &scene, int in_flight);

    /** Retain one flight-recorder entry (ring of the most recent
     *  `slow_frame_keep` records; the cumulative count never resets
     *  until reset()). */
    void recordSlowFrame(SlowFrameRecord &&rec);
    /** Ring capacity for recordSlowFrame (default 16; 0 keeps only
     *  the cumulative count). */
    void setSlowFrameKeep(int n);

    ServerStatsSnapshot snapshot() const;
    void reset();

  private:
    struct ClassCollector
    {
        uint64_t submitted = 0, admitted = 0, served = 0, dropped = 0,
                 failed = 0, expired = 0;
        uint64_t served_rung[kQualityRungs] = {};
        double latency_sum = 0.0;
        double queue_sum = 0.0;
        /** Served latencies, seconds: every observation lands in a
         *  log bucket, so percentiles are exact to bucket resolution
         *  (no reservoir sampling bias under bursts). */
        metrics::Histogram latency_hist;

        void reset()
        {
            submitted = admitted = served = dropped = failed = expired = 0;
            for (auto &r : served_rung)
                r = 0;
            latency_sum = queue_sum = 0.0;
            latency_hist.reset();
        }
    };

    mutable std::mutex m_;
    ClassCollector cls_[kQosClasses];
    /** Ordered by name so snapshots list scenes deterministically. */
    std::map<std::string, SceneServeStats> scenes_;
    uint64_t stuck_gauge_ = 0;
    uint64_t stuck_events_ = 0;
    /** Flight-recorder ring (most recent last) + cumulative count. */
    std::deque<SlowFrameRecord> slow_frames_;
    uint64_t slow_frame_count_ = 0;
    size_t slow_frame_keep_ = 16;
};

} // namespace asdr::server

#endif // ASDR_SERVER_SERVER_STATS_HPP
