/**
 * @file
 * Multi-window burn-rate SLO tracking for the frame server.
 *
 * Each QoS class can carry two objectives (ServerConfig::slo):
 *
 *   latency       "99% of served frames finish under target_p99_ms"
 *                 -- the error budget is the 1% of frames allowed to
 *                 miss the target.
 *   availability  "at most max_error_fraction of frames fail, expire,
 *                 or are shed" -- the budget is that fraction itself.
 *
 * Outcomes land in a time-bucketed ring per class; burn rate is the
 * fraction of budget-violating frames in a window divided by the
 * budget (burn 1.0 == consuming the budget exactly at the sustainable
 * rate; burn 10 == the budget gone in a tenth of the window). An
 * objective breaches only when the FAST and SLOW windows both burn at
 * 1.0 or more -- the classic multi-window alert shape: the slow window
 * proves the problem is real, the fast window proves it is still
 * happening, so a breach clears quickly once the cause is fixed
 * instead of lingering for a full slow window.
 *
 * The burns, the breach state (asdr_slo_breach{qos,slo}) and the
 * per-class breach events live in the server's metrics registry; the
 * series exist for every class, zero where no objective is set. A
 * breach emits one structured warn() per transition. Each record call
 * returns whether its frame violates the class's objective, and
 * FrameServer records every violating frame into the flight recorder
 * as it is delivered, so an alert's evidence is already there when
 * the alert fires. The tracker keeps counts, never frames.
 *
 * Thread-safe; records and evaluations may race from engine workers,
 * the watchdog, and snapshot readers.
 */

#ifndef ASDR_SERVER_SLO_TRACKER_HPP
#define ASDR_SERVER_SLO_TRACKER_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "server/qos.hpp"
#include "server/server_stats.hpp"
#include "util/telemetry.hpp"

namespace asdr::server {

/** One class's objectives; 0 disables each independently. */
struct SloClassObjective
{
    /** Served frames should finish under this in 99% of cases;
     *  milliseconds. 0 disables the latency objective. */
    double target_p99_ms = 0.0;
    /** Highest tolerable fraction of failed/expired/dropped frames.
     *  0 disables the availability objective. */
    double max_error_fraction = 0.0;

    bool enabled() const
    {
        return target_p99_ms > 0.0 || max_error_fraction > 0.0;
    }
};

struct SloParams
{
    SloClassObjective cls[kQosClasses];
    /** Fast alert window, seconds ("is it still happening?"). The
     *  production shape is ~1 minute; tests scale it down. */
    double fast_window_s = 60.0;
    /** Slow alert window, seconds ("is it real?"); production ~1 h. */
    double slow_window_s = 3600.0;

    bool enabled() const
    {
        for (const auto &c : cls)
            if (c.enabled())
                return true;
        return false;
    }
};

class SloTracker
{
  public:
    /** Registers the SLO series of every class in `reg`. */
    SloTracker(const SloParams &p, metrics::Registry &reg);

    /** A served frame; `latency_ms` submit -> delivery. True when it
     *  violates the class's latency objective. */
    bool recordServed(QosClass c, double latency_ms);
    /** A failed, expired, or shed frame. True when the class carries
     *  an availability objective, which every such frame violates. */
    bool recordError(QosClass c);

    /**
     * Advance the windows, recompute burns, update gauges, and warn on
     * breach transitions. Call after outcome batches and from the
     * watchdog tick; a no-op when no class carries an objective.
     */
    void evaluate();

    /** Typed read of class `c`'s SLO series into the slo_* fields. */
    void read(QosClass c, QosClassStats &out) const;

  private:
    /** One time slice of outcomes. */
    struct Bucket
    {
        uint64_t total = 0;   ///< all terminal outcomes
        uint64_t lat_bad = 0; ///< served over target_p99_ms
        uint64_t err_bad = 0; ///< failed/expired/dropped
    };

    /** One objective's series: fast/slow burn gauges and the 0/1
     *  breach gauge (also the breach state the transitions test). */
    struct Objective
    {
        metrics::Gauge *fast = nullptr;
        metrics::Gauge *slow = nullptr;
        metrics::Gauge *breached = nullptr;
    };

    struct ClassState
    {
        std::vector<Bucket> ring; ///< slow window of buckets
        int64_t cur = -1;         ///< absolute index of current bucket
        Objective latency;
        Objective errors;
        metrics::Counter *breach_events = nullptr; ///< ok -> breached
    };

    /** Count one outcome into class `c`'s current slice; returns the
     *  violation verdict of recordServed/recordError. */
    bool record(QosClass c, double latency_ms, bool error);
    /** Update one objective's burns from its windows and handle a
     *  breach transition (m_ held). */
    void evaluateLocked(QosClass c, ClassState &st, Objective &obj,
                        const char *slo, uint64_t Bucket::*bad,
                        double budget, double objective);
    void advanceLocked(ClassState &st,
                       std::chrono::steady_clock::time_point now);
    /** Bad-outcome fraction over the most recent `buckets` slices. */
    static double windowFraction(const ClassState &st, int64_t buckets,
                                 uint64_t Bucket::*bad);

    SloParams p_;
    double bucket_s_;       ///< slice width (fast window / 8)
    int64_t fast_buckets_;  ///< slices covering the fast window
    int64_t slow_buckets_;  ///< slices covering the slow window (ring size)
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex m_;
    ClassState cls_[kQosClasses];
};

} // namespace asdr::server

#endif // ASDR_SERVER_SLO_TRACKER_HPP
