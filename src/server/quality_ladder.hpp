/**
 * @file
 * Load-adaptive quality ladder: degrade, don't drop.
 *
 * Under burst a server without the ladder survives by shedding work:
 * in the deterministic 8-frame burst of
 * ServerLadder.BurstShedCollapsesFromLadderOffToOn, drop-oldest sheds
 * 62.5% of the interactive frames. But the paper's core observation
 * is that sample count is a *tunable* quality/cost knob: under
 * pressure it is strictly better to render cheaper than to render
 * never. This module turns that knob into a serving policy.
 *
 * Two cooperating pieces:
 *
 *  - applyRung()/rungResolution(): the pure transforms that map a
 *    QualityRung (server/qos.hpp) onto a RenderConfig and a render
 *    resolution. Rungs are cumulative, so the quality/cost tradeoff is
 *    monotone by construction (tests/test_quality_ladder.cpp proves
 *    PSNR ordered one way, rendered work the other).
 *
 *  - BrownoutController: the server's deterministic controller that
 *    picks a rung per admitted frame from three pressure signals --
 *    the class's queue depth, how much of its deadline the candidate
 *    has already burned in queue, and the recent per-class p95 service
 *    latency (a fixed ring buffer, deliberately not the randomized
 *    stats reservoir). Hysteresis is asymmetric: the controller steps
 *    *down* to the computed target immediately, but steps back *up*
 *    one rung only after `recover_ticks` consecutive healthy
 *    decisions, so a load oscillating around a threshold cannot make
 *    the ladder flap. The controller is a plain data structure guarded
 *    by its owner's lock (FrameServer's m_), same as QosScheduler.
 *
 * The scheduler side of "degrade, don't drop" lives in
 * QosClassParams::degraded_backlog (extra pending slots admitted at
 * the ladder floor before drop-oldest fires); the wire side is the
 * rung field in FrameResult / protocol v3.
 */

#ifndef ASDR_SERVER_QUALITY_LADDER_HPP
#define ASDR_SERVER_QUALITY_LADDER_HPP

#include <cstddef>
#include <cstdint>

#include "core/render_config.hpp"
#include "server/qos.hpp"

namespace asdr::server {

/** Knobs of the quality ladder and its brownout controller. */
struct LadderParams
{
    /** Master switch; off = seed behavior, every frame renders Full. */
    bool enabled = false;

    /**
     * Queue-depth thresholds: a class with at least this many pending
     * frames targets at least the given rung. Must be non-decreasing
     * (rung 1 <= rung 2 <= rung 3); 0 disables a threshold.
     */
    int queue_depth_rung1 = 2;
    int queue_depth_rung2 = 4;
    int queue_depth_rung3 = 8;

    /**
     * Deadline-headroom trigger: a candidate that has already waited
     * at least this fraction of its class deadline in queue is pushed
     * one rung further down -- the cheaper render is what lets it
     * still make the deadline. <= 0 disables; no-op for classes
     * without a deadline.
     */
    double headroom_trigger = 0.5;

    /**
     * Latency trigger: when the class's recent p95 service latency
     * (over the controller's ring of the last kLatencyRing served
     * frames) is at or above this many milliseconds, the target is at
     * least ReducedSamples. 0 disables.
     */
    double p95_trigger_ms = 0.0;

    /** Consecutive healthy (target < current) admission decisions
     *  before the controller recovers one rung. */
    int recover_ticks = 4;

    /** ReducedSamples and below: samples_per_ray multiplier, clamped
     *  to RenderConfig::min_samples. */
    double sample_scale = 0.5;

    /** ReducedResolution and below: rendered dims = requested dims /
     *  divisor (rounded up, floor 8 px). */
    int resolution_divisor = 2;

    /** Whether the controller may degrade class `c`. Batch work is
     *  not latency-sensitive, so it keeps full fidelity. */
    bool
    applies(QosClass c) const
    {
        return enabled && c != QosClass::Batch;
    }
};

/**
 * The RenderConfig a session renders with at `rung`: Full returns the
 * config untouched (the byte-exact path); every lower rung scales
 * samples_per_ray by `sample_scale` (floor: cfg.min_samples). The
 * resolution component of lower rungs is camera-borne -- see
 * rungResolution() -- so the config transform is the same for rungs
 * 1..3.
 */
core::RenderConfig applyRung(const core::RenderConfig &cfg, QualityRung rung,
                             const LadderParams &p);

/**
 * Rendered resolution for a frame requested at full_w x full_h: rungs
 * below ReducedResolution keep the requested dims; ReducedResolution
 * and Quantized8 divide both by `resolution_divisor` (rounded up,
 * floor 8 px so tiny probe frames stay renderable).
 */
void rungResolution(QualityRung rung, const LadderParams &p, int full_w,
                    int full_h, int &render_w, int &render_h);

/**
 * Deterministic brownout controller. One instance per FrameServer,
 * guarded by the server's lock; all state is a pure function of
 * the observed (latency, decision-input) sequence, so identical
 * traffic replays identical rung decisions.
 */
class BrownoutController
{
  public:
    /** Served-latency ring size per class (the p95 window). */
    static constexpr size_t kLatencyRing = 64;

    explicit BrownoutController(const LadderParams &params);

    /**
     * Feed one served-frame latency (milliseconds) into the class's
     * p95 ring. Call under the owner's lock.
     */
    void observeLatency(QosClass c, double latency_ms);

    /**
     * Decide the rung for one admission. `queue_depth` is the class's
     * current pending count; `waited_fraction` is (time in queue) /
     * (class deadline), 0 when the class has no deadline. Advances the
     * hysteresis state: step down to the computed target immediately,
     * recover one rung after `recover_ticks` consecutive decisions
     * whose target is below the current rung.
     */
    QualityRung decide(QosClass c, size_t queue_depth,
                       double waited_fraction);

    /** Current rung of a class (between decisions). */
    QualityRung current(QosClass c) const;

    /** Recent p95 service latency of a class, ms (0 until any data). */
    double recentP95(QosClass c) const;

  private:
    struct ClassState
    {
        int rung = 0;    ///< current ladder position
        int healthy = 0; ///< consecutive decisions with target < rung
        double ring[kLatencyRing] = {};
        size_t ring_count = 0; ///< valid entries (saturates at ring size)
        size_t ring_pos = 0;   ///< next write slot
    };

    /** The rung pressure alone asks for, before hysteresis. */
    int targetFor(const ClassState &s, size_t queue_depth,
                  double waited_fraction) const;

    LadderParams params_;
    ClassState cls_[kQosClasses];
};

} // namespace asdr::server

#endif // ASDR_SERVER_QUALITY_LADDER_HPP
