/**
 * @file
 * Quality-of-service vocabulary of the multi-tenant render server.
 *
 * Every client session carries one of three QoS classes:
 *
 *  - interactive: a live viewer dragging a camera. Lowest latency, no
 *    lag, and a *drop-oldest* backlog -- when the viewer submits
 *    faster than the server renders, stale camera poses are discarded
 *    so the stream stays current.
 *  - standard: normal streaming traffic. Middle lag, drop-newest
 *    backlog (a full queue rejects further frames).
 *  - batch: offline/bulk work (dataset renders, previews). The longest
 *    lag, but bounded: a batch frame waits behind at most
 *    qosLag(Batch) later arrivals.
 *
 * The class maps onto one order key per frame, computed once: the
 * frame's ticket (the server-wide arrival sequence) plus its class's
 * qosLag. The admission scheduler (server/qos_scheduler) admits the
 * eligible frame with the smallest key, and the engine keys every
 * stage task of the frame by it. One order holds from admission to
 * worker, so a frame that no in-flight cap or scene quota holds back
 * is overtaken by at most its class's lag of later arrivals. This is
 * virtual-deadline scheduling (EEVDF, Stoica and Abdel-Wahab 1995)
 * with deadlines counted in frames.
 */

#ifndef ASDR_SERVER_QOS_HPP
#define ASDR_SERVER_QOS_HPP

#include <cstdint>

namespace asdr::server {

enum class QosClass
{
    Interactive = 0,
    Standard = 1,
    Batch = 2,
};

constexpr int kQosClasses = 3;

inline const char *
qosClassName(QosClass c)
{
    switch (c) {
    case QosClass::Interactive:
        return "interactive";
    case QosClass::Standard:
        return "standard";
    case QosClass::Batch:
        return "batch";
    }
    return "?";
}

/**
 * A class's lag, in frames. A frame's order key is its ticket plus its
 * class's lag, and smaller keys run first, so only frames that arrived
 * within the lag after it can overtake it. Interactive's zero lag is
 * its head start over the other classes. On example_serve_many's
 * mixed-class run, halving the lags raised interactive p50 by a fifth,
 * and a batch lag of 24 lengthened batch's p99 by 32-43%.
 */
constexpr uint64_t
qosLag(QosClass c)
{
    switch (c) {
    case QosClass::Interactive:
        return 0;
    case QosClass::Standard:
        return 8;
    case QosClass::Batch:
        return 16;
    }
    return 0;
}

/**
 * Quality ladder rungs, ordered from full fidelity to cheapest. Each
 * rung is *cumulative* -- it applies every degradation of the rungs
 * above it -- so quality is monotone non-increasing and render/transfer
 * cost monotone non-decreasing down the ladder:
 *
 *  - Full: the session's configured render, bit-exact vs sequential.
 *  - ReducedSamples: Phase II per-tile sample budgets scaled down
 *    (RenderConfig::samples_per_ray x LadderParams::sample_scale).
 *  - ReducedResolution: additionally rendered at reduced resolution
 *    (camera dims / LadderParams::resolution_divisor); the client
 *    upscales back to the requested size.
 *  - Quantized8: additionally forces the Quantized8 wire encoding,
 *    regardless of the session's negotiated encoding.
 *
 * The rung an admitted frame was served at travels in FrameResult and
 * on the wire (protocol v3), and is tallied per class and per scene in
 * the server's metrics (asdr_frames_served_total{qos,rung}).
 */
enum class QualityRung
{
    Full = 0,
    ReducedSamples = 1,
    ReducedResolution = 2,
    Quantized8 = 3,
};

constexpr int kQualityRungs = 4;

inline const char *
rungName(QualityRung r)
{
    switch (r) {
    case QualityRung::Full:
        return "full";
    case QualityRung::ReducedSamples:
        return "reduced_samples";
    case QualityRung::ReducedResolution:
        return "reduced_resolution";
    case QualityRung::Quantized8:
        return "quantized8";
    }
    return "?";
}

/** Per-class admission knobs (see QosParams for the defaults). */
struct QosClassParams
{
    /** Frames of this class in flight at once; 0 = no cap (bounded
     *  only by the server's pipeline slots). */
    int max_in_flight = 0;
    /** Pending frames per client before the backlog policy kicks in. */
    int max_backlog = 8;
    /** Backlog overflow policy: drop the oldest pending frame (live
     *  interactive streams) instead of rejecting the newest. */
    bool drop_oldest = false;
    /**
     * Admission deadline, milliseconds (0 = none). A frame still
     * PENDING this long after submission is expired instead of
     * rendered -- fail-fast beats serving a stale interactive pose.
     * Expired frames produce a FrameResult flagged `expired`
     * (FrameStatus::DeadlineExceeded on the wire); frames already
     * admitted always run to completion.
     */
    double deadline_ms = 0.0;
    /**
     * Demote-before-drop: extra pending slots past max_backlog that
     * are admitted at the quality-ladder floor (the cheapest rung)
     * instead of triggering the backlog policy. A would-be-dropped
     * frame is served degraded rather than never; only past
     * max_backlog + degraded_backlog does drop-oldest / reject-newest
     * fire. 0 disables the stretch (seed behavior).
     */
    int degraded_backlog = 0;
};

struct QosParams
{
    QosClassParams cls[kQosClasses];
    /**
     * Per-scene admission quota: at most this many frames of any one
     * scene in flight at once (0 = uncapped). A hot scene at its
     * quota is skipped over -- later frames of other scenes in the
     * same class queue admit ahead of it -- so one scene's burst
     * cannot monopolize the server's pipeline slots. Skipped frames keep
     * their order key, so the hot scene is served the moment a slot
     * frees.
     */
    int max_in_flight_per_scene = 0;

    QosParams()
    {
        cls[int(QosClass::Interactive)] = {0, 4, /*drop_oldest=*/true};
        cls[int(QosClass::Standard)] = {0, 8, false};
        cls[int(QosClass::Batch)] = {0, 16, false};
    }
};

} // namespace asdr::server

#endif // ASDR_SERVER_QOS_HPP
