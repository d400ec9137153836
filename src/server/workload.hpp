/**
 * @file
 * Closed-loop serving workload generator: N viewers orbiting M scenes
 * at mixed QoS, driven entirely through the FrameServer's async
 * callback path -- the canonical exerciser of the whole serving stack
 * (registry sharing, QoS admission, coalescing, async delivery), used by
 * examples/serve_many and bench_throughput's quality_ladder and
 * fault_recovery rows.
 *
 * Each viewer owns an orbit camera path over its scene and keeps up to
 * `burst` submissions outstanding: the initial burst goes in up front,
 * and every delivered result (served, dropped, or failed) triggers the
 * next submission from the viewer's completion callback until the
 * viewer has issued `frames_per_client` submissions total. Because a
 * viewer never re-submits dropped content, every run terminates, and
 * served + dropped + failed always equals submissions. A burst larger
 * than the class's backlog bound deliberately forces the drop path.
 */

#ifndef ASDR_SERVER_WORKLOAD_HPP
#define ASDR_SERVER_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame_codec.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"
#include "server/server_stats.hpp"

namespace asdr::server {

struct WorkloadSpec
{
    /** Registry scene names the viewers cycle over (round-robin). */
    std::vector<std::string> scenes;
    /** Viewers per QoS class (indexed by QosClass). */
    int clients[kQosClasses] = {2, 1, 1};
    /** Submissions each viewer makes over its orbit. */
    int frames_per_client = 6;
    /** Frame resolution of every viewer. */
    int width = 24, height = 24;
    /** Orbit step between a viewer's consecutive frames (radians). */
    float orbit_step = 0.08f;
    /** Outstanding submissions a viewer keeps in flight; above the
     *  class's backlog bound this exercises the drop policies. */
    int burst = 1;
};

struct WorkloadReport
{
    ServerStatsSnapshot stats;
    double wall_s = 0.0;
    uint64_t results = 0; ///< delivered results (served+dropped+failed)
    uint64_t viewers = 0;
    /** Served frames per wall second across all viewers. */
    double frames_per_s = 0.0;
    /** Every served result's latency_s, per class (runWorkload only):
     *  exact percentiles, where `stats` reads them off histogram
     *  buckets 8-10% apart. */
    std::vector<double> latency_s[kQosClasses];

    // Quality-ladder view of THIS run (in-process runs take
    // before/after snapshot deltas of the server's cumulative `stats`):
    /** Fraction of the run's served frames delivered below Full. */
    double degraded_fraction[kQosClasses] = {};
    /** Mean QualityRung value over the run's served frames. */
    double mean_rung[kQosClasses] = {};

    // ---- wire runs only (runWorkloadOverWire) ----
    bool over_wire = false;
    /** Ok-frame byte accounting summed over every viewer connection. */
    uint64_t wire_frames = 0;
    uint64_t wire_payload_bytes = 0; ///< encoded bytes on the wire
    uint64_t wire_raw_bytes = 0;     ///< raw-float cost of those frames
};

/**
 * Run the workload to completion against `server` (which must serve a
 * registry containing every `spec.scenes` entry) and report the
 * server's stats over the run. Resets nothing: the server's stats
 * accumulate, so the report snapshots before/after deltas are the
 * caller's concern (a fresh server gives clean numbers).
 */
WorkloadReport runWorkload(FrameServer &server, const SceneRegistry &registry,
                           const WorkloadSpec &spec);

/** Connection parameters of the over-the-wire workload mode. */
struct WireWorkloadOptions
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    net::FrameEncoding encoding = net::FrameEncoding::Raw;
};

/**
 * The same closed-loop workload driven through net::Client connections
 * (one per viewer, each on its own thread) against a RenderService at
 * host:port -- identical traffic shape to runWorkload, plus the wire:
 * framing, encode/decode, and socket scheduling. `registry` is only
 * consulted for camera framing (the scenes must also be registered in
 * the server behind the service). The report adds the viewers' Ok-frame
 * byte totals. Its `stats` counts this run's own results, per class
 * and per scene: each result's status and rung, and the server latency
 * it carries (a Shed result counts as served). Admission counts, queue
 * wait and breaker state are not visible to a client and stay zero.
 */
WorkloadReport runWorkloadOverWire(const SceneRegistry &registry,
                                   const WorkloadSpec &spec,
                                   const WireWorkloadOptions &wire);

} // namespace asdr::server

#endif // ASDR_SERVER_WORKLOAD_HPP
