#include "server/workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/client.hpp"
#include "nerf/camera.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace asdr::server {

namespace {

struct Viewer
{
    uint64_t id = 0;
    std::vector<nerf::Camera> path;
    std::atomic<int> issued{0}; ///< submissions made so far
    int total = 0;
};

/** The workload's camera path for one viewer: the scene's orbit,
 *  phase-shifted per viewer so concurrent viewers of one scene look
 *  at genuinely different poses (shared by both drive modes). */
std::vector<nerf::Camera>
viewerPath(const SceneEntry &entry, const WorkloadSpec &spec,
           int viewer_index)
{
    const int phase = viewer_index % 5;
    auto full = nerf::orbitCameraPath(entry.info, spec.width, spec.height,
                                      spec.frames_per_client + phase,
                                      spec.orbit_step);
    return {full.begin() + phase, full.end()};
}

/**
 * The same orbit as viewerPath, but as wire CameraSpecs: the
 * constructor parameters travel (pos/look_at/up/fov), so the service
 * rebuilds cameras bit-identical to the in-process path's.
 */
std::vector<net::CameraSpec>
wireViewerPath(const SceneEntry &entry, const WorkloadSpec &spec,
               int viewer_index)
{
    const int phase = viewer_index % 5;
    const scene::SceneInfo &info = entry.info;
    std::vector<net::CameraSpec> path;
    path.reserve(size_t(spec.frames_per_client));
    for (int f = phase; f < spec.frames_per_client + phase; ++f) {
        net::CameraSpec cs;
        cs.pos = nerf::orbitPosition(info, spec.orbit_step * float(f));
        cs.look_at = info.look_at;
        cs.up = Vec3(0.0f, 1.0f, 0.0f);
        cs.fov_deg = info.fov_deg;
        cs.width = uint16_t(spec.width);
        cs.height = uint16_t(spec.height);
        path.push_back(cs);
    }
    return path;
}

/** Fill the report's per-class degraded-fraction / mean-rung fields
 *  from the run's served_rung deltas (cumulative after minus before). */
void
fillLadderView(WorkloadReport &report, const ServerStatsSnapshot &before)
{
    for (int c = 0; c < kQosClasses; ++c) {
        uint64_t served = 0, degraded = 0, rung_sum = 0;
        for (int r = 0; r < kQualityRungs; ++r) {
            const uint64_t d = report.stats.cls[c].served_rung[r] -
                               before.cls[c].served_rung[r];
            served += d;
            rung_sum += d * uint64_t(r);
            if (r > 0)
                degraded += d;
        }
        if (served) {
            report.degraded_fraction[c] =
                double(degraded) / double(served);
            report.mean_rung[c] = double(rung_sum) / double(served);
        }
    }
}

/** Add one viewer's outcome counts into a class or scene record. */
template <typename Stats>
void
addOutcomes(Stats &into, const SceneServeStats &v)
{
    into.submitted += v.submitted;
    into.dropped += v.dropped;
    into.failed += v.failed;
    into.expired += v.expired;
    for (int r = 0; r < kQualityRungs; ++r) {
        into.served_rung[r] += v.served_rung[r];
        into.served += v.served_rung[r];
        if (r > 0)
            into.degraded += v.served_rung[r];
    }
}

} // namespace

WorkloadReport
runWorkload(FrameServer &server, const SceneRegistry &registry,
            const WorkloadSpec &spec)
{
    ASDR_ASSERT(!spec.scenes.empty(), "workload needs at least one scene");
    ASDR_ASSERT(spec.frames_per_client >= 1 && spec.burst >= 1,
                "degenerate workload");

    std::vector<std::unique_ptr<Viewer>> viewers;
    std::atomic<uint64_t> results{0};
    std::mutex latency_m;
    std::vector<double> latency_s[kQosClasses];

    // One viewer = one client session + one orbit path over its scene,
    // phase-shifted per viewer so concurrent viewers of one scene look
    // at genuinely different poses.
    int viewer_index = 0;
    for (int c = 0; c < kQosClasses; ++c) {
        for (int v = 0; v < spec.clients[c]; ++v, ++viewer_index) {
            const std::string &scene_name =
                spec.scenes[size_t(viewer_index) % spec.scenes.size()];
            const SceneEntry *entry = registry.find(scene_name);
            ASDR_ASSERT(entry != nullptr, "workload scene not registered: ",
                        scene_name);
            auto viewer = std::make_unique<Viewer>();
            viewer->path = viewerPath(*entry, spec, viewer_index);
            viewer->total = spec.frames_per_client;
            Viewer *vp = viewer.get();
            // Closed loop: every delivered result (served, dropped, or
            // failed) triggers the viewer's next submission until its
            // budget is spent. Dropped content is not re-submitted, so
            // the loop always terminates.
            auto on_result = [&server, &results, &latency_m, &latency_s,
                              vp](FrameResult &&r) {
                if (r.ok()) {
                    std::lock_guard<std::mutex> lock(latency_m);
                    latency_s[int(r.qos)].push_back(r.latency_s);
                }
                results.fetch_add(1, std::memory_order_relaxed);
                const int next =
                    vp->issued.fetch_add(1, std::memory_order_relaxed);
                if (next < vp->total)
                    server.submitFrame(vp->id, vp->path[size_t(next)]);
            };
            viewer->id = server.openSession(scene_name, QosClass(c), {},
                                            std::move(on_result));
            ASDR_ASSERT(viewer->id != 0, "openSession failed");
            viewers.push_back(std::move(viewer));
        }
    }

    const ServerStatsSnapshot before = server.stats();
    const auto t0 = std::chrono::steady_clock::now();

    // Prime each viewer's burst; completions keep the loop running.
    for (auto &v : viewers) {
        const int prime = std::min(spec.burst, v->total);
        v->issued.store(prime, std::memory_order_relaxed);
        for (int f = 0; f < prime; ++f)
            server.submitFrame(v->id, v->path[size_t(f)]);
    }
    server.waitIdle();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Free the sessions: their callbacks capture this stack frame, so
    // they must not outlive the run (instant at zero outstanding).
    for (auto &v : viewers)
        server.closeSession(v->id);

    WorkloadReport report;
    report.stats = server.stats();
    report.wall_s = wall;
    report.results = results.load();
    report.viewers = uint64_t(viewers.size());
    const uint64_t served_delta =
        report.stats.totalServed() - before.totalServed();
    report.frames_per_s = wall > 0.0 ? double(served_delta) / wall : 0.0;
    for (int c = 0; c < kQosClasses; ++c)
        report.latency_s[c] = std::move(latency_s[c]);
    fillLadderView(report, before);
    return report;
}

WorkloadReport
runWorkloadOverWire(const SceneRegistry &registry, const WorkloadSpec &spec,
                    const WireWorkloadOptions &wire)
{
    ASDR_ASSERT(!spec.scenes.empty(), "workload needs at least one scene");
    ASDR_ASSERT(spec.frames_per_client >= 1 && spec.burst >= 1,
                "degenerate workload");
    ASDR_ASSERT(wire.port != 0, "wire workload needs the service port");

    struct WireViewer
    {
        int qos = 0;
        std::string scene;
        std::vector<net::CameraSpec> path;
    };
    std::vector<WireViewer> viewers;
    int viewer_index = 0;
    for (int c = 0; c < kQosClasses; ++c)
        for (int v = 0; v < spec.clients[c]; ++v, ++viewer_index) {
            WireViewer wv;
            wv.qos = c;
            wv.scene = spec.scenes[size_t(viewer_index) % spec.scenes.size()];
            const SceneEntry *entry = registry.find(wv.scene);
            ASDR_ASSERT(entry != nullptr, "workload scene not registered: ",
                        wv.scene);
            wv.path = wireViewerPath(*entry, spec, viewer_index);
            viewers.push_back(std::move(wv));
        }

    // The report counts what the viewers themselves receive: each
    // result's status and rung, and the server-side latency it carries.
    std::mutex agg_m; // guards the tallies; the histograms are atomic
    ServerStatsSnapshot tally;
    std::map<std::string, SceneServeStats> scene_tally;
    metrics::Histogram server_latency[kQosClasses];
    std::atomic<uint64_t> results{0};
    net::ClientTransferStats transfer_total;
    std::atomic<bool> failed{false};
    std::string fail_reason;

    // One connection per viewer, each a blocking closed loop on its
    // own thread: submit `burst` frames, then one new submission per
    // delivered result -- the same traffic shape runWorkload drives
    // through the in-process callback path.
    auto drive = [&](const WireViewer &wv) {
        net::Client client;
        std::string err;
        if (!client.connectWithRetry(wire.host, wire.port, {}, &err)) {
            std::lock_guard<std::mutex> lock(agg_m);
            failed = true;
            fail_reason = "connect: " + err;
            return;
        }
        const uint64_t session = client.openSession(
            wv.scene, QosClass(wv.qos), wire.encoding, &err);
        if (session == 0) {
            std::lock_guard<std::mutex> lock(agg_m);
            failed = true;
            fail_reason = "openSession: " + err;
            return;
        }
        const int total = spec.frames_per_client;
        int issued = 0, received = 0;
        SceneServeStats mine;
        auto submitNext = [&]() -> bool {
            // Transient faults (timeout, peer closed, I/O error) are
            // retried through reconnect-and-resume; only fatal errors
            // (refusals, protocol corruption) abort the viewer.
            if (client.submitFrameRetry(session, wv.path[size_t(issued)],
                                        {}, &err) == 0)
                return false;
            ++issued;
            return true;
        };
        auto submitFailed = [&] {
            std::lock_guard<std::mutex> lock(agg_m);
            failed = true;
            fail_reason = "submitFrame: " + err;
        };
        const int prime = std::min(spec.burst, total);
        for (int f = 0; f < prime; ++f)
            if (!submitNext()) {
                submitFailed();
                return;
            }
        net::ClientFrame frame;
        while (received < issued) {
            if (!client.nextFrame(frame, &err)) {
                // A transient connection fault is recoverable when the
                // service keeps a resume grace window: parked results
                // replay after the resume, so the closed loop picks up
                // where it left off.
                if (net::isTransient(client.lastError()) &&
                    client.reconnect(&err))
                    continue;
                std::lock_guard<std::mutex> lock(agg_m);
                failed = true;
                fail_reason = "nextFrame: " + err;
                return;
            }
            ++received;
            results.fetch_add(1, std::memory_order_relaxed);
            switch (frame.status) {
            case net::FrameStatus::Ok:
            case net::FrameStatus::Shed: // served; only the payload shed
                mine.served_rung[int(frame.rung)]++;
                server_latency[wv.qos].record(frame.latency_ms * 1e-3);
                break;
            case net::FrameStatus::Dropped:
                mine.dropped++;
                break;
            case net::FrameStatus::Failed:
                mine.failed++;
                break;
            case net::FrameStatus::DeadlineExceeded:
                mine.expired++;
                break;
            }
            if (issued < total && !submitNext()) {
                submitFailed();
                return;
            }
        }
        client.closeSession(session, &err);
        mine.submitted = uint64_t(issued);
        std::lock_guard<std::mutex> lock(agg_m);
        addOutcomes(tally.cls[wv.qos], mine);
        SceneServeStats &sc = scene_tally[wv.scene];
        sc.name = wv.scene;
        addOutcomes(sc, mine);
        transfer_total.frames += client.transfer().frames;
        transfer_total.payload_bytes += client.transfer().payload_bytes;
        transfer_total.raw_bytes += client.transfer().raw_bytes;
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(viewers.size());
    for (const WireViewer &wv : viewers)
        threads.emplace_back(drive, std::cref(wv));
    for (auto &t : threads)
        t.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ASDR_ASSERT(!failed, "wire workload viewer failed: ", fail_reason);

    WorkloadReport report;
    report.over_wire = true;
    report.stats = std::move(tally);
    for (auto &entry : scene_tally)
        report.stats.scenes.push_back(std::move(entry.second));
    for (int c = 0; c < kQosClasses; ++c) {
        QosClassStats &s = report.stats.cls[c];
        const metrics::Histogram &h = server_latency[c];
        s.p50_ms = h.percentile(0.50) * 1e3;
        s.p95_ms = h.percentile(0.95) * 1e3;
        s.p99_ms = h.percentile(0.99) * 1e3;
        s.mean_ms = h.mean() * 1e3;
    }
    report.wall_s = wall;
    report.results = results.load();
    report.viewers = uint64_t(viewers.size());
    report.wire_frames = transfer_total.frames;
    report.wire_payload_bytes = transfer_total.payload_bytes;
    report.wire_raw_bytes = transfer_total.raw_bytes;
    report.frames_per_s =
        wall > 0.0 ? double(report.stats.totalServed()) / wall : 0.0;
    fillLadderView(report, ServerStatsSnapshot());
    return report;
}

} // namespace asdr::server
