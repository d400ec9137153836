/**
 * @file
 * servebench: runs one named serving workload against the real stack
 * -- FrameServer + RenderService over loopback, driven by a net::Client
 * load generator on one thread of this process -- checks the delivered
 * frames, and prints the metrics as the last line of stdout:
 *
 *   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--trace-out <path>] [--source-id <id>]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 repeats the
 * workload with a timing decorator on every field and spans around the
 * benchmark's calls, replays the timed poses through the lower layers'
 * public APIs, and prints the per-layer metrics. Every number is timed
 * or counted here, around calls into the library; nothing is read from
 * util/telemetry, ServerStats or the wire stats messages.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ground_truth.hpp"
#include "core/renderer.hpp"
#include "engine/frame_engine.hpp"
#include "harness.hpp"
#include "image/metrics.hpp"
#include "net/client.hpp"
#include "net/frame_codec.hpp"
#include "net/render_service.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "nerf/trainer.hpp"
#include "scene/scene_library.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"

using namespace servebench;
namespace core = asdr::core;
namespace net = asdr::net;
namespace nerf = asdr::nerf;
namespace srv = asdr::server;
using asdr::Image;

namespace {

/** Knobs that change what the library does behind the benchmark's back
 *  (thread counts, ray order, caches, faults, tracing, presets). */
const char *const kForbiddenEnv[] = {
    "ASDR_NUM_THREADS", "ASDR_MORTON",     "ASDR_SAMPLE_CACHE",
    "ASDR_FAULTS",      "ASDR_FAULT_SEED", "ASDR_TRACE_OUT",
    "ASDR_FAST",
};

/** Delivered frames kept per traced run for the codec replay. */
constexpr int kCodecFrames = 1200;
/** Bounds every blocking client read, so a hung service fails the run
 *  well inside its time limit instead of stalling it. */
constexpr double kRecvTimeoutS = 20.0;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    std::string source_id = "unknown";
};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

/** Fail the run: no result line, non-zero exit, now -- without
 *  running destructors that would wait on a wedged serving stack. */
[[noreturn]] void
die(const std::string &why)
{
    std::cerr << "servebench: " << why << std::endl;
    std::cout.flush();
    std::_Exit(1);
}

core::RenderConfig
renderConfig(const Workload &w)
{
    core::RenderConfig cfg = core::RenderConfig::asdr(w.width, w.height, w.spp);
    cfg.num_threads = kWorkers;
    return cfg;
}

srv::ServerConfig
serverConfig(const Workload &)
{
    srv::ServerConfig cfg;
    cfg.shards = 1;
    cfg.threads_per_shard = kWorkers;
    cfg.frames_in_flight_per_shard = kSlots;
    return cfg;
}

// ------------------------------------------------------------- the stack

/** The workload's analytic scenes and the fields served for them. */
struct SceneSet
{
    std::vector<std::unique_ptr<asdr::scene::AnalyticScene>> scenes;
    std::vector<std::unique_ptr<nerf::RadianceField>> fields;
    /** Timing decorators over `fields` (traced passes only). */
    std::vector<std::unique_ptr<TimingField>> timing;

    const nerf::RadianceField &served(size_t s) const
    {
        return timing.empty() ? *fields[s] : *timing[s];
    }
};

/** Build (procedural) or fit (NGP, in-process, fixed seed and steps)
 *  one field per scene. Never touches a disk cache. */
std::unique_ptr<SceneSet>
buildScenes(const Workload &w)
{
    auto ss = std::make_unique<SceneSet>();
    for (const std::string &name : w.scenes) {
        auto scene = asdr::scene::createScene(name);
        if (w.ngp) {
            auto field = std::make_unique<nerf::InstantNgpField>(
                nerf::NgpModelConfig::fast(), kFieldSeed);
            nerf::TrainConfig tc;
            tc.steps = kFitSteps;
            tc.seed = kFitSeed;
            nerf::fitField(*field, *scene, tc);
            ss->fields.push_back(std::move(field));
        } else {
            ss->fields.push_back(std::make_unique<nerf::ProceduralField>(
                *scene, nerf::NgpModelConfig::fast()));
        }
        ss->scenes.push_back(std::move(scene));
    }
    return ss;
}

/** Registry + server + wire service + connected client with one open
 *  session per viewer. Torn down in dependency order. */
struct Serving
{
    std::unique_ptr<srv::SceneRegistry> registry;
    std::unique_ptr<srv::FrameServer> server;
    std::unique_ptr<net::RenderService> service;
    net::Client client;
    std::vector<uint64_t> sessions;

    Serving() = default;
    Serving(const Serving &) = delete;
    Serving &operator=(const Serving &) = delete;
    ~Serving()
    {
        client.disconnect();
        if (service)
            service->stop();
        service.reset();
        server.reset();
        registry.reset();
    }
};

std::unique_ptr<Serving>
startServing(const Workload &w, const SceneSet &ss,
             const std::vector<ViewerPlan> &plan, std::string &err)
{
    auto sv = std::make_unique<Serving>();
    sv->registry = std::make_unique<srv::SceneRegistry>();
    for (size_t s = 0; s < w.scenes.size(); ++s)
        if (!sv->registry->addShared(w.scenes[s], ss.served(s),
                                     renderConfig(w),
                                     ss.scenes[s]->info())) {
            err = "scene registration failed: " + w.scenes[s];
            return nullptr;
        }
    sv->server = std::make_unique<srv::FrameServer>(*sv->registry,
                                                    serverConfig(w));
    sv->service = std::make_unique<net::RenderService>(*sv->server);
    if (!sv->service->start(&err))
        return nullptr;
    if (!sv->client.connect("127.0.0.1", sv->service->port(), &err,
                            kRecvTimeoutS))
        return nullptr;
    for (const ViewerPlan &vp : plan) {
        const uint64_t id =
            sv->client.openSession(vp.scene, w.qos, w.encoding, &err);
        if (id == 0)
            return nullptr;
        sv->sessions.push_back(id);
    }
    return sv;
}

// ---------------------------------------------------- the load generator

/** One request of a pass and what came back for it. */
struct Request
{
    int viewer = 0;
    int index = 0;
    uint64_t ticket = 0;
    Clock::time_point submit, ack, recv;
    bool received = false;
    net::FrameStatus status = net::FrameStatus::Ok;
    size_t payload_bytes = 0;
    double server_ms = 0.0; ///< ClientFrame::latency_ms
    bool ok() const { return received && status == net::FrameStatus::Ok; }
};

using FrameKey = std::pair<int, int>; ///< (viewer, pose index)

struct Pass
{
    std::vector<Request> reqs; ///< submission order
    Interval window;           ///< first submit to last result
    size_t unknown = 0;   ///< results for tickets never submitted
    size_t duplicate = 0; ///< second results for one ticket
    /** Decoded Ok frames kept for the checks and replays. */
    std::map<FrameKey, Image> kept;

    size_t okCount() const
    {
        size_t n = 0;
        for (const Request &r : reqs)
            n += r.ok();
        return n;
    }
    /** Process CPU ms per Ok frame over the window. */
    double cpuMsPerFrame() const
    {
        return window.cpuS() * 1e3 / double(std::max<size_t>(1, okCount()));
    }
};

/**
 * Closed loop over one connection: each viewer has one frame
 * outstanding and submits its next pose when the previous result
 * arrives. Shared-path workloads go in lockstep rounds instead: pose r
 * for every viewer, then wait for all of them. False on a transport
 * failure (the run is void).
 */
bool
drive(Serving &sv, const Workload &w, const std::vector<ViewerPlan> &plan,
      bool timed, const std::function<bool(FrameKey)> &keep, SpanLog *spans,
      Pass &pass, std::string &err)
{
    const int V = int(plan.size());
    auto poses = [&](int v) -> const std::vector<net::CameraSpec> & {
        return timed ? plan[size_t(v)].timed : plan[size_t(v)].warmup;
    };
    size_t total = 0;
    for (int v = 0; v < V; ++v)
        total += poses(v).size();
    pass.reqs.reserve(total);
    std::unordered_map<uint64_t, size_t> by_ticket;
    std::vector<int> next(size_t(V), 0);

    auto submit = [&](int v) -> bool {
        Request r;
        r.viewer = v;
        r.index = next[size_t(v)]++;
        r.submit = Clock::now();
        r.ticket = sv.client.submitFrame(sv.sessions[size_t(v)],
                                         poses(v)[size_t(r.index)], &err);
        r.ack = Clock::now();
        if (spans)
            spans->record("client.submitFrame", r.ticket, r.submit, r.ack);
        if (r.ticket == 0)
            return false;
        by_ticket.emplace(r.ticket, pass.reqs.size());
        pass.reqs.push_back(r);
        return true;
    };
    // The viewer whose request completed; -1 on transport failure, -2
    // for a result matching no outstanding request (counted).
    auto receive = [&]() -> int {
        net::ClientFrame f;
        const auto t0 = Clock::now();
        if (!sv.client.nextFrame(f, &err))
            return -1;
        const auto t1 = Clock::now();
        if (spans)
            spans->record("client.nextFrame", f.ticket, t0, t1);
        auto it = by_ticket.find(f.ticket);
        if (it == by_ticket.end()) {
            ++pass.unknown;
            return -2;
        }
        Request &r = pass.reqs[it->second];
        if (r.received) {
            ++pass.duplicate;
            return -2;
        }
        r.received = true;
        r.recv = t1;
        r.status = f.status;
        r.payload_bytes = f.payload_bytes;
        r.server_ms = f.latency_ms;
        if (f.ok() && keep && keep({r.viewer, r.index}))
            pass.kept.emplace(FrameKey{r.viewer, r.index}, std::move(f.image));
        return r.viewer;
    };

    pass.window.start();
    if (w.shared_path) {
        const int rounds = int(poses(0).size());
        for (int r = 0; r < rounds; ++r) {
            for (int v = 0; v < V; ++v)
                if (!submit(v))
                    return false;
            for (int outstanding = V; outstanding > 0;) {
                const int got = receive();
                if (got == -1)
                    return false;
                if (got >= 0)
                    --outstanding;
            }
        }
    } else {
        int outstanding = 0;
        for (int v = 0; v < V; ++v, ++outstanding)
            if (!submit(v))
                return false;
        while (outstanding > 0) {
            const int got = receive();
            if (got == -1)
                return false;
            if (got < 0)
                continue;
            --outstanding;
            if (next[size_t(got)] < int(poses(got).size())) {
                if (!submit(got))
                    return false;
                ++outstanding;
            }
        }
    }
    pass.window.stop();
    return true;
}

// --------------------------------------------------------------- checks

/** Timed requests whose frames the gate renders again in-process:
 *  spread over viewers and over the timed list. */
std::vector<FrameKey>
checkPoses(const Workload &w, const std::vector<ViewerPlan> &plan)
{
    std::vector<FrameKey> out;
    const int V = int(plan.size());
    const int C = w.check_poses;
    for (int i = 0; i < C; ++i) {
        const int v = i % V;
        const int n = int(plan[size_t(v)].timed.size());
        out.push_back({v, int((2LL * i + 1) * n / (2LL * C))});
    }
    return out;
}

struct GateResult
{
    bool ok = false;
    std::string why;
    double psnr_db = 0.0;
    std::vector<Image> truth; ///< ground truth per check pose
};

/**
 * The correctness gate of every run: each submitted ticket got exactly
 * one result, and each check pose's delivered frame equals an
 * in-process AsdrRenderer::render() of the same field, config and
 * camera bit for bit. psnr_db is the mean PSNR of those frames against
 * core::renderGroundTruth.
 */
GateResult
gate(const Workload &w, const SceneSet &ss,
     const std::vector<ViewerPlan> &plan, const Pass &pass,
     const std::vector<FrameKey> &checks)
{
    GateResult g;
    if (pass.unknown || pass.duplicate) {
        g.why = "results without a matching ticket: " +
                std::to_string(pass.unknown) + " unknown, " +
                std::to_string(pass.duplicate) + " duplicate";
        return g;
    }
    for (const Request &r : pass.reqs)
        if (!r.received) {
            g.why = "ticket " + std::to_string(r.ticket) + " got no result";
            return g;
        }
    std::vector<std::unique_ptr<core::AsdrRenderer>> renderers;
    for (size_t s = 0; s < w.scenes.size(); ++s)
        renderers.push_back(std::make_unique<core::AsdrRenderer>(
            *ss.fields[s], renderConfig(w)));
    double psnr_sum = 0.0;
    for (const FrameKey &c : checks) {
        const size_t s = size_t(c.first) % w.scenes.size();
        const auto it = pass.kept.find(c);
        if (it == pass.kept.end()) {
            g.why = "check pose was not delivered Ok";
            return g;
        }
        const nerf::Camera cam =
            plan[size_t(c.first)].timed[size_t(c.second)].toCamera();
        if (!sameBits(it->second, renderers[s]->render(cam))) {
            g.why = "delivered frame differs from render() (viewer " +
                    std::to_string(c.first) + ", pose " +
                    std::to_string(c.second) + ")";
            return g;
        }
        g.truth.push_back(core::renderGroundTruth(*ss.scenes[s], cam));
        psnr_sum += asdr::psnr(it->second, g.truth.back());
    }
    g.psnr_db = psnr_sum / double(checks.size());
    g.ok = true;
    return g;
}

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

size_t
failedCount(const Pass &p)
{
    return p.reqs.size() - p.okCount();
}

/** Client-observed submit -> decoded-frame latency of every Ok frame. */
std::vector<double>
latenciesMs(const Pass &p)
{
    std::vector<double> out;
    for (const Request &r : p.reqs)
        if (r.ok())
            out.push_back(msBetween(r.submit, r.recv));
    return out;
}

/** The timing metrics of a timed pass, as measured on the wall clock
 *  and net of the machine's steal (see Interval). */
struct Timings
{
    double wall_fps = 0.0, wall_p50_ms = 0.0, wall_p95_ms = 0.0;
    double fps = 0.0, p50_ms = 0.0, p95_ms = 0.0;
};

Timings
timings(const Pass &p)
{
    const std::vector<double> lat = latenciesMs(p);
    Timings t;
    if (!percentile(lat, 0.50, t.wall_p50_ms) ||
        !percentile(lat, 0.95, t.wall_p95_ms))
        die("too few timed frames for p95 (" + std::to_string(lat.size()) +
            ")");
    const double own = 1.0 - p.window.stolen();
    t.wall_fps = double(p.okCount()) / p.window.wallS();
    t.fps = double(p.okCount()) / p.window.ownS();
    t.p50_ms = t.wall_p50_ms * own;
    t.p95_ms = t.wall_p95_ms * own;
    return t;
}

/** What ran, on what, and how much of the machine it had: enough to
 *  tell a noisy run from a slow commit. */
void
printRunRecord(const Args &a, const Workload &w, const Pass &timed,
               size_t timed_per_viewer)
{
    const Timings t = timings(timed);
    std::ostringstream os;
    os.precision(6);
    os << "run_record {\"workload\": \"" << w.name << "\", \"seed\": "
       << a.seed << ", \"trace\": " << (a.trace ? 1 : 0)
       << ", \"source\": \"" << a.source_id << "\", \"nproc\": "
       << sysconf(_SC_NPROCESSORS_ONLN) << ", \"workers\": " << kWorkers
       << ", \"slots\": " << kSlots
       << ", \"generator_threads\": 1, \"viewers\": " << w.viewers
       << ", \"timed_frames\": " << timed.reqs.size()
       << ", \"timed_per_viewer\": " << timed_per_viewer
       << ", \"window_s\": " << timed.window.wallS()
       << ", \"steal_frac\": " << timed.window.stolen()
       << ", \"wall_frames_per_s\": " << t.wall_fps
       << ", \"wall_latency_p50_ms\": " << t.wall_p50_ms
       << ", \"wall_latency_p95_ms\": " << t.wall_p95_ms << "}";
    std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------- the runs

/** The fields and the serving stack that renders them. */
struct Setup
{
    std::unique_ptr<SceneSet> scenes;
    std::unique_ptr<Serving> serving; ///< renders `scenes`' fields

    Setup() = default;
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;
    ~Setup() { tearDown(); }

    void tearDown()
    {
        serving.reset();
        scenes.reset();
    }
};

/** Workload start -> every session open, into an empty Setup. */
void
setUp(Setup &st, const Workload &w, const std::vector<ViewerPlan> &plan)
{
    st.scenes = buildScenes(w);
    std::string err;
    st.serving = startServing(w, *st.scenes, plan, err);
    if (!st.serving)
        die("set-up failed: " + err);
}

void
warmUp(Serving &sv, const Workload &w, const std::vector<ViewerPlan> &plan)
{
    Pass warm;
    std::string err;
    if (!drive(sv, w, plan, /*timed=*/false, nullptr, nullptr, warm, err))
        die("warm-up failed: " + err);
}

int
runUntraced(const Args &a, const Workload &w,
            const std::vector<ViewerPlan> &plan, size_t per_viewer)
{
    // Set up several times from nothing: fields fitted, server, service
    // and connection started, sessions open, and the warm-up traffic
    // served -- lazy initialisation and cold caches are set-up cost, so
    // work moved out of the timed window shows here. setup_s is the
    // median, each set-up net of steal; the last set-up serves the
    // timed window.
    std::vector<double> setup_s, setup_wall_s;
    Setup st;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        st.tearDown();
        Interval iv;
        iv.start();
        setUp(st, w, plan);
        warmUp(*st.serving, w, plan);
        iv.stop();
        setup_s.push_back(iv.ownS());
        setup_wall_s.push_back(iv.wallS());
    }
    std::cerr << "servebench: set up " << kSetupReps << "x, median "
              << median(setup_s) << " s net of steal, " << median(setup_wall_s)
              << " s wall\n";

    const std::vector<FrameKey> checks = checkPoses(w, plan);
    auto keep = [&checks](FrameKey k) {
        return std::find(checks.begin(), checks.end(), k) != checks.end();
    };
    Pass timed;
    std::string err;
    if (!drive(*st.serving, w, plan, true, keep, nullptr, timed, err))
        die("timed window failed: " + err);
    st.serving.reset();

    printRunRecord(a, w, timed, per_viewer);
    const GateResult g = gate(w, *st.scenes, plan, timed, checks);
    if (!g.ok) {
        std::cerr << "servebench: correctness gate failed: " << g.why << "\n";
        printResult(false, timed.reqs.size(), failedCount(timed), {});
        return 1;
    }

    const Timings t = timings(timed);
    const double ok = double(timed.okCount());
    size_t bytes = 0;
    for (const Request &r : timed.reqs)
        if (r.ok())
            bytes += r.payload_bytes;

    std::vector<Metric> m = {
        {"frames_per_s", t.fps, "1/s"},
        {"latency_p50_ms", t.p50_ms, "ms"},
        {"latency_p95_ms", t.p95_ms, "ms"},
        {"cpu_ms_per_frame", timed.cpuMsPerFrame(), "ms"},
        {"psnr_db", g.psnr_db, "dB"},
        {"wire_bytes_per_frame", double(bytes) / std::max(1.0, ok), "bytes"},
        {"ok_frac", ok / double(timed.reqs.size()), "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    printResult(true, timed.reqs.size(), failedCount(timed), m);
    return 0;
}

/** Per-stage times of one frame replayed serially on this thread. */
struct StageTimes
{
    double phase1_s = 0.0, phase2_s = 0.0, other_s = 0.0;
    double field_s = 0.0; ///< decorator busy time inside the stages
    double total() const { return phase1_s + phase2_s + other_s; }
};

StageTimes
replayStages(const core::AsdrRenderer &r, const TimingField &field,
             const nerf::Camera &cam, uint64_t id, SpanLog &spans,
             Image &img, double &spp)
{
    StageTimes st;
    core::FrameState fs(cam);
    fs.shape = r.frameShape(cam.width(), cam.height());
    const TimingField::Counts before = field.thisThread();
    auto timed = [&](const char *name, double &acc, auto &&fn) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        acc += secondsBetween(t0, t1);
        spans.record(name, id, t0, t1);
    };
    timed("core.beginFrame", st.other_s, [&] { r.beginFrame(fs); });
    if (fs.shape.adaptive)
        for (int gy = 0; gy < fs.shape.gh; ++gy)
            timed("core.probeRow", st.phase1_s, [&] { r.probeRow(fs, gy); });
    timed("core.planBudgets", st.other_s, [&] { r.planBudgets(fs); });
    for (int j = 0; j < fs.shape.jobs; ++j)
        timed("core.phase2Job", st.phase2_s, [&] { r.phase2Job(fs, j); });
    core::RenderStats stats;
    timed("core.finalizeFrame", st.other_s,
          [&] { r.finalizeFrame(fs, &stats); });
    const TimingField::Counts d = field.thisThread() - before;
    st.field_s = double(d.density_ns + d.color_ns) * 1e-9;
    spp = stats.avg_actual_points_per_pixel;
    img = std::move(fs.img);
    return st;
}

/**
 * The workload's sessions and (a prefix of) its timed poses replayed
 * in-process through FrameServer::openSession with a callback, closed
 * loop as on the wire. Returns per-frame queue wait (engine admission
 * minus the benchmark's submit time) and pipeline residency, in ms.
 */
void
replayServer(const Workload &w, const SceneSet &ss,
             const std::vector<ViewerPlan> &plan, size_t prefix,
             SpanLog &spans, std::vector<double> &queue_ms,
             std::vector<double> &residency_ms, size_t &failed)
{
    struct Viewer
    {
        uint64_t id = 0;
        size_t next = 0;
        Clock::time_point submitted;
        std::vector<nerf::Camera> poses;
    };
    const int V = int(plan.size());
    std::vector<Viewer> viewers(static_cast<size_t>(V));
    struct Sample
    {
        Clock::time_point submit, started, finished;
        uint64_t ticket;
        bool ok;
    };
    std::mutex m; // guards samples, round_left
    std::vector<Sample> samples;
    int round_left = V;

    // Declared after the state its callbacks touch, so it is destroyed
    // (every frame delivered) before that state.
    srv::SceneRegistry registry;
    for (size_t s = 0; s < w.scenes.size(); ++s)
        registry.addShared(w.scenes[s], ss.served(s), renderConfig(w),
                           ss.scenes[s]->info());
    srv::FrameServer server(registry, serverConfig(w));

    auto submitNext = [&server](Viewer &vw) {
        vw.submitted = Clock::now();
        server.submitFrame(vw.id, vw.poses[vw.next++]);
    };
    for (int v = 0; v < V; ++v) {
        Viewer &vw = viewers[size_t(v)];
        for (size_t i = 0; i < prefix; ++i)
            vw.poses.push_back(plan[size_t(v)].timed[i].toCamera());
        auto cb = [&, v](srv::FrameResult &&r) {
            Viewer &me = viewers[size_t(v)];
            std::vector<Viewer *> to_submit;
            {
                std::lock_guard<std::mutex> lock(m);
                samples.push_back({me.submitted, r.frame.started_at,
                                   r.frame.finished_at, r.ticket, r.ok()});
                if (!w.shared_path) {
                    if (me.next < me.poses.size())
                        to_submit.push_back(&me);
                } else if (--round_left == 0 && me.next < me.poses.size()) {
                    round_left = V;
                    for (Viewer &o : viewers)
                        to_submit.push_back(&o);
                }
            }
            for (Viewer *o : to_submit)
                submitNext(*o);
        };
        vw.id = server.openSession(plan[size_t(v)].scene, w.qos, {}, cb);
    }
    for (Viewer &vw : viewers)
        submitNext(vw);
    server.waitIdle();
    for (Viewer &vw : viewers)
        server.closeSession(vw.id);

    failed = 0;
    for (const Sample &s : samples) {
        if (!s.ok) {
            ++failed;
            continue;
        }
        queue_ms.push_back(msBetween(s.submit, s.started));
        residency_ms.push_back(msBetween(s.started, s.finished));
        spans.record("server.queue", s.ticket, s.submit, s.started, 1);
        spans.record("engine.residency", s.ticket, s.started, s.finished, 1);
    }
}

int
runTraced(const Args &a, const Workload &w,
          const std::vector<ViewerPlan> &plan, size_t per_viewer)
{
    SpanLog spans;
    Setup st;
    setUp(st, w, plan);
    std::string err;

    // Untraced reference pass: the denominator of trace.overhead.
    warmUp(*st.serving, w, plan);
    Pass plain;
    if (!drive(*st.serving, w, plan, true, nullptr, nullptr, plain, err))
        die("untraced pass failed: " + err);
    st.serving.reset();

    // Traced pass: decorators replace the registered fields, spans
    // around every client call.
    for (const auto &f : st.scenes->fields)
        st.scenes->timing.push_back(std::make_unique<TimingField>(*f));
    const SceneSet &ss = *st.scenes;
    st.serving = startServing(w, ss, plan, err);
    if (!st.serving)
        die("traced set-up failed: " + err);
    warmUp(*st.serving, w, plan);

    const std::vector<FrameKey> checks = checkPoses(w, plan);
    const int codec_frames =
        std::min<int>(int(per_viewer), std::max(2, kCodecFrames / w.viewers));
    auto keep = [&checks, codec_frames](FrameKey k) {
        return k.second < codec_frames ||
               std::find(checks.begin(), checks.end(), k) != checks.end();
    };
    auto countAll = [&ss] {
        TimingField::Counts c;
        for (const auto &t : ss.timing)
            c += t->total();
        return c;
    };
    const TimingField::Counts c0 = countAll();
    Pass timed;
    if (!drive(*st.serving, w, plan, true, keep, &spans, timed, err))
        die("traced pass failed: " + err);
    st.serving.reset(); // every worker idle: the counts are exact
    const TimingField::Counts field = countAll() - c0;

    printRunRecord(a, w, timed, per_viewer);
    GateResult g = gate(w, ss, plan, timed, checks);
    if (!g.ok) {
        std::cerr << "servebench: correctness gate failed: " << g.why << "\n";
        printResult(false, timed.reqs.size(), failedCount(timed), {});
        return 1;
    }

    // core: serial stage replay of the check poses on this thread.
    const core::RenderConfig cfg = renderConfig(w);
    std::vector<std::unique_ptr<core::AsdrRenderer>> traced_r;
    for (size_t s = 0; s < w.scenes.size(); ++s)
        traced_r.push_back(
            std::make_unique<core::AsdrRenderer>(*ss.timing[s], cfg));
    {
        Image warm;
        double spp_unused = 0.0;
        replayStages(*traced_r[0], *ss.timing[0],
                     plan[0].warmup[0].toCamera(), 0, spans, warm,
                     spp_unused);
    }
    StageTimes stages;
    double spp_sum = 0.0;
    for (size_t i = 0; i < checks.size(); ++i) {
        const FrameKey &c = checks[i];
        const size_t s = size_t(c.first) % w.scenes.size();
        Image img;
        double spp = 0.0;
        const StageTimes t = replayStages(
            *traced_r[s], *ss.timing[s],
            plan[size_t(c.first)].timed[size_t(c.second)].toCamera(), i,
            spans, img, spp);
        if (!sameBits(img, timed.kept.at(c)))
            die("stage replay differs from the delivered frame");
        stages.phase1_s += t.phase1_s;
        stages.phase2_s += t.phase2_s;
        stages.other_s += t.other_s;
        stages.field_s += t.field_s;
        spp_sum += spp;
    }

    // engine: the same frames, one at a time, through FrameEngine.
    double engine_s = 0.0;
    {
        asdr::engine::EngineConfig ec;
        ec.num_threads = kWorkers;
        ec.max_frames_in_flight = 1;
        asdr::engine::FrameEngine eng(ec);
        auto one = [&](size_t s, const nerf::Camera &cam, uint64_t id) {
            asdr::engine::FrameRequest req(cam);
            req.renderer = traced_r[s].get();
            const auto t0 = Clock::now();
            asdr::engine::Frame f = eng.submit(std::move(req)).get();
            const auto t1 = Clock::now();
            spans.record("engine.submit", id, t0, t1);
            return std::make_pair(secondsBetween(t0, t1), std::move(f.image));
        };
        one(0, plan[0].warmup[0].toCamera(), 0);
        for (size_t i = 0; i < checks.size(); ++i) {
            const FrameKey &c = checks[i];
            const size_t s = size_t(c.first) % w.scenes.size();
            auto r = one(s,
                         plan[size_t(c.first)].timed[size_t(c.second)]
                             .toCamera(),
                         i);
            if (!sameBits(r.second, timed.kept.at(c)))
                die("engine replay differs from the delivered frame");
            engine_s += r.first;
        }
    }

    // server: sessions and poses replayed in-process.
    std::vector<double> queue_ms, residency_ms;
    size_t replay_failed = 0;
    const size_t prefix = std::min(
        per_viewer,
        std::max<size_t>(per_viewer / 4, (21 + plan.size() - 1) / plan.size()));
    replayServer(w, ss, plan, prefix, spans, queue_ms, residency_ms,
                 replay_failed);
    if (replay_failed)
        die("in-process server replay had failed frames");

    // net: the codec replayed over the delivered sequence of each viewer.
    double enc_s = 0.0, dec_s = 0.0;
    size_t payload = 0, raw = 0, coded = 0;
    for (int v = 0; v < w.viewers; ++v)
        for (int i = 1; i < codec_frames; ++i) {
            const auto cur = timed.kept.find({v, i});
            const auto prev = timed.kept.find({v, i - 1});
            if (cur == timed.kept.end() || prev == timed.kept.end())
                continue;
            const Image &ref = prev->second;
            const auto t0 = Clock::now();
            const std::vector<uint8_t> bytes =
                net::encodeFramePayload(cur->second, w.encoding, &ref);
            const auto t1 = Clock::now();
            Image out;
            std::string derr;
            const bool decoded = net::decodeFramePayload(
                bytes.data(), bytes.size(), w.encoding, w.width, w.height,
                &ref, out, &derr);
            const auto t2 = Clock::now();
            if (!decoded || !sameBits(out, cur->second))
                die("codec replay is not lossless: " + derr);
            spans.record("net.encodeFramePayload", uint64_t(i), t0, t1);
            spans.record("net.decodeFramePayload", uint64_t(i), t1, t2);
            enc_s += secondsBetween(t0, t1);
            dec_s += secondsBetween(t1, t2);
            payload += bytes.size();
            raw += net::rawFrameBytes(w.width, w.height);
            ++coded;
        }

    // core.psnr_loss_db: a baseline (non-adaptive) render at the same
    // samples per ray against the same ground truth.
    double base_psnr = 0.0;
    for (size_t i = 0; i < checks.size(); ++i) {
        const FrameKey &c = checks[i];
        const size_t s = size_t(c.first) % w.scenes.size();
        core::RenderConfig bc =
            core::RenderConfig::baseline(w.width, w.height, w.spp);
        bc.num_threads = kWorkers;
        core::AsdrRenderer base(*ss.fields[s], bc);
        base_psnr += asdr::psnr(
            base.render(
                plan[size_t(c.first)].timed[size_t(c.second)].toCamera()),
            g.truth[i]);
    }
    base_psnr /= double(checks.size());

    // Timed-pass per-frame views (server latency, net overhead, ack).
    std::vector<double> server_ms, overhead_ms, ack_ms;
    for (const Request &r : timed.reqs) {
        ack_ms.push_back(msBetween(r.submit, r.ack));
        if (!r.ok())
            continue;
        server_ms.push_back(r.server_ms);
        overhead_ms.push_back(msBetween(r.submit, r.recv) - r.server_ms);
    }
    double server_p50 = 0.0, overhead_p50 = 0.0, ack_p50 = 0.0;
    double queue_p50 = 0.0, residency_p50 = 0.0;
    if (!percentile(server_ms, 0.5, server_p50) ||
        !percentile(overhead_ms, 0.5, overhead_p50) ||
        !percentile(ack_ms, 0.5, ack_p50) ||
        !percentile(queue_ms, 0.5, queue_p50) ||
        !percentile(residency_ms, 0.5, residency_p50))
        die("too few frames for a traced median");

    const double n_ok = double(std::max<size_t>(1, timed.okCount()));
    const double n_chk = double(checks.size());
    auto per = [](uint64_t a_, uint64_t b_) {
        return b_ ? double(a_) / double(b_) : 0.0;
    };
    std::vector<Metric> m = {
        {"nerf.density_ns_per_point",
         per(field.density_ns, field.density_points), "ns"},
        {"nerf.color_ns_per_point", per(field.color_ns, field.color_points),
         "ns"},
        {"nerf.density_batch_points",
         per(field.density_points, field.density_calls), "count"},
        {"nerf.color_batch_points", per(field.color_points, field.color_calls),
         "count"},
        {"nerf.density_points_per_frame", double(field.density_points) / n_ok,
         "count"},
        {"nerf.color_points_per_frame", double(field.color_points) / n_ok,
         "count"},
        {"nerf.cpu_share",
         double(field.density_ns + field.color_ns) * 1e-9 / timed.window.cpuS(),
         "ratio"},
        {"core.samples_per_pixel", spp_sum / n_chk, "count"},
        {"core.phase1_ms_per_frame", stages.phase1_s * 1e3 / n_chk, "ms"},
        {"core.phase2_ms_per_frame", stages.phase2_s * 1e3 / n_chk, "ms"},
        {"core.other_ms_per_frame", stages.other_s * 1e3 / n_chk, "ms"},
        {"core.self_ms_per_frame",
         (stages.total() - stages.field_s) * 1e3 / n_chk, "ms"},
        {"core.psnr_loss_db", base_psnr - g.psnr_db, "dB"},
        {"engine.speedup", stages.total() / engine_s, "ratio"},
        {"engine.residency_ms_p50", residency_p50, "ms"},
        {"server.queue_ms_p50", queue_p50, "ms"},
        {"server.latency_ms_p50", server_p50, "ms"},
        {"net.overhead_ms_p50", overhead_p50, "ms"},
        {"net.submit_ack_ms_p50", ack_p50, "ms"},
        {"net.encode_us_per_frame", enc_s * 1e6 / double(std::max<size_t>(1, coded)),
         "us"},
        {"net.decode_us_per_frame", dec_s * 1e6 / double(std::max<size_t>(1, coded)),
         "us"},
        {"net.payload_ratio", per(payload, raw), "ratio"},
        {"repeat_pose_frac", repeatPoseFrac(plan), "ratio"},
        {"trace.overhead", timed.cpuMsPerFrame() / plain.cpuMsPerFrame(),
         "ratio"},
    };
    if (!a.trace_out.empty() && !spans.writeJson(a.trace_out))
        std::cerr << "servebench: could not write spans to " << a.trace_out
                  << "\n";
    printResult(true, timed.reqs.size(), failedCount(timed), m);
    return 0;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else if (k == "--source-id") {
            a.source_id = v;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return have_workload && a.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::cerr << "usage: servebench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-out <path>] "
                     "[--source-id <id>]\n";
        return 2;
    }
    for (const char *var : kForbiddenEnv)
        if (std::getenv(var)) {
            std::cerr << "servebench: refusing to run with " << var
                      << " set; it changes what is measured\n";
            return 2;
        }
    const Workload *w = findWorkload(a.workload);
    if (!w) {
        std::cerr << "servebench: unknown workload '" << a.workload << "'\n";
        return 2;
    }

    std::vector<asdr::scene::SceneInfo> infos;
    for (const std::string &s : w->scenes)
        infos.push_back(asdr::scene::sceneInfo(s));
    const int per_viewer = timedPerViewer(*w, a.seconds);
    const std::vector<ViewerPlan> plan = makePlan(*w, infos, a.seed, per_viewer);
    if (!warmupDisjoint(plan))
        die("warm-up poses overlap the timed poses");

    return a.trace ? runTraced(a, *w, plan, size_t(per_viewer))
                   : runUntraced(a, *w, plan, size_t(per_viewer));
}
