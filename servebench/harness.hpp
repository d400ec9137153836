/**
 * @file
 * Building blocks of the serving benchmark: the workload table, seeded
 * pose plans, the percentile rule, a timing decorator for radiance
 * fields, an in-memory span log, and process/host probes.
 *
 * Everything here measures from outside the program: it times or
 * counts calls into the library's public API and never reads the
 * library's own telemetry, ServerStats or wire stats messages.
 */

#ifndef SERVEBENCH_HARNESS_HPP
#define SERVEBENCH_HARNESS_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "net/frame_codec.hpp"
#include "net/protocol.hpp"
#include "nerf/field.hpp"
#include "scene/analytic_scene.hpp"
#include "server/qos.hpp"

namespace servebench {

using Clock = std::chrono::steady_clock;

/** One named traffic mix; README.md records why each exists. */
struct Workload
{
    std::string name;
    /** Library scenes; viewer v watches scenes[v % scenes.size()]. */
    std::vector<std::string> scenes;
    /** Fitted InstantNgpField (true) or the analytic ProceduralField. */
    bool ngp = false;
    int viewers = 1;
    asdr::server::QosClass qos = asdr::server::QosClass::Interactive;
    asdr::net::FrameEncoding encoding = asdr::net::FrameEncoding::Raw;
    /** Every viewer requests the same pose sequence, in lockstep
     *  rounds; otherwise each viewer follows its own path. */
    bool shared_path = false;
    int width = 32, height = 32, spp = 32;
    /**
     * Frames per second this workload served on the reference host.
     * It only sizes the fixed pose list (`seconds` x this), so a run
     * does identical work on every commit.
     */
    double nominal_frames_per_s = 10.0;
    int warmup_per_viewer = 8;
    /** Timed requests the gate renders again in-process (bit-exact
     *  check and psnr_db); more where views differ more across seeds. */
    int check_poses = 16;
};

/** Set-ups (warm-up included) per untraced run; setup_s is their
 *  median. */
constexpr int kSetupReps = 3;
/** Render workers and pipeline slots of the server's one shard, in
 *  every workload (8 slots keep 3 workers fed without starving). */
constexpr int kWorkers = 3;
constexpr int kSlots = 8;
/** Timed frames never go below this, so p95 always has ten samples
 *  beyond it. */
constexpr int kMinTimedFrames = 200;

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();
/** Null when unknown. */
const Workload *findWorkload(const std::string &name);

/** Distillation steps and seeds of the in-process NGP fit. */
constexpr int kFitSteps = 600;
constexpr uint64_t kFieldSeed = 0xF1E1D;
constexpr uint64_t kFitSeed = 0x7E57;

/** Poses of one viewer: one smooth path, warm-up first. */
struct ViewerPlan
{
    std::string scene;
    std::vector<asdr::net::CameraSpec> warmup;
    std::vector<asdr::net::CameraSpec> timed;
};

/** Timed requests per viewer for a run of `seconds`. */
int timedPerViewer(const Workload &w, double seconds);

/**
 * The seeded pose plan: the same (workload, seed, timed count) always
 * gives bit-identical poses. `infos` holds the framing of each of
 * `w.scenes`, in order.
 */
std::vector<ViewerPlan> makePlan(const Workload &w,
                                 const std::vector<asdr::scene::SceneInfo> &infos,
                                 uint64_t seed, int timed_per_viewer);

/**
 * Share of timed requests whose exact (scene, pose) was requested
 * earlier in the run, counting requests round-major (request r of
 * every viewer before request r + 1). A property of the workload.
 */
double repeatPoseFrac(const std::vector<ViewerPlan> &plan);

/** True when no warm-up pose equals any timed pose of the same scene. */
bool warmupDisjoint(const std::vector<ViewerPlan> &plan);

/**
 * Nearest-rank percentile `q` in (0, 1] of `samples`. Returns false
 * (and leaves `out` alone) when fewer than `min_beyond` samples rank
 * above it: a tail percentile resting on a handful of frames is noise.
 */
bool percentile(std::vector<double> samples, double q, double &out,
                int min_beyond = 10);

/** Median of a non-empty list (no tail rule). */
double median(std::vector<double> v);

/** Frames equal bit for bit (dims and every float). */
bool sameBits(const asdr::Image &a, const asdr::Image &b);

/**
 * A RadianceField that forwards every virtual to `inner` and counts,
 * per calling thread, the calls, points and busy nanoseconds of the
 * density and color paths. Counters are per thread (no shared cache
 * line on the hot path) and summed on demand; no per-call spans.
 */
class TimingField final : public asdr::nerf::RadianceField
{
  public:
    struct Counts
    {
        uint64_t density_calls = 0, density_points = 0, density_ns = 0;
        uint64_t color_calls = 0, color_points = 0, color_ns = 0;

        Counts operator-(const Counts &o) const;
        Counts &operator+=(const Counts &o);
    };

    explicit TimingField(const asdr::nerf::RadianceField &inner);
    TimingField(const TimingField &) = delete;
    TimingField &operator=(const TimingField &) = delete;

    asdr::nerf::DensityOutput density(const asdr::Vec3 &pos) const override;
    asdr::Vec3 color(const asdr::Vec3 &pos, const asdr::Vec3 &dir,
                     const asdr::nerf::DensityOutput &den) const override;
    void densityBatch(const asdr::Vec3 *pos, int count,
                      asdr::nerf::DensityOutput *out) const override;
    void colorBatch(const asdr::Vec3 *pos, const asdr::Vec3 &dir,
                    const asdr::nerf::DensityOutput *den, int count,
                    asdr::Vec3 *out) const override;
    void traceLookups(const asdr::Vec3 &pos,
                      asdr::nerf::LookupSink &sink) const override;
    asdr::nerf::TableSchema tableSchema() const override;
    asdr::nerf::FieldCosts costs() const override;
    std::string describe() const override;

    /** Sum over every thread that called in. Exact once those threads
     *  are idle (the server waited out its frames). */
    Counts total() const;
    /** The calling thread's counters. */
    Counts thisThread() const;

  private:
    static constexpr int kCounters = 6;
    struct Slot
    {
        std::atomic<uint64_t> v[kCounters];
    };
    /** The calling thread's slot (registered on first use). */
    Slot &slot() const;
    static void add(Slot &s, int first, uint64_t calls, uint64_t points,
                    uint64_t ns);
    static Counts read(const Slot &s);

    const asdr::nerf::RadianceField &inner_;
    /** Never reused, so a thread's cached (id, slot) pair of a dead
     *  instance can never match a live one. */
    const uint64_t id_;
    mutable std::mutex m_;
    mutable std::deque<Slot> slots_; ///< stable addresses; guarded by m_
};

/**
 * In-memory spans recorded on the benchmark's own thread around its
 * calls into the library, written as Chrome/Perfetto trace_event JSON
 * when the run ends. Not thread-safe.
 */
class SpanLog
{
  public:
    SpanLog();
    void record(const char *name, uint64_t id, Clock::time_point t0,
                Clock::time_point t1, int lane = 0);
    bool writeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        uint64_t id;
        int64_t t0_ns, t1_ns;
        int lane;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Process user + system CPU seconds so far. */
double cpuSeconds();
/** Peak resident set size of the process, MB. */
double peakRssMb();

/** CPU jiffies of the whole (virtual) machine from /proc/stat, summed
 *  over its CPUs (zeros when unreadable). */
struct HostCpu
{
    /** Time a CPU wanted to run but the hypervisor ran something else. */
    uint64_t steal = 0;
    /** Time a CPU was not idle: user, nice, system, irq, softirq, steal. */
    uint64_t busy = 0;
};
HostCpu readHostCpu();
/**
 * Share of the machine's busy CPU time that the hypervisor stole
 * between two readings, in [0, 1); 0 when the host reports no steal.
 * A busy CPU loses this share of its wall time to other tenants, so
 * `wall x (1 - share)` is the wall time the benchmark's threads had.
 */
double stolenShare(const HostCpu &a, const HostCpu &b);

/**
 * Wall time, process CPU time and machine steal over one interval.
 * The benchmark's timings are taken net of steal: on a shared virtual
 * machine the stolen share swings between runs by more than any bound
 * a change could be held to, and no code change can earn or lose it.
 */
struct Interval
{
    Clock::time_point t0, t1;
    double cpu0 = 0.0, cpu1 = 0.0;
    HostCpu host0, host1;

    void start();
    void stop();
    double wallS() const;
    double cpuS() const { return cpu1 - cpu0; }
    double stolen() const { return stolenShare(host0, host1); }
    /** Wall seconds less the stolen share: the time the benchmark's
     *  threads had the CPUs they asked for. */
    double ownS() const { return wallS() * (1.0 - stolen()); }
};

} // namespace servebench

#endif // SERVEBENCH_HARNESS_HPP
