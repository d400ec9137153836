#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "nerf/camera.hpp"
#include "util/rng.hpp"

namespace servebench {

using asdr::net::CameraSpec;

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = [] {
        std::vector<Workload> t;

        // One viewer, one frame at a time, on the MLP field: latency is
        // set by how well one frame spreads over the workers, and
        // nearly all CPU is in the field kernels.
        Workload s;
        s.name = "stream_ngp";
        s.scenes = {"Lego"};
        s.ngp = true;
        s.viewers = 1;
        s.qos = asdr::server::QosClass::Interactive;
        s.encoding = asdr::net::FrameEncoding::Raw;
        s.width = s.height = 40;
        s.spp = 128;
        s.nominal_frames_per_s = 17.0;
        s.warmup_per_viewer = 16;
        t.push_back(s);

        // Many frames of the cheap analytic field, no pose ever
        // repeated: per-frame fixed costs (graph setup, admission,
        // delivery, messages, codec) run often. 48x48 at 64 spp rather
        // than smaller frames: a frame must hold a few milliseconds of
        // work per worker, or one stolen vCPU time slice sets the tail
        // latency of whichever frames it lands on.
        Workload d;
        d.name = "serve_distinct";
        d.scenes = {"Lego", "Chair"};
        d.ngp = false;
        d.viewers = 12;
        d.qos = asdr::server::QosClass::Interactive;
        d.encoding = asdr::net::FrameEncoding::DeltaPrev;
        d.width = d.height = 48;
        d.spp = 64;
        d.nominal_frames_per_s = 210.0;
        d.warmup_per_viewer = 16;
        // Twelve paths start at unrelated angles, so the views checked
        // differ more from seed to seed than on the single-path NGP
        // workloads; the analytic field makes each check cheap.
        d.check_poses = 48;
        t.push_back(d);

        // Eight viewers of one fitted scene requesting the same poses
        // in lockstep: the only traffic where requests share work.
        Workload h;
        h.name = "serve_shared";
        h.scenes = {"Lego"};
        h.ngp = true;
        h.viewers = 8;
        h.qos = asdr::server::QosClass::Standard;
        h.encoding = asdr::net::FrameEncoding::DeltaPrev;
        h.shared_path = true;
        h.width = h.height = 32;
        h.spp = 64;
        h.nominal_frames_per_s = 40.0;
        h.warmup_per_viewer = 8;
        t.push_back(h);
        return t;
    }();
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

int
timedPerViewer(const Workload &w, double seconds)
{
    const int by_time =
        int(std::lround(seconds * w.nominal_frames_per_s / w.viewers));
    const int floor_n = (kMinTimedFrames + w.viewers - 1) / w.viewers;
    return std::max(by_time, floor_n);
}

namespace {

/** Uniform double in [lo, hi) from a splitmix64 stream. */
double
uniform(uint64_t &state, double lo, double hi)
{
    const double u = double(asdr::splitmix64(state) >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

/** A smooth orbit: the scene's default viewpoint rotated about the
 *  vertical axis at a fixed rate, with a slow vertical bob. */
struct Path
{
    double angle0 = 0.0, step = 0.0;
    double bob_amp = 0.0, bob_rate = 0.0, bob_phase = 0.0;
};

/** A path whose `frames` poses cover exactly `laps` full turns, so the
 *  views a run renders, and with them its cost and quality, barely
 *  depend on where the seed starts it. */
Path
drawPath(uint64_t &state, int frames, int laps)
{
    Path p;
    p.angle0 = uniform(state, 0.0, 2.0 * M_PI);
    p.step = 2.0 * M_PI * laps / frames;
    if (asdr::splitmix64(state) & 1)
        p.step = -p.step;
    p.bob_amp = uniform(state, 0.02, 0.06);
    p.bob_rate = uniform(state, 0.02, 0.05);
    p.bob_phase = uniform(state, 0.0, 2.0 * M_PI);
    return p;
}

/** Warm-up poses ride this far above the timed orbit: they lead into
 *  the timed path the same way in every run, yet no cache can match
 *  one of them against a timed pose. */
constexpr float kWarmupLift = 0.1f;

CameraSpec
poseAt(const asdr::scene::SceneInfo &info, const Path &p, int k, int w,
       int h, float lift = 0.0f)
{
    CameraSpec cs;
    cs.pos = asdr::nerf::orbitPosition(info, float(p.angle0 + p.step * k));
    cs.pos.y += float(p.bob_amp * std::sin(p.bob_rate * k + p.bob_phase)) +
                lift;
    cs.look_at = info.look_at;
    cs.up = asdr::Vec3(0.0f, 1.0f, 0.0f);
    cs.fov_deg = info.fov_deg;
    cs.width = uint16_t(w);
    cs.height = uint16_t(h);
    return cs;
}

uint64_t
nameHash(const std::string &s)
{
    uint64_t h = 0xCBF29CE484222325ull; // FNV-1a
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

/** Exact identity of a request: scene plus every pose field's bits. */
std::string
poseKey(const std::string &scene, const CameraSpec &c)
{
    const float f[10] = {c.pos.x,    c.pos.y,     c.pos.z, c.look_at.x,
                         c.look_at.y, c.look_at.z, c.up.x,  c.up.y,
                         c.up.z,     c.fov_deg};
    std::string key = scene;
    key.push_back('\0');
    key.append(reinterpret_cast<const char *>(f), sizeof f);
    key.append(reinterpret_cast<const char *>(&c.width), sizeof c.width);
    key.append(reinterpret_cast<const char *>(&c.height), sizeof c.height);
    return key;
}

} // namespace

std::vector<ViewerPlan>
makePlan(const Workload &w, const std::vector<asdr::scene::SceneInfo> &infos,
         uint64_t seed, int timed_per_viewer)
{
    uint64_t state = seed ^ nameHash(w.name);
    const Path shared = drawPath(state, timed_per_viewer, 1);
    std::vector<ViewerPlan> plan(size_t(w.viewers));
    for (int v = 0; v < w.viewers; ++v) {
        const size_t s = size_t(v) % w.scenes.size();
        ViewerPlan &vp = plan[size_t(v)];
        vp.scene = w.scenes[s];
        // Viewers of distinct paths turn at different rates (about one
        // lap per 200 to 300 frames), so no two ever meet on one pose.
        const int laps = std::max(1, int(timed_per_viewer /
                                         uniform(state, 200.0, 300.0)));
        const Path p = w.shared_path ? shared
                                     : drawPath(state, timed_per_viewer, laps);
        for (int k = -w.warmup_per_viewer; k < 0; ++k)
            vp.warmup.push_back(
                poseAt(infos[s], p, k, w.width, w.height, kWarmupLift));
        for (int k = 0; k < timed_per_viewer; ++k)
            vp.timed.push_back(poseAt(infos[s], p, k, w.width, w.height));
    }
    return plan;
}

double
repeatPoseFrac(const std::vector<ViewerPlan> &plan)
{
    std::unordered_set<std::string> seen;
    size_t rounds = 0, requests = 0, repeats = 0;
    for (const ViewerPlan &vp : plan)
        rounds = std::max(rounds, vp.timed.size());
    for (size_t r = 0; r < rounds; ++r)
        for (const ViewerPlan &vp : plan) {
            if (r >= vp.timed.size())
                continue;
            ++requests;
            if (!seen.insert(poseKey(vp.scene, vp.timed[r])).second)
                ++repeats;
        }
    return requests ? double(repeats) / double(requests) : 0.0;
}

bool
warmupDisjoint(const std::vector<ViewerPlan> &plan)
{
    std::unordered_set<std::string> timed;
    for (const ViewerPlan &vp : plan)
        for (const CameraSpec &c : vp.timed)
            timed.insert(poseKey(vp.scene, c));
    for (const ViewerPlan &vp : plan)
        for (const CameraSpec &c : vp.warmup)
            if (timed.count(poseKey(vp.scene, c)))
                return false;
    return true;
}

bool
percentile(std::vector<double> samples, double q, double &out,
           int min_beyond)
{
    const size_t n = samples.size();
    if (n == 0 || !(q > 0.0 && q <= 1.0))
        return false;
    size_t rank = size_t(std::ceil(q * double(n))); // 1-based
    rank = std::min(std::max<size_t>(rank, 1), n);
    if (n - rank < size_t(std::max(0, min_beyond)))
        return false;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    out = samples[rank - 1];
    return true;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
sameBits(const asdr::Image &a, const asdr::Image &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.pixels() * sizeof(asdr::Vec3)) == 0;
}

// ------------------------------------------------------------ TimingField

namespace {
std::atomic<uint64_t> g_next_field_id{1};

uint64_t
elapsedNs(Clock::time_point t0)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count());
}
} // namespace

TimingField::Counts
TimingField::Counts::operator-(const Counts &o) const
{
    Counts d;
    d.density_calls = density_calls - o.density_calls;
    d.density_points = density_points - o.density_points;
    d.density_ns = density_ns - o.density_ns;
    d.color_calls = color_calls - o.color_calls;
    d.color_points = color_points - o.color_points;
    d.color_ns = color_ns - o.color_ns;
    return d;
}

TimingField::Counts &
TimingField::Counts::operator+=(const Counts &o)
{
    density_calls += o.density_calls;
    density_points += o.density_points;
    density_ns += o.density_ns;
    color_calls += o.color_calls;
    color_points += o.color_points;
    color_ns += o.color_ns;
    return *this;
}

TimingField::TimingField(const asdr::nerf::RadianceField &inner)
    : inner_(inner), id_(g_next_field_id.fetch_add(1))
{
}

TimingField::Slot &
TimingField::slot() const
{
    thread_local std::vector<std::pair<uint64_t, Slot *>> mine;
    for (const auto &e : mine)
        if (e.first == id_)
            return *e.second;
    Slot *s = nullptr;
    {
        std::lock_guard<std::mutex> lock(m_);
        slots_.emplace_back();
        s = &slots_.back();
        for (auto &c : s->v)
            c.store(0, std::memory_order_relaxed);
    }
    mine.emplace_back(id_, s);
    return *s;
}

void
TimingField::add(Slot &s, int first, uint64_t calls, uint64_t points,
                 uint64_t ns)
{
    // Single writer per slot: plain load + store, no locked RMW.
    auto bump = [](std::atomic<uint64_t> &c, uint64_t d) {
        c.store(c.load(std::memory_order_relaxed) + d,
                std::memory_order_relaxed);
    };
    bump(s.v[first], calls);
    bump(s.v[first + 1], points);
    bump(s.v[first + 2], ns);
}

TimingField::Counts
TimingField::read(const Slot &s)
{
    Counts c;
    c.density_calls = s.v[0].load(std::memory_order_relaxed);
    c.density_points = s.v[1].load(std::memory_order_relaxed);
    c.density_ns = s.v[2].load(std::memory_order_relaxed);
    c.color_calls = s.v[3].load(std::memory_order_relaxed);
    c.color_points = s.v[4].load(std::memory_order_relaxed);
    c.color_ns = s.v[5].load(std::memory_order_relaxed);
    return c;
}

asdr::nerf::DensityOutput
TimingField::density(const asdr::Vec3 &pos) const
{
    const auto t0 = Clock::now();
    asdr::nerf::DensityOutput out = inner_.density(pos);
    add(slot(), 0, 1, 1, elapsedNs(t0));
    return out;
}

asdr::Vec3
TimingField::color(const asdr::Vec3 &pos, const asdr::Vec3 &dir,
                   const asdr::nerf::DensityOutput &den) const
{
    const auto t0 = Clock::now();
    asdr::Vec3 out = inner_.color(pos, dir, den);
    add(slot(), 3, 1, 1, elapsedNs(t0));
    return out;
}

void
TimingField::densityBatch(const asdr::Vec3 *pos, int count,
                          asdr::nerf::DensityOutput *out) const
{
    const auto t0 = Clock::now();
    inner_.densityBatch(pos, count, out);
    add(slot(), 0, 1, uint64_t(std::max(0, count)), elapsedNs(t0));
}

void
TimingField::colorBatch(const asdr::Vec3 *pos, const asdr::Vec3 &dir,
                        const asdr::nerf::DensityOutput *den, int count,
                        asdr::Vec3 *out) const
{
    const auto t0 = Clock::now();
    inner_.colorBatch(pos, dir, den, count, out);
    add(slot(), 3, 1, uint64_t(std::max(0, count)), elapsedNs(t0));
}

void
TimingField::traceLookups(const asdr::Vec3 &pos,
                          asdr::nerf::LookupSink &sink) const
{
    inner_.traceLookups(pos, sink);
}

asdr::nerf::TableSchema
TimingField::tableSchema() const
{
    return inner_.tableSchema();
}

asdr::nerf::FieldCosts
TimingField::costs() const
{
    return inner_.costs();
}

std::string
TimingField::describe() const
{
    return inner_.describe();
}

TimingField::Counts
TimingField::total() const
{
    std::lock_guard<std::mutex> lock(m_);
    Counts sum;
    for (const Slot &s : slots_)
        sum += read(s);
    return sum;
}

TimingField::Counts
TimingField::thisThread() const
{
    return read(slot());
}

// ---------------------------------------------------------------- SpanLog

SpanLog::SpanLog() : origin_(Clock::now()) {}

void
SpanLog::record(const char *name, uint64_t id, Clock::time_point t0,
                Clock::time_point t1, int lane)
{
    using std::chrono::duration_cast;
    using std::chrono::nanoseconds;
    spans_.push_back({name, id, duration_cast<nanoseconds>(t0 - origin_).count(),
                      duration_cast<nanoseconds>(t1 - origin_).count(),
                      lane});
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%llu}}",
                      i ? "," : "", s.name, s.lane, double(s.t0_ns) / 1e3,
                      double(s.t1_ns - s.t0_ns) / 1e3,
                      static_cast<unsigned long long>(s.id));
        out << buf << "\n";
    }
    out << "]}\n";
    return bool(out);
}

// ----------------------------------------------------------------- probes

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

HostCpu
readHostCpu()
{
    HostCpu h;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!in || !std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return h;
    std::istringstream fields(line.substr(4));
    uint64_t v = 0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
        // user nice system idle iowait irq softirq steal
        if (i != 3 && i != 4)
            h.busy += v;
        if (i == 7)
            h.steal = v;
    }
    return h;
}

double
stolenShare(const HostCpu &a, const HostCpu &b)
{
    if (b.busy <= a.busy || b.steal < a.steal)
        return 0.0;
    return std::min(0.99, double(b.steal - a.steal) / double(b.busy - a.busy));
}

void
Interval::start()
{
    host0 = readHostCpu();
    cpu0 = cpuSeconds();
    t0 = Clock::now();
}

void
Interval::stop()
{
    t1 = Clock::now();
    cpu1 = cpuSeconds();
    host1 = readHostCpu();
}

double
Interval::wallS() const
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace servebench
