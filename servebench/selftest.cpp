/**
 * @file
 * Self-tests of the benchmark harness (python3 servebench/run.py
 * --selftest): the timing decorator is transparent, pose plans are
 * reproducible and have the intended sharing, warm-up never overlaps
 * the timed poses, the percentile rule refuses thin tails, and wall
 * time is taken net of the machine's steal.
 */

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/renderer.hpp"
#include "engine/frame_engine.hpp"
#include "harness.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "nerf/trainer.hpp"
#include "scene/scene_library.hpp"

using namespace servebench;
namespace core = asdr::core;
namespace nerf = asdr::nerf;

namespace {

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++g_failures;
}

std::vector<asdr::scene::SceneInfo>
infosOf(const Workload &w)
{
    std::vector<asdr::scene::SceneInfo> out;
    for (const std::string &s : w.scenes)
        out.push_back(asdr::scene::sceneInfo(s));
    return out;
}

bool
samePlan(const std::vector<ViewerPlan> &a, const std::vector<ViewerPlan> &b)
{
    if (a.size() != b.size())
        return false;
    auto same = [](const std::vector<asdr::net::CameraSpec> &x,
                   const std::vector<asdr::net::CameraSpec> &y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(),
                           x.size() * sizeof(asdr::net::CameraSpec)) == 0;
    };
    for (size_t v = 0; v < a.size(); ++v)
        if (a[v].scene != b[v].scene || !same(a[v].warmup, b[v].warmup) ||
            !same(a[v].timed, b[v].timed))
            return false;
    return true;
}

/** A frame through the stage API, serially on this thread. */
asdr::Image
stageRender(const core::AsdrRenderer &r, const nerf::Camera &cam)
{
    core::FrameState fs(cam);
    fs.shape = r.frameShape(cam.width(), cam.height());
    r.beginFrame(fs);
    if (fs.shape.adaptive)
        for (int gy = 0; gy < fs.shape.gh; ++gy)
            r.probeRow(fs, gy);
    r.planBudgets(fs);
    for (int j = 0; j < fs.shape.jobs; ++j)
        r.phase2Job(fs, j);
    r.finalizeFrame(fs, nullptr);
    return std::move(fs.img);
}

/** Frames of `cams` through a 3-worker, 2-slot FrameEngine. */
std::vector<asdr::Image>
engineRender(const core::AsdrRenderer &r,
             const std::vector<nerf::Camera> &cams)
{
    asdr::engine::EngineConfig ec;
    ec.num_threads = 3;
    ec.max_frames_in_flight = 2;
    asdr::engine::FrameEngine eng(ec);
    std::vector<std::future<asdr::engine::Frame>> futures;
    for (const nerf::Camera &c : cams) {
        asdr::engine::FrameRequest req(c);
        req.renderer = &r;
        futures.push_back(eng.submit(std::move(req)));
    }
    std::vector<asdr::Image> out;
    for (auto &f : futures)
        out.push_back(f.get().image);
    return out;
}

void
testDecoratorTransparent(const std::string &label,
                         const nerf::RadianceField &field,
                         const asdr::scene::SceneInfo &info, int spp)
{
    const core::RenderConfig cfg = core::RenderConfig::asdr(24, 24, spp);
    TimingField timing(field);
    core::AsdrRenderer plain(field, cfg), timed(timing, cfg);
    std::vector<nerf::Camera> cams;
    for (int k = 0; k < 3; ++k)
        cams.push_back(asdr::net::CameraSpec{
            nerf::orbitPosition(info, 0.4f * float(k)), info.look_at,
            asdr::Vec3(0.0f, 1.0f, 0.0f), info.fov_deg, 24, 24}
                           .toCamera());

    bool stages_same = true;
    for (const nerf::Camera &c : cams)
        stages_same &= sameBits(stageRender(plain, c), stageRender(timed, c));
    check(stages_same, label + ": decorator frames bit-identical (stage API)");

    const auto a = engineRender(plain, cams), b = engineRender(timed, cams);
    bool engine_same = a.size() == b.size();
    for (size_t i = 0; engine_same && i < a.size(); ++i)
        engine_same = sameBits(a[i], b[i]) && sameBits(a[i], plain.render(cams[i]));
    check(engine_same, label + ": decorator frames bit-identical (engine)");

    const TimingField::Counts c = timing.total();
    check(c.density_points > 0 && c.color_points > 0 && c.density_ns > 0 &&
              c.density_calls > 0 && c.color_calls > 0,
          label + ": decorator counted calls, points and time");
}

void
testPlans()
{
    for (const Workload &w : workloads()) {
        const auto infos = infosOf(w);
        const int n = timedPerViewer(w, 20.0);
        const auto a = makePlan(w, infos, 7, n), b = makePlan(w, infos, 7, n);
        const auto c = makePlan(w, infos, 8, n);
        check(samePlan(a, b), w.name + ": same seed gives the same poses");
        check(!samePlan(a, c), w.name + ": another seed gives other poses");
        bool disjoint = true;
        for (uint64_t seed = 1; seed <= 20; ++seed)
            disjoint &= warmupDisjoint(makePlan(w, infos, seed, n));
        check(disjoint, w.name + ": warm-up poses disjoint from timed poses");
        int timed = 0;
        for (const ViewerPlan &vp : a)
            timed += int(vp.timed.size());
        check(timed >= kMinTimedFrames,
              w.name + ": enough timed frames for p95");
    }

    const Workload *shared = findWorkload("serve_shared");
    const Workload *distinct = findWorkload("serve_distinct");
    const Workload *stream = findWorkload("stream_ngp");
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        auto frac = [seed](const Workload *w) {
            return repeatPoseFrac(
                makePlan(*w, infosOf(*w), seed, timedPerViewer(*w, 20.0)));
        };
        check(frac(distinct) == 0.0 && frac(stream) == 0.0 &&
                  frac(shared) == 7.0 / 8.0,
              "repeat_pose_frac is 0, 0 and 7/8 (seed " +
                  std::to_string(seed) + ")");
    }

    // The disjointness check itself catches an overlap.
    auto plan = makePlan(*stream, infosOf(*stream), 3, 10);
    plan[0].warmup.back() = plan[0].timed[4];
    check(!warmupDisjoint(plan), "an overlapping warm-up pose is detected");
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(double(201 - i)); // unsorted on purpose
    double p = -1.0;
    check(percentile(v, 0.95, p) && p == 190.0,
          "p95 of 200 samples has 10 beyond it");
    v.pop_back();
    p = -1.0;
    check(!percentile(v, 0.95, p) && p == -1.0,
          "p95 of 199 samples (9 beyond) is refused");
    std::vector<double> small(19, 1.0);
    check(!percentile(small, 0.5, p), "p50 of 19 samples is refused");
    small.push_back(1.0);
    check(percentile(small, 0.5, p), "p50 of 20 samples is reported");
    check(!percentile({}, 0.5, p), "empty sample list is refused");
}

void
testStolenShare()
{
    HostCpu a, b;
    a.steal = 100;
    a.busy = 1000;
    b.steal = 130;
    b.busy = 1200;
    check(stolenShare(a, b) == 30.0 / 200.0,
          "stolen share is steal over busy time between readings");
    check(stolenShare(a, a) == 0.0, "no busy time, no stolen share");
    check(stolenShare(HostCpu{}, HostCpu{}) == 0.0,
          "a host that reports no steal has no stolen share");
    Interval iv;
    iv.start();
    iv.stop();
    iv.host0 = a;
    iv.host1 = b;
    check(iv.ownS() == iv.wallS() * (1.0 - 0.15),
          "an interval's own time is its wall time less the stolen share");
}

} // namespace

int
main()
{
    {
        auto scene = asdr::scene::createScene("Lego");
        nerf::ProceduralField procedural(*scene, nerf::NgpModelConfig::fast());
        testDecoratorTransparent("procedural", procedural, scene->info(), 32);

        nerf::InstantNgpField ngp(nerf::NgpModelConfig::fast(), kFieldSeed);
        nerf::TrainConfig tc;
        tc.steps = 60;
        tc.seed = kFitSeed;
        nerf::fitField(ngp, *scene, tc);
        testDecoratorTransparent("ngp", ngp, scene->info(), 48);
    }
    testPlans();
    testPercentile();
    testStolenShare();
    std::cout << (g_failures ? "servebench self-test FAILED\n"
                             : "servebench self-test passed\n");
    return g_failures ? 1 : 0;
}
