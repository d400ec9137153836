/**
 * @file
 * The load-adaptive quality ladder, end to end:
 *
 *  - Transforms: applyRung() scales sample budgets with a min_samples
 *    floor, rungResolution() divides dims with an 8 px floor, and
 *    upscaleBilinear() restores the requested size.
 *  - Monotonicity: down the ladder, PSNR against the Full render is
 *    non-increasing while rendered work (sampled points) is
 *    non-increasing the other way -- the quality/cost tradeoff the
 *    cumulative rung design guarantees by construction.
 *  - BrownoutController: steps down to the pressure target immediately,
 *    recovers one rung only after recover_ticks healthy decisions, and
 *    replays bit-identically on identical inputs.
 *  - Scheduler: demote-before-drop admits would-be-dropped frames at
 *    the ladder floor until the degraded_backlog stretch is exhausted.
 *  - Server: Full-rung frames through a ladder-enabled server stay
 *    byte-exact vs sequential render; under a deterministic burst the
 *    interactive shed fraction collapses from ~62.5% (ladder off) to 0
 *    with every ticket still producing exactly one result; the
 *    server.admit.degrade fault site forces the floor rung, and a
 *    degraded rung reuses the scene's occupancy grid.
 *  - Wire: the rung travels in protocol v3, the client upscales
 *    reduced-resolution payloads, and hold-last-frame substitutes the
 *    previous delivered image on payload-less results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "image/metrics.hpp"
#include "net/client.hpp"
#include "net/frame_codec.hpp"
#include "net/render_service.hpp"
#include "nerf/camera.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "scene/scene_library.hpp"
#include "server/frame_server.hpp"
#include "server/quality_ladder.hpp"
#include "server/scene_registry.hpp"
#include "server/workload.hpp"
#include "util/fault.hpp"

#include "engine_pause.hpp"
#include "exposition.hpp"

using namespace asdr;
using namespace asdr::server;

namespace {

core::RenderConfig
smallConfig()
{
    core::RenderConfig cfg = core::RenderConfig::asdr(16, 16, 32);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;
    return cfg;
}

struct FaultGuard
{
    FaultGuard() { fault::resetAll(); }
    ~FaultGuard() { fault::resetAll(); }
};

void
expectFramesIdentical(const Image &a, const Image &b, const char *what)
{
    ASSERT_EQ(a.pixels(), b.pixels()) << what;
    ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                             a.pixels() * sizeof(Vec3)))
        << what;
}

/** Forwards every virtual to `inner` and counts the points whose
 *  density it evaluates, batched or one at a time. */
class DensityCountingField final : public nerf::RadianceField
{
  public:
    explicit DensityCountingField(const nerf::RadianceField &inner)
        : inner_(inner)
    {
    }

    nerf::DensityOutput
    density(const Vec3 &pos) const override
    {
        points.fetch_add(1);
        return inner_.density(pos);
    }
    Vec3
    color(const Vec3 &pos, const Vec3 &dir,
          const nerf::DensityOutput &den) const override
    {
        return inner_.color(pos, dir, den);
    }
    void
    densityBatch(const Vec3 *pos, int count,
                 nerf::DensityOutput *out) const override
    {
        points.fetch_add(uint64_t(count));
        inner_.densityBatch(pos, count, out);
    }
    void
    colorBatch(const Vec3 *pos, const Vec3 &dir,
               const nerf::DensityOutput *den, int count,
               Vec3 *out) const override
    {
        inner_.colorBatch(pos, dir, den, count, out);
    }
    void
    traceLookups(const Vec3 &pos, nerf::LookupSink &sink) const override
    {
        inner_.traceLookups(pos, sink);
    }
    nerf::TableSchema tableSchema() const override
    {
        return inner_.tableSchema();
    }
    nerf::FieldCosts costs() const override { return inner_.costs(); }
    std::string describe() const override { return inner_.describe(); }

    mutable std::atomic<uint64_t> points{0};

  private:
    const nerf::RadianceField &inner_;
};

} // namespace

// ------------------------------------------------------- rung transforms

TEST(LadderTransforms, ApplyRungScalesSamplesWithFloor)
{
    LadderParams p;
    p.sample_scale = 0.5;
    core::RenderConfig cfg = core::RenderConfig::asdr(32, 32, 64);
    cfg.min_samples = 8;

    // Full is the identity: the byte-exact path.
    const core::RenderConfig full =
        applyRung(cfg, QualityRung::Full, p);
    EXPECT_EQ(full.samples_per_ray, cfg.samples_per_ray);

    // Every lower rung scales the budget (cumulative design: the
    // config transform is identical for rungs 1..3).
    for (QualityRung r : {QualityRung::ReducedSamples,
                          QualityRung::ReducedResolution,
                          QualityRung::Quantized8})
        EXPECT_EQ(applyRung(cfg, r, p).samples_per_ray, 32) << int(r);

    // The scale never goes below the adaptive floor.
    cfg.samples_per_ray = 12;
    cfg.min_samples = 10;
    EXPECT_EQ(applyRung(cfg, QualityRung::Quantized8, p).samples_per_ray,
              10);
}

TEST(LadderTransforms, RungResolutionDividesWithFloor)
{
    LadderParams p;
    p.resolution_divisor = 2;
    int rw = 0, rh = 0;

    rungResolution(QualityRung::Full, p, 64, 48, rw, rh);
    EXPECT_EQ(rw, 64);
    EXPECT_EQ(rh, 48);
    rungResolution(QualityRung::ReducedSamples, p, 64, 48, rw, rh);
    EXPECT_EQ(rw, 64); // resolution untouched above its rung
    EXPECT_EQ(rh, 48);
    rungResolution(QualityRung::ReducedResolution, p, 64, 48, rw, rh);
    EXPECT_EQ(rw, 32);
    EXPECT_EQ(rh, 24);
    rungResolution(QualityRung::Quantized8, p, 65, 49, rw, rh);
    EXPECT_EQ(rw, 33); // rounded up
    EXPECT_EQ(rh, 25);

    // 8 px floor, but never above the requested dims.
    rungResolution(QualityRung::Quantized8, p, 10, 6, rw, rh);
    EXPECT_EQ(rw, 8);
    EXPECT_EQ(rh, 6);

    // divisor <= 1 disables the reduction.
    p.resolution_divisor = 1;
    rungResolution(QualityRung::Quantized8, p, 64, 48, rw, rh);
    EXPECT_EQ(rw, 64);
    EXPECT_EQ(rh, 48);
}

TEST(LadderTransforms, UpscaleBilinearRestoresDims)
{
    Image src(8, 6);
    for (int y = 0; y < 6; ++y)
        for (int x = 0; x < 8; ++x)
            src.at(x, y) = Vec3(float(x) / 8.0f, float(y) / 6.0f, 0.25f);

    const Image up = upscaleBilinear(src, 16, 12);
    EXPECT_EQ(up.width(), 16);
    EXPECT_EQ(up.height(), 12);

    // Matching dims are the identity.
    const Image same = upscaleBilinear(src, 8, 6);
    expectFramesIdentical(src, same, "upscale identity");

    // A constant image upscales to the same constant (the half-texel
    // mapping never samples outside the source).
    Image flat(4, 4, Vec3(0.3f, 0.6f, 0.9f));
    const Image flat_up = upscaleBilinear(flat, 9, 7);
    for (int y = 0; y < 7; ++y)
        for (int x = 0; x < 9; ++x)
            EXPECT_EQ(flat_up.at(x, y), Vec3(0.3f, 0.6f, 0.9f));
}

// -------------------------------------------------- rung monotonicity

TEST(LadderMonotonicity, PsnrOrderedOneWayCostTheOther)
{
    auto scn = scene::createScene("Lego");
    nerf::ProceduralField field(*scn, nerf::NgpModelConfig::fast());
    core::RenderConfig cfg = core::RenderConfig::asdr(32, 32, 64);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;
    const nerf::Camera cam = nerf::cameraForScene(scn->info(), 32, 32);
    LadderParams p;

    // Render each rung the way the server does: scaled config, scaled
    // camera (ReducedResolution and below), client-side upscale, and a
    // Quantized8 codec round trip for the floor rung.
    Image frames[kQualityRungs];
    uint64_t points[kQualityRungs] = {};
    for (int r = 0; r < kQualityRungs; ++r) {
        const QualityRung rung = QualityRung(r);
        const core::RenderConfig rcfg = applyRung(cfg, rung, p);
        int rw = 0, rh = 0;
        rungResolution(rung, p, cam.width(), cam.height(), rw, rh);
        const nerf::Camera rcam =
            (rw == cam.width() && rh == cam.height())
                ? cam
                : cam.scaledTo(rw, rh);
        core::RenderStats stats;
        core::AsdrRenderer renderer(field, rcfg);
        Image img = renderer.render(rcam, &stats);
        points[r] = stats.profile.points;
        if (rung == QualityRung::Quantized8) {
            const auto payload = net::encodeFramePayload(
                img, net::FrameEncoding::Quantized8, nullptr);
            std::string err;
            ASSERT_TRUE(net::decodeFramePayload(
                payload.data(), payload.size(),
                net::FrameEncoding::Quantized8, img.width(),
                img.height(), nullptr, img, &err))
                << err;
        }
        frames[r] = upscaleBilinear(img, cam.width(), cam.height());
    }

    // Quality, measured against the Full render, is monotone
    // non-increasing down the ladder -- strictly so where a new
    // degradation kicks in.
    double quality[kQualityRungs];
    for (int r = 0; r < kQualityRungs; ++r)
        quality[r] = psnr(frames[0], frames[r]);
    EXPECT_GT(quality[0], quality[1]); // Full is exact (capped PSNR)
    EXPECT_GT(quality[1], quality[2]); // resolution loss on top
    // Quantization rides on the reduced-res frame: its PSNR can wobble
    // a few hundredths of a dB either way (8-bit rounding sometimes
    // lands nearer the reference), but never recovers the upper rungs.
    EXPECT_GE(quality[2] + 0.1, quality[3]);
    EXPECT_GT(quality[1], quality[3]);
    // Bounded loss: even the floor rung stays a recognizable frame.
    for (int r = 1; r < kQualityRungs; ++r)
        EXPECT_GT(quality[r], 14.0) << "rung " << rungName(QualityRung(r));

    // Rendered work is ordered the other way: each rung marches at
    // most as many points as the one above it, strictly fewer where
    // the budget or resolution shrinks.
    EXPECT_LT(points[1], points[0]); // half the sample budget
    EXPECT_LT(points[2], points[1]); // quarter the rays on top
    EXPECT_EQ(points[3], points[2]); // quantization is free at render
}

// ---------------------------------------------------- brownout controller

TEST(Brownout, StepsDownImmediatelyRecoversSlowly)
{
    LadderParams p;
    p.enabled = true;
    p.queue_depth_rung1 = 2;
    p.queue_depth_rung2 = 4;
    p.queue_depth_rung3 = 8;
    p.recover_ticks = 3;
    BrownoutController ctl(p);
    const QosClass c = QosClass::Interactive;

    // Pressure jumps straight to the target rung -- no ramp.
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::Full);
    EXPECT_EQ(ctl.decide(c, 9, 0.0), QualityRung::Quantized8);

    // Recovery is one rung per recover_ticks consecutive healthy
    // decisions, not a jump back to Full.
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::Quantized8);
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::Quantized8);
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::ReducedResolution);
    EXPECT_EQ(ctl.current(c), QualityRung::ReducedResolution);

    // A pressured decision resets the healthy streak.
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::ReducedResolution);
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::ReducedResolution);
    EXPECT_EQ(ctl.decide(c, 5, 0.0), QualityRung::ReducedResolution);
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::ReducedResolution);
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::ReducedResolution);
    EXPECT_EQ(ctl.decide(c, 0, 0.0), QualityRung::ReducedSamples);

    // Classes are independent.
    EXPECT_EQ(ctl.current(QosClass::Standard), QualityRung::Full);
}

TEST(Brownout, HeadroomAndLatencyTriggers)
{
    LadderParams p;
    p.enabled = true;
    p.headroom_trigger = 0.5;
    p.p95_trigger_ms = 20.0;
    BrownoutController ctl(p);
    const QosClass c = QosClass::Interactive;

    // A candidate that burned >= half its deadline in queue is pushed
    // one rung below the queue-depth target.
    EXPECT_EQ(ctl.decide(c, 0, 0.6), QualityRung::ReducedSamples);

    // A p95 at the trigger asks for at least ReducedSamples. Ring p95
    // is exact over a small deterministic sample set.
    BrownoutController ctl2(p);
    for (int i = 0; i < 20; ++i)
        ctl2.observeLatency(c, 25.0);
    EXPECT_DOUBLE_EQ(ctl2.recentP95(c), 25.0);
    EXPECT_EQ(ctl2.decide(c, 0, 0.0), QualityRung::ReducedSamples);

    // Below the trigger, no pressure.
    BrownoutController ctl3(p);
    for (int i = 0; i < 20; ++i)
        ctl3.observeLatency(c, 5.0);
    EXPECT_EQ(ctl3.decide(c, 0, 0.0), QualityRung::Full);
}

TEST(Brownout, ReplayIsDeterministic)
{
    LadderParams p;
    p.enabled = true;
    p.recover_ticks = 2;
    p.p95_trigger_ms = 15.0;
    BrownoutController a(p), b(p);
    const QosClass c = QosClass::Standard;

    // A fixed but irregular input sequence (depths, waits, latencies):
    // identical inputs must produce identical rung sequences.
    std::vector<QualityRung> ra, rb;
    for (int i = 0; i < 200; ++i) {
        const size_t depth = size_t((i * 7) % 11);
        const double waited = double((i * 3) % 10) / 10.0;
        const double lat = double((i * 13) % 40);
        a.observeLatency(c, lat);
        b.observeLatency(c, lat);
        ra.push_back(a.decide(c, depth, waited));
        rb.push_back(b.decide(c, depth, waited));
    }
    EXPECT_EQ(ra, rb);
    // And the sequence actually moved (the inputs cross thresholds).
    EXPECT_NE(*std::min_element(ra.begin(), ra.end()),
              *std::max_element(ra.begin(), ra.end()));
}

// ------------------------------------------------- demote-before-drop

TEST(SchedulerLadder, DemotesBeforeDroppingUntilStretchExhausted)
{
    QosParams qp;
    QosClassParams &ip = qp.cls[int(QosClass::Interactive)];
    ip.max_backlog = 2;
    ip.degraded_backlog = 2;
    ip.drop_oldest = true;
    QosScheduler sched(qp);

    auto pf = [](uint64_t ticket) {
        PendingFrame f;
        f.ticket = ticket;
        f.client = 1;
        f.qos = QosClass::Interactive;
        return f;
    };

    std::vector<PendingFrame> dropped;
    // Frames 1-2 fill the normal backlog at Full.
    sched.push(pf(1), dropped);
    sched.push(pf(2), dropped);
    EXPECT_TRUE(dropped.empty());

    // Frames 3-4 land in the stretch: admitted at the ladder floor
    // instead of shedding anything.
    sched.push(pf(3), dropped);
    sched.push(pf(4), dropped);
    EXPECT_TRUE(dropped.empty());
    EXPECT_EQ(sched.pendingOf(QosClass::Interactive), 4u);

    // Frame 5 exhausts the stretch: drop-oldest finally fires, and the
    // shed frame is the client's oldest (ticket 1).
    sched.push(pf(5), dropped);
    ASSERT_EQ(dropped.size(), 1u);
    EXPECT_EQ(dropped[0].ticket, 1u);
    EXPECT_EQ(sched.pendingOf(QosClass::Interactive), 4u);

    // Pop order is FIFO within the class; the stretch frames carry the
    // floor rung, the normal ones Full.
    const int in_flight[kQosClasses] = {0, 0, 0};
    std::map<uint64_t, uint8_t> rungs;
    PendingFrame out;
    while (sched.pop(in_flight, {}, out))
        rungs[out.ticket] = out.rung;
    EXPECT_EQ(rungs.size(), 4u);
    EXPECT_EQ(rungs[2], uint8_t(QualityRung::Full));
    EXPECT_EQ(rungs[3], uint8_t(QualityRung::Quantized8));
    EXPECT_EQ(rungs[4], uint8_t(QualityRung::Quantized8));
    EXPECT_EQ(rungs[5], uint8_t(QualityRung::Quantized8));
}

// ------------------------------------------------------ server end to end

TEST(ServerLadder, FullRungStaysByteExactWithLadderEnabled)
{
    SceneRegistry reg;
    const SceneEntry *entry = reg.addProcedural(
        "lego", "Lego", nerf::NgpModelConfig::fast(), smallConfig());
    ASSERT_NE(entry, nullptr);

    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.ladder.enabled = true;
    // Thresholds no sequential submission can reach: the controller is
    // live but never pressured, so every frame must render Full.
    cfg.ladder.queue_depth_rung1 = 1000;
    cfg.ladder.queue_depth_rung2 = 1000;
    cfg.ladder.queue_depth_rung3 = 1000;
    cfg.ladder.headroom_trigger = 0.0;
    FrameServer srv(reg, cfg);

    const uint64_t client = srv.openSession("lego", QosClass::Interactive);
    ASSERT_NE(client, 0u);
    auto path = nerf::orbitCameraPath(entry->info, 16, 16, 3, 0.1f);
    for (const auto &cam : path) {
        ASSERT_NE(srv.submitFrame(client, cam), 0u);
        srv.waitIdle();
    }

    std::vector<FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), path.size());
    core::AsdrRenderer ref(*entry->field, entry->config);
    for (size_t f = 0; f < results.size(); ++f) {
        ASSERT_TRUE(results[f].ok());
        EXPECT_EQ(results[f].rung, QualityRung::Full);
        EXPECT_EQ(results[f].full_width, 16);
        const Image want = ref.render(path[f]);
        expectFramesIdentical(want, results[f].frame.image,
                              "Full rung through ladder-enabled server");
    }
    const auto snap = srv.stats();
    EXPECT_EQ(snap.cls[0].served_rung[0], path.size());
    EXPECT_EQ(snap.cls[0].degraded, 0u);
    srv.closeSession(client);
}

TEST(ServerLadder, BurstShedCollapsesFromLadderOffToOn)
{
    // The deterministic burst: one paused worker, one pipeline slot,
    // interactive backlog 2. Eight submissions while nothing renders
    // -> 1 in flight + 2 pending; the other five are the overload the
    // two configurations handle differently.
    auto run = [](int degraded_backlog, bool ladder_on) {
        SceneRegistry reg;
        const SceneEntry *entry = reg.addProcedural(
            "lego", "Lego", nerf::NgpModelConfig::fast(), smallConfig());
        EXPECT_NE(entry, nullptr);

        ServerConfig cfg;
        cfg.threads_per_shard = 1;
        cfg.frames_in_flight_per_shard = 1;
        cfg.qos.cls[0].max_backlog = 2;
        cfg.qos.cls[0].degraded_backlog = degraded_backlog;
        cfg.ladder.enabled = ladder_on;
        FrameServer srv(reg, cfg);

        const uint64_t client =
            srv.openSession("lego", QosClass::Interactive);
        const nerf::Camera cam =
            nerf::cameraForScene(entry->info, 16, 16);

        EnginePause pause(srv.engine());
        std::set<uint64_t> tickets;
        for (int f = 0; f < 8; ++f)
            tickets.insert(srv.submitFrame(client, cam));
        pause.release();
        srv.waitIdle();

        std::vector<FrameResult> results;
        srv.drainResults(results);
        EXPECT_EQ(results.size(), 8u);
        std::set<uint64_t> seen;
        for (const auto &r : results)
            EXPECT_TRUE(seen.insert(r.ticket).second)
                << "duplicate result";
        EXPECT_EQ(seen, tickets);
        srv.closeSession(client);

        struct Outcome
        {
            uint64_t served = 0, dropped = 0, degraded = 0;
        } o;
        const auto snap = srv.stats();
        o.served = snap.cls[0].served;
        o.dropped = snap.cls[0].dropped;
        o.degraded = snap.cls[0].degraded;
        return o;
    };

    // Ladder off (seed behavior): drop-oldest sheds 5 of 8, a 62.5%
    // interactive shed rate.
    const auto off = run(/*degraded_backlog=*/0, /*ladder_on=*/false);
    EXPECT_EQ(off.served, 3u);
    EXPECT_EQ(off.dropped, 5u);
    EXPECT_EQ(off.degraded, 0u);

    // Ladder on with the stretch covering the burst: nothing is shed;
    // the overflow is served degraded instead. Shed rate 62.5% -> 0%.
    const auto on = run(/*degraded_backlog=*/6, /*ladder_on=*/true);
    EXPECT_EQ(on.served, 8u);
    EXPECT_EQ(on.dropped, 0u);
    EXPECT_GE(on.degraded, 5u); // at least the five stretch admissions
}

TEST(ServerLadder, AdmitDegradeFaultForcesFloorRung)
{
    FaultGuard guard;

    SceneRegistry reg;
    const SceneEntry *entry = reg.addProcedural(
        "lego", "Lego", nerf::NgpModelConfig::fast(), smallConfig());
    ASSERT_NE(entry, nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    FrameServer srv(reg, cfg); // ladder disabled: the site still works

    // Two sessions of the scene at different cameras, so neither joins
    // the other's render: every frame is drawn by the scene's own
    // floor-rung renderer.
    const nerf::Camera cams[2] = {
        nerf::cameraForScene(entry->info, 16, 16),
        nerf::orbitCameraPath(entry->info, 16, 16, 2)[1]};
    ASSERT_FALSE(cams[0].identical(cams[1]));
    uint64_t clients[2];
    for (int v = 0; v < 2; ++v)
        clients[v] = srv.openSession("lego", QosClass::Standard);

    fault::arm(fault::kServerAdmitDegrade, 1.0);
    std::map<uint64_t, int> view_of; // ticket -> index into cams
    for (int f = 0; f < 3; ++f)
        for (int v = 0; v < 2; ++v)
            view_of[srv.submitFrame(clients[v], cams[v])] = v;
    srv.waitIdle();

    // The floor rung renders at half resolution with the ladder's
    // reduced sample budget.
    const core::AsdrRenderer floor_rung(
        *entry->field,
        applyRung(entry->config, QualityRung::Quantized8, cfg.ladder));
    const Image want[2] = {floor_rung.render(cams[0].scaledTo(8, 8)),
                           floor_rung.render(cams[1].scaledTo(8, 8))};

    std::vector<FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 6u);
    std::set<uint64_t> seen;
    for (const auto &r : results) {
        EXPECT_TRUE(seen.insert(r.ticket).second) << "duplicate result";
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.rung, QualityRung::Quantized8);
        // The consumer upscales back to the requested full_width x
        // full_height.
        EXPECT_EQ(r.full_width, 16);
        EXPECT_EQ(r.full_height, 16);
        EXPECT_EQ(r.frame.image.width(), 8);
        EXPECT_EQ(r.frame.image.height(), 8);
        auto view = view_of.find(r.ticket);
        ASSERT_NE(view, view_of.end()) << "unknown ticket " << r.ticket;
        expectFramesIdentical(want[view->second], r.frame.image,
                              "floor-rung frame");
    }
    EXPECT_EQ(seen.size(), view_of.size());
    EXPECT_EQ(srv.stats().cls[1].degraded, 6u);
    const std::string text = srv.metricsText();
    EXPECT_EQ(expositionValue(text, "asdr_frames_served_total{qos=\""
                                    "standard\",rung=\"quantized8\"}"),
              6.0);
    EXPECT_EQ(expositionValue(text, "asdr_scene_frames_served_total{scene="
                                    "\"lego\",rung=\"quantized8\"}"),
              6.0);
    for (uint64_t c : clients)
        srv.closeSession(c);
}

TEST(ServerLadder, DegradedRungsShareTheScenesOccupancyGrid)
{
    // A scene's degraded-rung renderers share its full-rung renderer's
    // occupancy grid, so once a full-rung frame has built it no
    // degraded frame pays for a build: the first floor-rung frame of a
    // pose evaluates exactly the density points a repeat of it does.
    FaultGuard guard;
    auto lego = scene::createScene("Lego");
    const nerf::ProceduralField field(*lego, nerf::NgpModelConfig::fast());
    DensityCountingField counting(field);
    SceneRegistry reg;
    ASSERT_NE(reg.addShared("lego", counting, smallConfig(), lego->info()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    FrameServer srv(reg, cfg);
    const uint64_t client = srv.openSession("lego", QosClass::Standard);
    const nerf::Camera full = nerf::cameraForScene(lego->info(), 16, 16);
    const auto path = nerf::orbitCameraPath(lego->info(), 16, 16, 3);
    const nerf::Camera &pose = path[1];

    auto serve = [&](const nerf::Camera &cam, QualityRung want) {
        const uint64_t before = counting.points.load();
        EXPECT_NE(srv.submitFrame(client, cam), 0u);
        srv.waitIdle();
        std::vector<FrameResult> results;
        srv.drainResults(results);
        EXPECT_EQ(results.size(), 1u);
        for (const FrameResult &r : results) {
            EXPECT_TRUE(r.ok());
            EXPECT_EQ(r.rung, want);
        }
        return counting.points.load() - before;
    };
    serve(full, QualityRung::Full); // builds the scene's grid

    fault::arm(fault::kServerAdmitDegrade, 1.0);
    const uint64_t first = serve(pose, QualityRung::Quantized8);
    // Another view in between, so the repeat renders rather than being
    // answered from the scene's last render.
    serve(path[2], QualityRung::Quantized8);
    const uint64_t repeat = serve(pose, QualityRung::Quantized8);
    EXPECT_GT(first, 0u);
    EXPECT_EQ(first, repeat);
    srv.closeSession(client);
}

TEST(FaultSites, IntrospectionListsEveryCompiledInSite)
{
    const auto &sites = fault::sites();
    std::set<std::string> names;
    for (const auto &s : sites) {
        EXPECT_NE(s.name, nullptr);
        EXPECT_NE(s.description, nullptr);
        EXPECT_GT(std::strlen(s.description), 0u) << s.name;
        names.insert(s.name);
    }
    EXPECT_EQ(names.size(), sites.size()) << "duplicate site names";
    for (const char *want :
         {fault::kSocketRecv, fault::kSocketSend, fault::kEngineStageThrow,
          fault::kEngineStageStall, fault::kServerDeliverStall,
          fault::kServerAdmitDegrade})
        EXPECT_TRUE(names.count(want)) << want;
}

// ----------------------------------------------------------------- wire

namespace {

/** Registry + FrameServer + RenderService on an ephemeral port. */
struct WireHarness
{
    SceneRegistry registry;
    std::unique_ptr<FrameServer> srv;
    std::unique_ptr<net::RenderService> service;

    explicit WireHarness(const ServerConfig &scfg_in = {})
    {
        EXPECT_NE(registry.addProcedural("Lego", "Lego",
                                         nerf::NgpModelConfig::fast(),
                                         smallConfig()),
                  nullptr);
        ServerConfig scfg = scfg_in;
        if (scfg.threads_per_shard == 0)
            scfg.threads_per_shard = 1;
        srv = std::make_unique<FrameServer>(registry, scfg);
        service = std::make_unique<net::RenderService>(*srv);
        std::string err;
        EXPECT_TRUE(service->start(&err)) << err;
    }

    ~WireHarness()
    {
        service.reset();
        srv.reset();
    }

    uint16_t port() const { return service->port(); }

    net::CameraSpec specAt(float angle, int w, int h) const
    {
        const scene::SceneInfo &info = registry.find("Lego")->info;
        net::CameraSpec cs;
        cs.pos = nerf::orbitPosition(info, angle);
        cs.look_at = info.look_at;
        cs.fov_deg = info.fov_deg;
        cs.width = uint16_t(w);
        cs.height = uint16_t(h);
        return cs;
    }
};

} // namespace

TEST(WireLadder, RungTravelsAndClientUpscales)
{
    FaultGuard guard;
    WireHarness h;

    net::Client c;
    std::string err;
    ASSERT_TRUE(c.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t s = c.openSession("Lego", QosClass::Standard,
                                     net::FrameEncoding::Raw, &err);
    ASSERT_NE(s, 0u) << err;

    // Two degraded frames: the floor rung travels on the wire, the
    // message encoding is forced to Quantized8, and the client hands
    // back a frame upscaled to the requested resolution.
    fault::arm(fault::kServerAdmitDegrade, 1.0, /*max_fires=*/2);
    for (int f = 0; f < 2; ++f) {
        ASSERT_NE(c.submitFrame(s, h.specAt(0.1f * float(f), 24, 24),
                                &err),
                  0u)
            << err;
        net::ClientFrame frame;
        ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
        ASSERT_TRUE(frame.ok()) << frame.error;
        EXPECT_EQ(frame.rung, QualityRung::Quantized8);
        EXPECT_EQ(frame.encoding, net::FrameEncoding::Quantized8);
        EXPECT_TRUE(frame.upscaled);
        EXPECT_EQ(frame.full_width, 24);
        EXPECT_EQ(frame.image.width(), 24);
        EXPECT_EQ(frame.image.height(), 24);
    }

    // The site is capped: the next frame is Full at native resolution.
    ASSERT_NE(c.submitFrame(s, h.specAt(0.3f, 24, 24), &err), 0u) << err;
    net::ClientFrame frame;
    ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
    ASSERT_TRUE(frame.ok()) << frame.error;
    EXPECT_EQ(frame.rung, QualityRung::Full);
    EXPECT_FALSE(frame.upscaled);
    EXPECT_EQ(frame.image.width(), 24);

    // The wire scrape counts both rungs.
    std::string text;
    ASSERT_TRUE(c.fetchMetricsText(text, &err)) << err;
    EXPECT_EQ(expositionValue(text, "asdr_frames_served_total{qos=\""
                                    "standard\",rung=\"quantized8\"}"),
              2.0);
    EXPECT_EQ(expositionValue(text, "asdr_frames_served_total{qos=\""
                                    "standard\",rung=\"full\"}"),
              1.0);
    c.closeSession(s, &err);
}

TEST(WireLadder, DeltaChainSurvivesInterleavedDegradedFrames)
{
    FaultGuard guard;
    WireHarness h;
    const int frames = 5;

    // Reference: an uninterrupted DeltaPrev stream.
    std::vector<Image> ref;
    {
        net::Client a;
        std::string err;
        ASSERT_TRUE(a.connect("127.0.0.1", h.port(), &err)) << err;
        const uint64_t s = a.openSession(
            "Lego", QosClass::Standard, net::FrameEncoding::DeltaPrev,
            &err);
        ASSERT_NE(s, 0u) << err;
        for (int f = 0; f < frames; ++f) {
            ASSERT_NE(a.submitFrame(s, h.specAt(0.08f * float(f), 24, 24),
                                    &err),
                      0u);
            net::ClientFrame frame;
            ASSERT_TRUE(a.nextFrame(frame, &err)) << err;
            ASSERT_TRUE(frame.ok());
            ref.push_back(frame.image);
        }
        a.closeSession(s, &err);
    }

    // The same DeltaPrev stream with frames 1-2 forced to the floor
    // rung: those arrive degraded (Quantized8 message, upscaled), and
    // every FULL frame after them still decodes byte-exactly -- the
    // delta reference chain ignores degraded deliveries on both ends.
    net::Client b;
    std::string err;
    ASSERT_TRUE(b.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t s = b.openSession(
        "Lego", QosClass::Standard, net::FrameEncoding::DeltaPrev, &err);
    ASSERT_NE(s, 0u) << err;
    for (int f = 0; f < frames; ++f) {
        if (f == 1)
            fault::arm(fault::kServerAdmitDegrade, 1.0, /*max_fires=*/2);
        ASSERT_NE(b.submitFrame(s, h.specAt(0.08f * float(f), 24, 24),
                                &err),
                  0u);
        net::ClientFrame frame;
        ASSERT_TRUE(b.nextFrame(frame, &err)) << err;
        ASSERT_TRUE(frame.ok());
        if (f == 1 || f == 2) {
            EXPECT_EQ(frame.rung, QualityRung::Quantized8);
            EXPECT_TRUE(frame.upscaled);
        } else {
            EXPECT_EQ(frame.rung, QualityRung::Full);
            expectFramesIdentical(ref[size_t(f)], frame.image,
                                  "Full frame after degraded interleave");
        }
    }
    b.closeSession(s, &err);
}

TEST(WireLadder, HoldLastFrameSubstitutesOnPayloadlessResults)
{
    ServerConfig scfg;
    scfg.qos.cls[0].max_backlog = 2;
    scfg.frames_in_flight_per_shard = 1;
    WireHarness h(scfg);

    net::Client c;
    std::string err;
    ASSERT_TRUE(c.connect("127.0.0.1", h.port(), &err)) << err;
    c.setHoldLastFrame(true);
    EXPECT_TRUE(c.holdLastFrame());
    const uint64_t s = c.openSession("Lego", QosClass::Interactive,
                                     net::FrameEncoding::Raw, &err);
    ASSERT_NE(s, 0u) << err;

    // Establish the fallback image.
    ASSERT_NE(c.submitFrame(s, h.specAt(0.0f, 24, 24), &err), 0u) << err;
    net::ClientFrame first;
    ASSERT_TRUE(c.nextFrame(first, &err)) << err;
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first.stale);
    const Image held = first.image;

    // Pause the worker and overflow the interactive backlog: drop-oldest
    // sheds some tickets, whose results arrive payload-less.
    EnginePause pause(h.srv->engine());
    const int burst = 8;
    for (int f = 0; f < burst; ++f)
        ASSERT_NE(c.submitFrame(s, h.specAt(0.05f * float(f + 1), 24, 24),
                                &err),
                  0u)
            << err;
    pause.release();
    h.srv->waitIdle();

    int dropped = 0, ok = 0;
    for (int f = 0; f < burst; ++f) {
        net::ClientFrame frame;
        ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
        if (frame.status == net::FrameStatus::Dropped) {
            ++dropped;
            // The real outcome still shows, but the image is the
            // session's previous delivered frame, flagged stale.
            EXPECT_TRUE(frame.stale);
            ASSERT_GT(frame.image.pixels(), 0u);
            expectFramesIdentical(held, frame.image,
                                  "hold-last-frame substitute");
        } else if (frame.ok()) {
            ++ok;
            EXPECT_FALSE(frame.stale);
        }
    }
    EXPECT_GT(dropped, 0) << "burst never overflowed the backlog";
    EXPECT_GT(ok, 0);
    c.closeSession(s, &err);
}

// ------------------------------------------------- workload ladder view

TEST(WorkloadLadder, ReportsDegradedFractionAndMeanRung)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.qos.cls[0].max_backlog = 2;
    cfg.qos.cls[0].degraded_backlog = 8;
    cfg.ladder.enabled = true;
    FrameServer srv(reg, cfg);

    WorkloadSpec spec;
    spec.scenes = {"lego"};
    spec.clients[int(QosClass::Interactive)] = 1;
    spec.clients[int(QosClass::Standard)] = 0;
    spec.clients[int(QosClass::Batch)] = 0;
    spec.frames_per_client = 8;
    spec.width = 16;
    spec.height = 16;
    spec.burst = 6; // pending climbs past max_backlog into the stretch
    const WorkloadReport report = runWorkload(srv, reg, spec);

    const QosClassStats &s = report.stats.cls[0];
    EXPECT_EQ(s.dropped, 0u); // the stretch absorbed the whole burst
    EXPECT_EQ(s.served, 8u);
    EXPECT_GT(s.degraded, 0u);
    // The report's run-scoped view matches the (fresh) server totals.
    EXPECT_DOUBLE_EQ(report.degraded_fraction[0], s.degradedFraction());
    EXPECT_DOUBLE_EQ(report.mean_rung[0], s.meanRung());
    EXPECT_GT(report.degraded_fraction[0], 0.0);
    EXPECT_GT(report.mean_rung[0], 0.0);
}
