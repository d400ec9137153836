/**
 * @file
 * Fault-tolerance guarantees of the serving stack, driven by the
 * deterministic injection framework (util/fault):
 *
 *  - The framework itself: seeded replay (same seed + same call
 *    sequence = same firings), firing caps, env-style spec parsing.
 *  - FrameServer robustness: per-class deadlines expire queued frames
 *    via the watchdog; the per-scene circuit breaker quarantines a
 *    failing scene, fails fast while open, and recovers through a
 *    half-open probe; injected stage throws are bounded and isolated;
 *    a stuck stage surfaces in the watchdog's stuck counters.
 *  - The renderer: an occupancy-grid build that throws fails its frame,
 *    and the next frame builds the grid again.
 *  - Wire resilience: kill-and-resume keeps the DeltaPrev chain
 *    byte-exact (in-band re-seed); a mid-flight disconnect parks every
 *    outstanding ticket for replay after resume; client errors are
 *    typed (transient vs fatal); a single injected
 *    socket fault heals transparently through submitFrameRetry.
 *
 * Every ticket produces exactly one result under every fault class --
 * the invariant each test asserts alongside its specific behavior.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/renderer.hpp"
#include "net/client.hpp"
#include "net/render_service.hpp"
#include "net/socket.hpp"
#include "nerf/camera.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "scene/scene_library.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"
#include "util/fault.hpp"

#include "exposition.hpp"

using namespace asdr;
using namespace asdr::net;

namespace {

core::RenderConfig
smallConfig()
{
    core::RenderConfig cfg = core::RenderConfig::asdr(16, 16, 32);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;
    return cfg;
}

/** The fault table is process-global; every test arms inside a guard
 *  so a failing assertion cannot leak faults into the next test. */
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

/** A field that throws while `poisoned` is set and renders normally
 *  otherwise -- the breaker's trip-then-recover tenant. */
struct FlakyField : nerf::ProceduralField
{
    std::atomic<bool> *poisoned;

    FlakyField(const scene::AnalyticScene &scene,
               const nerf::NgpModelConfig &cfg, std::atomic<bool> *p)
        : ProceduralField(scene, cfg), poisoned(p)
    {
    }
    nerf::DensityOutput density(const Vec3 &p) const override
    {
        if (poisoned->load())
            throw std::runtime_error("flaky field poisoned");
        return ProceduralField::density(p);
    }
    void densityBatch(const Vec3 *p, int n,
                      nerf::DensityOutput *out) const override
    {
        if (poisoned->load())
            throw std::runtime_error("flaky field poisoned");
        ProceduralField::densityBatch(p, n, out);
    }
};

/** Registry + FrameServer + RenderService on an ephemeral loopback
 *  port, with the Lego and Chair library scenes registered. */
struct Harness
{
    server::SceneRegistry registry;
    std::unique_ptr<server::FrameServer> srv;
    std::unique_ptr<RenderService> service;

    explicit Harness(const ServiceConfig &ncfg = {},
                     const server::ServerConfig &scfg_in = {})
    {
        EXPECT_NE(registry.addProcedural("Lego", "Lego",
                                         nerf::NgpModelConfig::fast(),
                                         smallConfig()),
                  nullptr);
        EXPECT_NE(registry.addProcedural("Chair", "Chair",
                                         nerf::NgpModelConfig::fast(),
                                         smallConfig()),
                  nullptr);
        server::ServerConfig scfg = scfg_in;
        if (scfg.threads_per_shard == 0)
            scfg.threads_per_shard = 1;
        srv = std::make_unique<server::FrameServer>(registry, scfg);
        service = std::make_unique<RenderService>(*srv, ncfg);
        std::string err;
        EXPECT_TRUE(service->start(&err)) << err;
    }

    ~Harness()
    {
        // Quiesce the socket side before the server dies.
        service.reset();
        srv.reset();
    }

    uint16_t port() const { return service->port(); }
};

/** An orbit as CameraSpecs (constructor parameters travel, so both
 *  endpoints build bit-identical cameras). */
std::vector<CameraSpec>
orbitSpecs(const scene::SceneInfo &info, int frames, float step, int w,
           int h)
{
    std::vector<CameraSpec> path;
    for (int f = 0; f < frames; ++f) {
        CameraSpec cs;
        cs.pos = nerf::orbitPosition(info, step * float(f));
        cs.look_at = info.look_at;
        cs.fov_deg = info.fov_deg;
        cs.width = uint16_t(w);
        cs.height = uint16_t(h);
        path.push_back(cs);
    }
    return path;
}

} // namespace

// ------------------------------------------------------ fault framework

TEST(FaultFramework, SeededReplayIsDeterministic)
{
    FaultGuard guard;

    fault::setSeed(0xABCDEF12345ull);
    fault::arm("test.site", 0.5);
    std::vector<bool> first;
    for (int i = 0; i < 64; ++i)
        first.push_back(fault::fire("test.site"));
    const uint64_t fired = fault::fireCount("test.site");
    // p=0.5 over 64 draws: both outcomes occur (P[all-same] = 2^-63).
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, 64u);

    fault::resetAll();
    EXPECT_FALSE(fault::enabled());
    EXPECT_EQ(fault::fireCount("test.site"), 0u);

    // Same seed, same call sequence: bit-identical firing pattern.
    fault::setSeed(0xABCDEF12345ull);
    fault::arm("test.site", 0.5);
    std::vector<bool> second;
    for (int i = 0; i < 64; ++i)
        second.push_back(fault::fire("test.site"));
    EXPECT_EQ(first, second);
}

TEST(FaultFramework, FiringCapAndCounts)
{
    FaultGuard guard;

    fault::arm("test.cap", 1.0, /*max_fires=*/3);
    int fires = 0;
    for (int i = 0; i < 10; ++i)
        fires += fault::fire("test.cap") ? 1 : 0;
    EXPECT_EQ(fires, 3);
    EXPECT_EQ(fault::fireCount("test.cap"), 3u);

    // Disarmed sites never fire; unknown sites read as never armed.
    fault::disarm("test.cap");
    EXPECT_FALSE(fault::fire("test.cap"));
    EXPECT_EQ(fault::fireCount("never.armed"), 0u);
}

TEST(FaultFramework, SpecStringArmsSitesAndRejectsGarbage)
{
    FaultGuard guard;
    std::string err;

    ASSERT_TRUE(fault::armFromSpec(
        "socket.recv=1:2,engine.stage.throw=0.5", &err))
        << err;
    EXPECT_TRUE(fault::enabled());
    EXPECT_TRUE(fault::fire(fault::kSocketRecv));
    EXPECT_TRUE(fault::fire(fault::kSocketRecv));
    EXPECT_FALSE(fault::fire(fault::kSocketRecv)); // capped at 2

    fault::resetAll();
    EXPECT_FALSE(fault::armFromSpec("socket.recv=banana", &err));
    EXPECT_FALSE(fault::armFromSpec("no-equals-sign", &err));
}

// --------------------------------------------- deadlines and watchdog

TEST(FrameServerFault, DeadlineExpiresQueuedFramesViaWatchdog)
{
    FaultGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.qos.cls[0].deadline_ms = 40.0;
    cfg.qos.cls[0].max_backlog = 16; // keep the backlog policy out
    cfg.watchdog_period_ms = 10;
    // Far above any frame's latency: the recorder keeps the expiries
    // alone.
    cfg.slow_frame_ms = 60000.0;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Interactive);
    ASSERT_NE(client, 0u);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    // The first frame takes the only slot and stalls well past the
    // deadline; the five queued behind it must expire via the watchdog
    // (nothing pumps the scheduler while the slot is held).
    fault::arm(fault::kEngineStageStall, 1.0, /*max_fires=*/1,
               /*delay_ms=*/250.0);
    std::set<uint64_t> tickets;
    testing::internal::CaptureStderr();
    for (int f = 0; f < 6; ++f) {
        const uint64_t t = srv.submitFrame(client, cam);
        EXPECT_NE(t, 0u);
        tickets.insert(t);
    }
    srv.waitIdle();
    const std::string log = testing::internal::GetCapturedStderr();

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 6u);
    std::set<uint64_t> seen;
    int ok = 0, expired = 0;
    for (const auto &r : results) {
        EXPECT_TRUE(seen.insert(r.ticket).second) << "duplicate result";
        if (r.ok())
            ++ok;
        if (r.expired) {
            ++expired;
            EXPECT_FALSE(r.ok());
            EXPECT_EQ(r.frame.image.pixels(), 0u);
        }
    }
    EXPECT_EQ(seen, tickets);
    // Admitted frames always run to completion; queued ones expired.
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(expired, 5);

    const auto snap = srv.stats();
    EXPECT_EQ(snap.cls[0].served, 1u);
    EXPECT_EQ(snap.cls[0].expired, 5u);

    // Each expiry is recorded once, where the watchdog decided it, with
    // no stage times (it never rendered), and dumped to the log.
    EXPECT_EQ(snap.slow_frame_count, 5u);
    for (const auto &r : results) {
        if (!r.expired)
            continue;
        int records = 0;
        for (const auto &rec : snap.slow_frames)
            if (rec.ticket == r.ticket) {
                ++records;
                EXPECT_TRUE(rec.expired);
                EXPECT_EQ(rec.render_ticket, 0u);
                for (const auto &sec : rec.stage_s)
                    EXPECT_FALSE(sec.has_value()) << "ticket " << r.ticket;
            }
        EXPECT_EQ(records, 1) << "ticket " << r.ticket;
        EXPECT_NE(log.find("slow frame: ticket " + std::to_string(r.ticket) +
                           " (interactive)"),
                  std::string::npos)
            << "ticket " << r.ticket << " not dumped:\n" << log;
    }
    srv.closeSession(client);
}

TEST(FrameServerFault, StuckStageSurfacesInWatchdogCounters)
{
    FaultGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.watchdog_period_ms = 10;
    cfg.stuck_after_ms = 30.0;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Standard);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    fault::arm(fault::kEngineStageStall, 1.0, /*max_fires=*/1,
               /*delay_ms=*/150.0);
    const uint64_t t = srv.submitFrame(client, cam);
    ASSERT_NE(t, 0u);
    srv.waitIdle();

    // The stalled frame crossed the 30ms threshold: counted as a stuck
    // event, surfaced (never killed), and still served exactly once.
    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_GE(srv.stats().stuck_events, 1u);
    EXPECT_GE(expositionValue(srv.metricsText(), "asdr_stuck_events_total"),
              1.0);
    srv.closeSession(client);
}

// ------------------------------------------------------ circuit breaker

TEST(FrameServerFault, BreakerQuarantinesFastFailsAndRecovers)
{
    auto scn = scene::createScene("Lego");
    std::atomic<bool> poisoned{true};
    FlakyField flaky(*scn, nerf::NgpModelConfig::fast(), &poisoned);

    server::SceneRegistry reg;
    ASSERT_NE(reg.addShared("flaky", flaky, smallConfig(), scn->info()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.open_s = 0.2;
    cfg.breaker.half_open_probes = 1;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("flaky", server::QosClass::Standard);
    ASSERT_NE(client, 0u);
    const nerf::Camera cam = nerf::cameraForScene(scn->info(), 16, 16);
    using BS = server::FrameServer::BreakerState;

    // Two consecutive render failures trip the breaker.
    EXPECT_EQ(srv.breakerState("flaky"), BS::Closed);
    srv.submitFrame(client, cam);
    srv.submitFrame(client, cam);
    srv.waitIdle();
    EXPECT_EQ(srv.breakerState("flaky"), BS::Open);

    // Open: frames fail fast at admission, no render attempted.
    srv.submitFrame(client, cam);
    srv.submitFrame(client, cam);
    srv.waitIdle();
    EXPECT_EQ(srv.breakerState("flaky"), BS::Open);

    // Heal the scene and wait out the quarantine: the next frame is
    // admitted as a half-open probe, and its success closes the
    // breaker for good.
    poisoned = false;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    srv.submitFrame(client, cam);
    srv.waitIdle();
    EXPECT_EQ(srv.breakerState("flaky"), BS::Closed);
    srv.submitFrame(client, cam);
    srv.submitFrame(client, cam);
    srv.waitIdle();
    EXPECT_EQ(srv.breakerState("flaky"), BS::Closed);

    // One result per ticket across every breaker phase.
    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 7u);
    std::set<uint64_t> seen;
    int served = 0, failed = 0;
    for (const auto &r : results) {
        EXPECT_TRUE(seen.insert(r.ticket).second) << "duplicate result";
        if (r.ok())
            ++served;
        else if (r.error)
            ++failed;
    }
    EXPECT_EQ(served, 3);
    EXPECT_EQ(failed, 4);

    const auto snap = srv.stats();
    EXPECT_EQ(snap.cls[1].served, 3u);
    EXPECT_EQ(snap.cls[1].failed, 4u);
    ASSERT_EQ(snap.scenes.size(), 1u);
    EXPECT_EQ(snap.scenes[0].breaker_opens, 1u);
    EXPECT_EQ(snap.scenes[0].breaker_fast_fails, 2u);
    EXPECT_EQ(snap.scenes[0].breaker_state, uint8_t(BS::Closed));
    const std::string text = srv.metricsText();
    EXPECT_EQ(expositionValue(
                  text, "asdr_scene_breaker_opens_total{scene=\"flaky\"}"),
              1.0);
    EXPECT_EQ(expositionValue(
                  text,
                  "asdr_scene_breaker_fast_fails_total{scene=\"flaky\"}"),
              2.0);
    EXPECT_EQ(expositionValue(text,
                              "asdr_scene_breaker_state{scene=\"flaky\"}"),
              0.0);
    srv.closeSession(client);
}

TEST(FrameServerFault, ExpiredFramesDoNotCountAsBreakerFailures)
{
    FaultGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.qos.cls[0].deadline_ms = 40.0;
    cfg.qos.cls[0].max_backlog = 16;
    cfg.watchdog_period_ms = 10;
    // A breaker twitchy enough that deadline expiries WOULD trip it if
    // they were (wrongly) fed into the failure machine.
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.open_s = 30.0;
    server::FrameServer srv(reg, cfg);
    using BS = server::FrameServer::BreakerState;

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Interactive);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    // One stalled frame holds the only slot; the four queued behind it
    // blow their 40ms deadline via the watchdog -- four consecutive
    // non-served outcomes, zero of them a render failure.
    fault::arm(fault::kEngineStageStall, 1.0, /*max_fires=*/1,
               /*delay_ms=*/250.0);
    std::set<uint64_t> tickets;
    for (int f = 0; f < 5; ++f)
        tickets.insert(srv.submitFrame(client, cam));
    srv.waitIdle();

    auto snap = srv.stats();
    EXPECT_EQ(snap.cls[0].expired, 4u);
    EXPECT_EQ(snap.cls[0].failed, 0u);
    // The breaker never saw a failure: still closed, never opened.
    EXPECT_EQ(srv.breakerState("lego"), BS::Closed);
    ASSERT_EQ(snap.scenes.size(), 1u);
    EXPECT_EQ(snap.scenes[0].breaker_opens, 0u);
    EXPECT_EQ(snap.scenes[0].breaker_fast_fails, 0u);

    // And the scene is still being served normally afterwards.
    tickets.insert(srv.submitFrame(client, cam));
    srv.waitIdle();
    EXPECT_EQ(srv.breakerState("lego"), BS::Closed);

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 6u);
    std::set<uint64_t> seen;
    for (const auto &r : results)
        EXPECT_TRUE(seen.insert(r.ticket).second) << "duplicate result";
    EXPECT_EQ(seen, tickets);
    srv.closeSession(client);
}

TEST(FrameServerFault, ExpiryDoesNotReopenHalfOpenBreaker)
{
    FaultGuard guard;

    auto scn = scene::createScene("Lego");
    std::atomic<bool> poisoned{true};
    FlakyField flaky(*scn, nerf::NgpModelConfig::fast(), &poisoned);

    server::SceneRegistry reg;
    ASSERT_NE(reg.addShared("flaky", flaky, smallConfig(), scn->info()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.qos.cls[1].deadline_ms = 60.0;
    cfg.qos.cls[1].max_backlog = 16;
    cfg.watchdog_period_ms = 10;
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.open_s = 0.15;
    cfg.breaker.half_open_probes = 1;
    server::FrameServer srv(reg, cfg);
    using BS = server::FrameServer::BreakerState;

    const uint64_t client =
        srv.openSession("flaky", server::QosClass::Standard);
    const nerf::Camera cam = nerf::cameraForScene(scn->info(), 16, 16);

    // Trip the breaker, then heal the scene and wait out quarantine.
    srv.submitFrame(client, cam);
    srv.submitFrame(client, cam);
    srv.waitIdle();
    ASSERT_EQ(srv.breakerState("flaky"), BS::Open);
    poisoned = false;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));

    // The next admission goes out as the half-open probe -- stalled
    // long enough that a frame queued behind it expires while the
    // probe is still in flight.
    fault::arm(fault::kEngineStageStall, 1.0, /*max_fires=*/1,
               /*delay_ms=*/400.0);
    srv.submitFrame(client, cam); // probe (stalls 400ms)
    srv.submitFrame(client, cam); // queued; expires at 60ms
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // The queued frame has expired by now. If expiry were treated as a
    // probe/render failure the breaker would have snapped back to
    // Open; it must still be waiting on the real probe.
    EXPECT_EQ(srv.breakerState("flaky"), BS::HalfOpen);
    EXPECT_GE(srv.stats().cls[1].expired, 1u);

    // The probe's SUCCESS is what decides: breaker closes.
    srv.waitIdle();
    EXPECT_EQ(srv.breakerState("flaky"), BS::Closed);

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 4u);
    std::set<uint64_t> seen;
    int served = 0, failed = 0, expired = 0;
    for (const auto &r : results) {
        EXPECT_TRUE(seen.insert(r.ticket).second) << "duplicate result";
        if (r.ok())
            ++served;
        else if (r.expired)
            ++expired;
        else if (r.error)
            ++failed;
    }
    EXPECT_EQ(served, 1);  // the healed probe
    EXPECT_EQ(failed, 2);  // the two that tripped the breaker
    EXPECT_EQ(expired, 1); // the deadline victim -- never a "failure"
    const auto snap = srv.stats();
    ASSERT_EQ(snap.scenes.size(), 1u);
    EXPECT_EQ(snap.scenes[0].breaker_opens, 1u); // opened once, ever
    EXPECT_EQ(expositionValue(
                  srv.metricsText(),
                  "asdr_scene_breaker_opens_total{scene=\"flaky\"}"),
              1.0);
    srv.closeSession(client);
}

TEST(FrameServerFault, InjectedStageThrowsAreBoundedAndIsolated)
{
    FaultGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Standard);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    // Exactly two frames hit the injected compute fault; the rest of
    // the stream is untouched (no breaker configured, no quarantine).
    fault::arm(fault::kEngineStageThrow, 1.0, /*max_fires=*/2);
    std::set<uint64_t> tickets;
    for (int f = 0; f < 6; ++f)
        tickets.insert(srv.submitFrame(client, cam));
    srv.waitIdle();
    EXPECT_EQ(fault::fireCount(fault::kEngineStageThrow), 2u);

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 6u);
    std::set<uint64_t> seen;
    int ok = 0, failed = 0;
    for (const auto &r : results) {
        EXPECT_TRUE(seen.insert(r.ticket).second) << "duplicate result";
        if (r.ok())
            ++ok;
        else if (r.error)
            ++failed;
    }
    EXPECT_EQ(seen, tickets);
    EXPECT_EQ(ok, 4);
    EXPECT_EQ(failed, 2);
    srv.closeSession(client);
}

// ---------------------------------------------------- occupancy grid

TEST(GridBuildFault, ThrowingBuildFailsTheFrameAndTheNextFrameBuilds)
{
    // A renderer builds its occupancy grid from the field's densityBatch
    // in its first frame's ray setup. A build that throws fails that
    // frame and leaves the grid unbuilt; once the field heals, the next
    // frame builds it and matches a fresh renderer bit for bit.
    auto lego = scene::createScene("Lego");
    std::atomic<bool> poisoned{true};
    FlakyField flaky(*lego, nerf::NgpModelConfig::fast(), &poisoned);
    const core::RenderConfig cfg = smallConfig();
    const nerf::Camera cam = nerf::cameraForScene(lego->info(), 16, 16);
    const core::AsdrRenderer renderer(flaky, cfg);

    core::FrameState fs(cam);
    fs.shape = renderer.frameShape(cam.width(), cam.height());
    EXPECT_THROW(renderer.beginFrame(fs), std::runtime_error);
    EXPECT_THROW(renderer.render(cam), std::runtime_error);

    poisoned = false;
    const Image healed = renderer.render(cam);
    expectFramesIdentical(core::AsdrRenderer(flaky, cfg).render(cam), healed,
                          "frame after a failed build");
}

// --------------------------------------------------- reconnect-and-resume

TEST(WireFault, KillAndResumeKeepsDeltaChainByteExact)
{
    FaultGuard guard;

    ServiceConfig ncfg;
    ncfg.resume_grace_s = 5.0;
    Harness h(ncfg);
    const auto specs =
        orbitSpecs(h.registry.find("Lego")->info, 6, 0.08f, 32, 32);

    auto stream = [&](Client &c, uint64_t session, size_t begin,
                      size_t end, std::vector<Image> &out) {
        std::string err;
        for (size_t f = begin; f < end; ++f) {
            const uint64_t t = c.submitFrame(session, specs[f], &err);
            ASSERT_NE(t, 0u) << err;
            ClientFrame frame;
            ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
            ASSERT_TRUE(frame.ok()) << frame.error;
            EXPECT_EQ(frame.ticket, t);
            out.push_back(frame.image);
        }
    };

    // Reference: one uninterrupted DeltaPrev stream.
    std::vector<Image> ref;
    {
        Client a;
        std::string err;
        ASSERT_TRUE(a.connect("127.0.0.1", h.port(), &err)) << err;
        const uint64_t s = a.openSession(
            "Lego", server::QosClass::Standard, FrameEncoding::DeltaPrev,
            &err);
        ASSERT_NE(s, 0u) << err;
        stream(a, s, 0, 6, ref);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
        a.closeSession(s, &err);
    }

    // Same stream, killed after frame 3 and resumed: the server
    // re-seeds the delta chain in-band (frame 4 travels absolute), so
    // every decoded frame still matches the reference bit-for-bit.
    std::vector<Image> resumed;
    {
        Client b;
        std::string err;
        ASSERT_TRUE(b.connect("127.0.0.1", h.port(), &err)) << err;
        const uint64_t s = b.openSession(
            "Lego", server::QosClass::Standard, FrameEncoding::DeltaPrev,
            &err);
        ASSERT_NE(s, 0u) << err;
        stream(b, s, 0, 3, resumed);
        ASSERT_FALSE(testing::Test::HasFatalFailure());

        b.dropConnection();
        EXPECT_FALSE(b.connected());
        ASSERT_TRUE(b.reconnect(&err)) << err;

        stream(b, s, 3, 6, resumed);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
        b.closeSession(s, &err);
    }

    ASSERT_EQ(resumed.size(), ref.size());
    for (size_t f = 0; f < ref.size(); ++f)
        expectFramesIdentical(ref[f], resumed[f],
                              "kill-and-resume delta frame");
    EXPECT_GE(h.service->counters().sessions_resumed, 1u);
    EXPECT_GE(expositionValue(h.srv->metricsText(),
                              "asdr_wire_sessions_resumed_total"),
              1.0);
}

TEST(WireFault, MidFlightDisconnectParksEveryTicket)
{
    FaultGuard guard;

    ServiceConfig ncfg;
    ncfg.resume_grace_s = 5.0;
    Harness h(ncfg);

    // Slow the delivery path so the disconnect is always noticed
    // before the first result reaches the connection.
    fault::arm(fault::kServerDeliverStall, 1.0, /*max_fires=*/3,
               /*delay_ms=*/50.0);

    Client c;
    std::string err;
    ASSERT_TRUE(c.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t s = c.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
    ASSERT_NE(s, 0u) << err;

    const auto specs =
        orbitSpecs(h.registry.find("Lego")->info, 3, 0.08f, 24, 24);
    std::set<uint64_t> tickets;
    for (const auto &cs : specs) {
        const uint64_t t = c.submitFrame(s, cs, &err);
        ASSERT_NE(t, 0u) << err;
        tickets.insert(t);
    }

    // Kill the connection with all three frames in flight; every
    // result completes detached and parks in the session.
    c.dropConnection();
    h.srv->waitIdle();

    ASSERT_TRUE(c.reconnect(&err)) << err;
    std::set<uint64_t> seen;
    for (size_t i = 0; i < tickets.size(); ++i) {
        ClientFrame frame;
        ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
        EXPECT_TRUE(frame.status == FrameStatus::Ok ||
                    frame.status == FrameStatus::Shed)
            << int(frame.status);
        EXPECT_TRUE(seen.insert(frame.ticket).second)
            << "duplicate result";
    }
    EXPECT_EQ(seen, tickets);
    EXPECT_GE(h.service->counters().results_parked, 1u);
    const std::string text = h.srv->metricsText();
    EXPECT_GE(expositionValue(text, "asdr_wire_results_parked_total"), 1.0);
    EXPECT_GE(expositionValue(text, "asdr_wire_sessions_resumed_total"),
              1.0);
    c.closeSession(s, &err);
}

// ------------------------------------------------- typed client errors

TEST(ClientErrors, TypedClassificationAndTransience)
{
    Harness h;
    std::string err;

    {
        // Refused: the service answers with an Error message. Fatal.
        Client c;
        ASSERT_TRUE(c.connect("127.0.0.1", h.port(), &err)) << err;
        EXPECT_EQ(c.openSession("nope", server::QosClass::Standard,
                                FrameEncoding::Raw, &err),
                  0u);
        EXPECT_EQ(c.lastError(), ClientError::Refused);
        EXPECT_FALSE(isTransient(c.lastError()));
        EXPECT_STREQ(clientErrorName(c.lastError()), "refused");
    }
    {
        // Timeout: nothing to read within the receive window.
        Client c;
        ASSERT_TRUE(c.connect("127.0.0.1", h.port(), &err, 0.3)) << err;
        const uint64_t s = c.openSession(
            "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
        ASSERT_NE(s, 0u) << err;
        ClientFrame frame;
        EXPECT_FALSE(c.nextFrame(frame, &err));
        EXPECT_EQ(c.lastError(), ClientError::Timeout);
        EXPECT_TRUE(isTransient(c.lastError()));
    }
    {
        // IoError: dialing a dead endpoint (bound once, then closed,
        // so nothing listens there).
        uint16_t dead_port = 0;
        {
            TcpListener probe;
            ASSERT_TRUE(probe.bind("127.0.0.1", 0, &err)) << err;
            dead_port = probe.port();
        }
        Client c;
        EXPECT_FALSE(c.connect("127.0.0.1", dead_port, &err, 1.0));
        EXPECT_EQ(c.lastError(), ClientError::IoError);
        EXPECT_TRUE(isTransient(c.lastError()));
    }
}

TEST(ClientErrors, RetryBackoffIsBoundedAndJittered)
{
    RetryPolicy policy;
    policy.base_delay_s = 0.1;
    policy.multiplier = 2.0;
    policy.max_delay_s = 0.5;
    policy.jitter = 0.5;

    uint64_t rng = policy.seed;
    for (int attempt = 0; attempt < 8; ++attempt) {
        const double nominal =
            std::min(policy.max_delay_s,
                     0.1 * (attempt == 0   ? 1.0
                            : attempt == 1 ? 2.0
                            : attempt == 2 ? 4.0
                                           : 8.0));
        const double d = retryBackoff(policy, attempt, rng);
        // +-50% jitter around the capped exponential.
        EXPECT_GE(d, nominal * 0.5 - 1e-9) << attempt;
        EXPECT_LE(d, nominal * 1.5 + 1e-9) << attempt;
    }

    // Zero jitter is exactly the capped exponential, deterministic.
    policy.jitter = 0.0;
    uint64_t r1 = 7, r2 = 7;
    EXPECT_EQ(retryBackoff(policy, 1, r1), retryBackoff(policy, 1, r2));
    EXPECT_DOUBLE_EQ(retryBackoff(policy, 0, r1), 0.1);
    EXPECT_DOUBLE_EQ(retryBackoff(policy, 6, r1), 0.5);
}

// --------------------------------------------- end-to-end fault healing

TEST(WireFault, SingleSocketFaultHealsTransparently)
{
    FaultGuard guard;

    ServiceConfig ncfg;
    ncfg.resume_grace_s = 2.0;
    Harness h(ncfg);

    Client c;
    std::string err;
    ASSERT_TRUE(c.connect("127.0.0.1", h.port(), &err, 1.0)) << err;
    const uint64_t s = c.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::DeltaPrev,
        &err);
    ASSERT_NE(s, 0u) << err;

    const auto specs =
        orbitSpecs(h.registry.find("Lego")->info, 2, 0.08f, 24, 24);

    // Establish the stream, then poison exactly ONE socket read --
    // whichever endpoint reads next tears its connection down.
    const uint64_t t0 = c.submitFrame(s, specs[0], &err);
    ASSERT_NE(t0, 0u) << err;
    ClientFrame f0;
    ASSERT_TRUE(c.nextFrame(f0, &err)) << err;
    EXPECT_EQ(f0.ticket, t0);

    fault::arm(fault::kSocketRecv, 1.0, /*max_fires=*/1);
    const uint64_t t1 = c.submitFrameRetry(s, specs[1], {}, &err);
    ASSERT_NE(t1, 0u) << err; // healed via reconnect-and-resume

    // Drain until t1's result surfaces. At-least-once semantics: a
    // retry after a lost ack may have submitted the pose twice, so
    // other tickets' results (and one more transient hiccup) are
    // tolerated along the way.
    bool found = false;
    for (int i = 0; i < 10 && !found; ++i) {
        ClientFrame frame;
        if (!c.nextFrame(frame, &err)) {
            ASSERT_TRUE(isTransient(c.lastError())) << err;
            ASSERT_TRUE(c.reconnect(&err)) << err;
            continue;
        }
        if (frame.ticket == t1) {
            found = true;
            EXPECT_TRUE(frame.status == FrameStatus::Ok ||
                        frame.status == FrameStatus::Shed)
                << int(frame.status);
        }
    }
    EXPECT_TRUE(found) << "result for the retried ticket never arrived";
    EXPECT_EQ(fault::fireCount(fault::kSocketRecv), 1u);
    c.closeSession(s, &err);
}

// ----------------------------------------------------------- SLO burn

TEST(FrameServerFault, SloLatencyBreachFlipsBurnGaugeAndPinsOffenders)
{
    FaultGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.flight_recorder_frames = 16;
    // A 5ms p99 objective over test-scaled windows: every stalled
    // frame is budget-burning, so six of them push both windows far
    // over a burn of 1.
    cfg.slo.cls[int(server::QosClass::Standard)].target_p99_ms = 5.0;
    cfg.slo.fast_window_s = 0.2;
    cfg.slo.slow_window_s = 0.5;
    cfg.watchdog_period_ms = 10;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Standard);
    ASSERT_NE(client, 0u);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    // Deterministic latency injection: every frame's first stage
    // stalls 20ms, blowing the 5ms objective.
    fault::arm(fault::kEngineStageStall, 1.0, /*max_fires=*/6,
               /*delay_ms=*/20.0);
    std::set<uint64_t> tickets;
    for (int f = 0; f < 6; ++f) {
        const uint64_t t = srv.submitFrame(client, cam);
        ASSERT_NE(t, 0u);
        tickets.insert(t);
    }
    srv.waitIdle();

    const auto snap = srv.stats();
    const auto &cls = snap.cls[int(server::QosClass::Standard)];
    EXPECT_EQ(cls.served, 6u);
    // Bad fraction 1.0 against the implicit 1% latency budget: burn
    // 100x in both windows, well past the threshold of 1.
    EXPECT_GE(cls.slo_latency_fast_burn, 1.0);
    EXPECT_GE(cls.slo_latency_slow_burn, 1.0);
    EXPECT_EQ(cls.slo_latency_breached, 1);
    EXPECT_EQ(cls.slo_error_breached, 0);
    EXPECT_GE(cls.slo_breach_events, 1u);

    // The snapshot reads the server's series; the exposition renders
    // the same ones.
    const std::string text = srv.metricsText();
    EXPECT_EQ(expositionValue(
                  text, "asdr_slo_breach{qos=\"standard\",slo=\"latency\"}"),
              1.0);
    EXPECT_GE(expositionValue(text, "asdr_slo_latency_burn{qos=\"standard\","
                                    "window=\"fast\"}"),
              1.0);
    EXPECT_GE(
        expositionValue(text, "asdr_slo_breach_total{qos=\"standard\"}"),
        1.0);

    // Breaching frames were pinned into the flight recorder even
    // though slow_frame_ms never tripped (it is disabled here).
    ASSERT_FALSE(snap.slow_frames.empty());
    bool pinned = false;
    for (const auto &r : snap.slow_frames)
        if (tickets.count(r.ticket) && r.latency_ms > 5.0 && !r.failed)
            pinned = true;
    EXPECT_TRUE(pinned) << "no breaching ticket in the flight recorder";
    // Every breaching ticket was recorded as it was delivered, with its
    // render's stage times naming the injected ray-setup stall.
    for (uint64_t t : tickets) {
        const server::SlowFrameRecord *rec = nullptr;
        for (const auto &r : snap.slow_frames)
            if (r.ticket == t)
                rec = &r;
        ASSERT_NE(rec, nullptr) << "ticket " << t << " not recorded";
        ASSERT_TRUE(rec->stage_s[engine::kRaySetup].has_value())
            << "ticket " << t;
        EXPECT_GE(*rec->stage_s[engine::kRaySetup] * 1e3, 20.0)
            << "ticket " << t;
    }

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    EXPECT_EQ(results.size(), 6u);
    srv.closeSession(client);
}

TEST(FrameServerFault, SloAvailabilityBreachOnInjectedFaults)
{
    FaultGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.flight_recorder_frames = 16;
    cfg.slo.cls[int(server::QosClass::Standard)].max_error_fraction =
        0.2;
    cfg.slo.fast_window_s = 0.2;
    cfg.slo.slow_window_s = 0.5;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Standard);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    // Every frame's render throws: error fraction 1.0 against a 20%
    // budget burns at 5x in both windows.
    fault::arm(fault::kEngineStageThrow, 1.0, /*max_fires=*/4);
    for (int f = 0; f < 4; ++f)
        ASSERT_NE(srv.submitFrame(client, cam), 0u);
    srv.waitIdle();

    const auto snap = srv.stats();
    const auto &cls = snap.cls[int(server::QosClass::Standard)];
    EXPECT_EQ(cls.failed, 4u);
    EXPECT_GE(cls.slo_error_fast_burn, 1.0);
    EXPECT_GE(cls.slo_error_slow_burn, 1.0);
    EXPECT_EQ(cls.slo_error_breached, 1);
    EXPECT_GE(cls.slo_breach_events, 1u);
    const std::string text = srv.metricsText();
    EXPECT_EQ(expositionValue(text, "asdr_slo_breach{qos=\"standard\","
                                    "slo=\"availability\"}"),
              1.0);
    EXPECT_GE(
        expositionValue(text, "asdr_slo_breach_total{qos=\"standard\"}"),
        1.0);

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    EXPECT_EQ(results.size(), 4u);
    srv.closeSession(client);
}
