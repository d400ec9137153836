/**
 * @file
 * Guarantees of the multi-tenant render server (src/server):
 *
 *  - Bit-exactness under multiplexing: every frame served through the
 *    FrameServer -- any worker count or concurrent QoS mix -- is
 *    bitwise identical to the client's own sequential
 *    AsdrRenderer::render() call.
 *  - Scheduler properties: one order key per frame (ticket plus class
 *    lag) from admission to worker, so no frame is overtaken by more
 *    than its class's lag of later arrivals, even under sustained
 *    interactive load; bounded backlogs dropping oldest-first for
 *    interactive / newest for batch, drops reported in ServerStats.
 *  - Failure isolation: a client whose field throws gets its error in
 *    the FrameResult; the server keeps serving everyone else.
 *  - Registry sharing and session lifecycle: a close returns at once
 *    and calls back after the session's last result.
 *  - Coalescing: frames of one view (scene, class, rung, camera bits)
 *    admitted while it renders share that render, and each still gets
 *    its own result, counts and image; probes stay out of it.
 *  - One result per ticket, and overtaking within the class lag, under
 *    a seeded random mix of opens, submissions, closes, backlog drops
 *    and coalesced waiters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "scene/scene_library.hpp"
#include "server/frame_server.hpp"
#include "server/qos_scheduler.hpp"
#include "server/scene_registry.hpp"
#include "server/workload.hpp"
#include "util/fault.hpp"

#include "engine_pause.hpp"

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

void
expectFramesIdentical(const Image &a, const Image &b, const char *what)
{
    ASSERT_EQ(a.pixels(), b.pixels()) << what;
    for (size_t i = 0; i < a.pixels(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]) << what << " pixel " << i;
}

/** Frames as (ticket, class), in the order they were admitted or
 *  finished. */
using Order = std::vector<std::pair<uint64_t, QosClass>>;

/** Expects every frame of `order` to come after at most its class's
 *  qosLag frames with larger tickets; returns the most any frame had. */
uint64_t
expectOvertakenWithinLag(const Order &order)
{
    uint64_t most = 0;
    for (size_t k = 0; k < order.size(); ++k) {
        uint64_t overtakes = 0;
        for (size_t j = 0; j < k; ++j)
            overtakes += order[j].first > order[k].first ? 1 : 0;
        EXPECT_LE(overtakes, qosLag(order[k].second))
            << "ticket " << order[k].first << " ("
            << qosClassName(order[k].second) << ")";
        most = std::max(most, overtakes);
    }
    return most;
}

} // namespace

// ---------------------------------------------------------------- registry

TEST(SceneRegistry, EntriesAreSharedAndNamesUnique)
{
    SceneRegistry reg;
    const SceneEntry *lego = reg.addProcedural(
        "lego", "Lego", nerf::NgpModelConfig::fast(), smallConfig());
    ASSERT_NE(lego, nullptr);
    EXPECT_EQ(lego->name, "lego");
    EXPECT_NE(lego->field, nullptr);

    // Duplicate names are rejected.
    EXPECT_EQ(reg.addProcedural("lego", "Chair",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);

    // Shared (externally-owned) fields register without a copy.
    auto chair_scene = scene::createScene("Chair");
    nerf::ProceduralField chair_field(*chair_scene,
                                      nerf::NgpModelConfig::fast());
    const SceneEntry *chair = reg.addShared(
        "chair", chair_field, smallConfig(), chair_scene->info());
    ASSERT_NE(chair, nullptr);
    EXPECT_EQ(chair->field, &chair_field);

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.find("lego"), lego);
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.names().size(), 2u);
}

// --------------------------------------------------------------- scheduler

TEST(QosSchedulerUnit, AdmitsSmallestTicketPlusLag)
{
    QosScheduler sched(QosParams{});
    std::vector<PendingFrame> dropped;
    auto pushOne = [&](QosClass c, uint64_t ticket) {
        PendingFrame pf;
        pf.ticket = ticket;
        pf.client = ticket; // one frame per client: no backlog drops
        pf.qos = c;
        sched.push(std::move(pf), dropped);
    };
    // A batch frame, a standard frame, then 18 interactive frames.
    pushOne(QosClass::Batch, 1);    // key 17
    pushOne(QosClass::Standard, 2); // key 10
    for (uint64_t t = 3; t <= 20; ++t)
        pushOne(QosClass::Interactive, t); // key t
    ASSERT_TRUE(dropped.empty());

    // Smallest key first; on a tie the more urgent class goes first.
    int in_flight[kQosClasses] = {0, 0, 0};
    PendingFrame out;
    Order order;
    while (sched.pop(in_flight, {}, out))
        order.emplace_back(out.ticket, out.qos);
    std::vector<uint64_t> tickets;
    for (const auto &o : order)
        tickets.push_back(o.first);
    EXPECT_EQ(tickets, (std::vector<uint64_t>{3, 4, 5, 6, 7, 8, 9, 10, 2,
                                              11, 12, 13, 14, 15, 16, 17,
                                              1, 18, 19, 20}));
    // The standard frame waited out exactly its lag of later arrivals,
    // and so did the batch frame.
    EXPECT_EQ(expectOvertakenWithinLag(order), qosLag(QosClass::Batch));
}

TEST(QosSchedulerUnit, InFlightCapsGateAdmission)
{
    QosParams params;
    params.cls[int(QosClass::Interactive)].max_in_flight = 1;
    QosScheduler sched(params);
    std::vector<PendingFrame> dropped;

    PendingFrame pf;
    for (int f = 0; f < 2; ++f) {
        pf.ticket = uint64_t(f + 1);
        pf.client = 7;
        pf.qos = QosClass::Interactive;
        sched.push(pf, dropped);
    }
    int at_cap[kQosClasses] = {1, 0, 0};
    PendingFrame out;
    EXPECT_FALSE(sched.pop(at_cap, {}, out)); // interactive capped, rest empty
    int free_slots[kQosClasses] = {0, 0, 0};
    EXPECT_TRUE(sched.pop(free_slots, {}, out));
    EXPECT_EQ(out.ticket, 1u);
}

TEST(QosSchedulerUnit, OvertakingStaysWithinTheLagUnderSustainedLoad)
{
    QosScheduler sched(QosParams{});
    std::vector<PendingFrame> dropped;
    uint64_t ticket = 0;
    auto pushOne = [&](QosClass c) {
        PendingFrame pf;
        pf.ticket = ++ticket;
        pf.client = ticket;
        pf.qos = c;
        sched.push(std::move(pf), dropped);
    };
    // Standard and batch frames wait while interactive frames keep
    // arriving, one for every admission: the server's closed loop on
    // one slot.
    for (int f = 0; f < 3; ++f) {
        pushOne(QosClass::Standard);
        pushOne(QosClass::Batch);
    }
    pushOne(QosClass::Interactive);
    int in_flight[kQosClasses] = {0, 0, 0};
    PendingFrame out;
    Order order;
    for (int k = 0; k < 64; ++k) {
        ASSERT_TRUE(sched.pop(in_flight, {}, out));
        order.emplace_back(out.ticket, out.qos);
        pushOne(QosClass::Interactive);
    }
    ASSERT_TRUE(dropped.empty());
    // Every standard and batch frame was admitted, none after more
    // than its class's lag of later arrivals.
    int admitted[kQosClasses] = {0, 0, 0};
    for (const auto &o : order)
        admitted[int(o.second)]++;
    EXPECT_EQ(admitted[int(QosClass::Standard)], 3);
    EXPECT_EQ(admitted[int(QosClass::Batch)], 3);
    expectOvertakenWithinLag(order);
}

TEST(QosSchedulerUnit, BacklogPoliciesDropOldestOrNewest)
{
    QosParams params;
    params.cls[int(QosClass::Interactive)].max_backlog = 2;
    params.cls[int(QosClass::Batch)].max_backlog = 2;
    QosScheduler sched(params);
    std::vector<PendingFrame> dropped;

    auto pushTicket = [&](QosClass c, uint64_t ticket) {
        PendingFrame pf;
        pf.ticket = ticket;
        pf.client = 1;
        pf.qos = c;
        sched.push(std::move(pf), dropped);
    };

    // Interactive: drop-oldest keeps the stream current.
    for (uint64_t t = 1; t <= 4; ++t)
        pushTicket(QosClass::Interactive, t);
    ASSERT_EQ(dropped.size(), 2u);
    EXPECT_EQ(dropped[0].ticket, 1u);
    EXPECT_EQ(dropped[1].ticket, 2u);
    EXPECT_EQ(sched.pendingOf(QosClass::Interactive), 2u);

    // Batch: the newest submission is rejected instead.
    dropped.clear();
    for (uint64_t t = 11; t <= 14; ++t)
        pushTicket(QosClass::Batch, t);
    ASSERT_EQ(dropped.size(), 2u);
    EXPECT_EQ(dropped[0].ticket, 13u);
    EXPECT_EQ(dropped[1].ticket, 14u);

    // dropClient clears both queues.
    dropped.clear();
    sched.dropClient(1, dropped);
    EXPECT_EQ(dropped.size(), 4u);
    EXPECT_EQ(sched.pending(), 0u);
}

// ------------------------------------------------------------- bit-exactness

TEST(FrameServerMultiplex, BitExactAcrossQosMixesAndThreads)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ASSERT_NE(reg.addProcedural("chair", "Chair",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    const char *scenes[] = {"lego", "chair"};

    const int FRAMES = 3;
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ServerConfig cfg;
        cfg.threads_per_shard = threads;
        cfg.frames_in_flight_per_shard = 2;
        FrameServer srv(reg, cfg);

        // One client of every QoS class on every scene, all submitting
        // concurrently: 6 interleaved streams.
        struct Stream
        {
            uint64_t client;
            const SceneEntry *entry;
            std::vector<nerf::Camera> path;
            std::map<uint64_t, int> ticket_to_frame;
        };
        std::vector<Stream> streams;
        for (const char *scene : scenes)
            for (int c = 0; c < kQosClasses; ++c) {
                Stream s;
                s.entry = reg.find(scene);
                s.client = srv.openSession(scene, QosClass(c));
                ASSERT_NE(s.client, 0u);
                s.path = nerf::orbitCameraPath(s.entry->info, 16, 16, FRAMES,
                                               0.07f + 0.01f * c);
                streams.push_back(std::move(s));
            }
        size_t expected = 0;
        for (auto &s : streams)
            for (int f = 0; f < FRAMES; ++f) {
                uint64_t t = srv.submitFrame(s.client, s.path[size_t(f)]);
                ASSERT_NE(t, 0u);
                s.ticket_to_frame[t] = f;
                ++expected;
            }

        srv.waitIdle();
        std::vector<FrameResult> results;
        srv.drainResults(results);
        ASSERT_EQ(results.size(), expected);

        // Every served frame must equal the client's own sequential
        // render of the same camera.
        for (const FrameResult &r : results) {
            ASSERT_TRUE(r.ok());
            auto stream = std::find_if(
                streams.begin(), streams.end(),
                [&](const Stream &s) { return s.client == r.client; });
            ASSERT_NE(stream, streams.end());
            const int f = stream->ticket_to_frame.at(r.ticket);
            core::AsdrRenderer ref(*stream->entry->field,
                                   stream->entry->config);
            Image want = ref.render(stream->path[size_t(f)]);
            expectFramesIdentical(want, r.frame.image, "served frame");
        }

        ServerStatsSnapshot snap = srv.stats();
        EXPECT_EQ(snap.totalServed(), expected);
        for (int c = 0; c < kQosClasses; ++c) {
            EXPECT_EQ(snap.cls[c].served, uint64_t(2 * FRAMES));
            EXPECT_EQ(snap.cls[c].dropped, 0u);
            EXPECT_EQ(snap.cls[c].failed, 0u);
            EXPECT_GT(snap.cls[c].p50_ms, 0.0);
        }
    }
}

// ---------------------------------------------------------- QoS properties

TEST(FrameServerQos, InteractiveOvertakesEarlierBatchWithinItsLag)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 2;
    FrameServer srv(reg, cfg);

    uint64_t batch = srv.openSession("lego", QosClass::Batch);
    uint64_t inter = srv.openSession("lego", QosClass::Interactive);
    const SceneEntry *entry = reg.find("lego");
    nerf::Camera cam = nerf::cameraForScene(entry->info, 16, 16);

    // Park the single worker, then queue a batch frame FIRST and an
    // interactive frame second; both admit into the 2 pipeline slots.
    // The interactive frame arrived within batch's lag of the batch
    // frame, so its key (ticket 2 + 0) is smaller than the batch
    // frame's (ticket 1 + qosLag(Batch)): on release the worker's key
    // scan drains its stages first, and it completes first.
    EnginePause pause(srv.engine());
    uint64_t bt = srv.submitFrame(batch, cam);
    uint64_t it = srv.submitFrame(inter, cam);
    ASSERT_NE(bt, 0u);
    ASSERT_NE(it, 0u);
    pause.release();
    srv.waitIdle();

    std::vector<FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].ticket, it) << "interactive must finish first";
    EXPECT_EQ(results[1].ticket, bt);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[1].ok());
}

TEST(FrameServerQos, AdmissionOrdersByTicketPlusLag)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1; // admissions fully serialized
    FrameServer srv(reg, cfg);

    uint64_t batch = srv.openSession("lego", QosClass::Batch);
    uint64_t inter = srv.openSession("lego", QosClass::Interactive);
    const SceneEntry *entry = reg.find("lego");
    nerf::Camera cam = nerf::cameraForScene(entry->info, 16, 16);

    // b1 occupies the only slot; b2 plus two interactive frames wait
    // in the scheduler. Keys are ticket + qosLag: b2 = 2 + 16, i1 =
    // 3, i2 = 4, so both interactive frames, which arrived within
    // batch's lag of b2, go ahead of it -- not FIFO (which would run
    // both batch frames first).
    EnginePause pause(srv.engine());
    uint64_t b1 = srv.submitFrame(batch, cam);
    uint64_t b2 = srv.submitFrame(batch, cam);
    uint64_t i1 = srv.submitFrame(inter, cam);
    uint64_t i2 = srv.submitFrame(inter, cam);
    pause.release();
    srv.waitIdle();

    std::vector<FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 4u);
    std::vector<uint64_t> order;
    for (const FrameResult &r : results)
        order.push_back(r.ticket);
    EXPECT_EQ(order, (std::vector<uint64_t>{b1, i1, i2, b2}));
}

/**
 * A closed loop of interactive frames, two outstanding, far more of
 * them than batch's lag, with standard and batch frames queued behind
 * it, on one worker. Everything after the engine resumes runs on that
 * worker, so the completion order is deterministic: each frame must
 * finish after at most its class's lag of frames with larger tickets,
 * at every slot count. Completions are counted, never timed.
 */
TEST(FrameServerQos, BatchProgressesUnderSustainedInteractiveLoad)
{
    SceneRegistry reg;
    core::RenderConfig rc = smallConfig();
    rc.width = 12;
    rc.height = 12;
    rc.samples_per_ray = 16;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(), rc),
              nullptr);
    const SceneEntry *entry = reg.find("lego");
    const int INTERACTIVE_FRAMES = 64;
    const int QUEUED_FRAMES = 3; // per class, standard and batch
    ASSERT_GT(uint64_t(INTERACTIVE_FRAMES), qosLag(QosClass::Batch));
    const auto path = nerf::orbitCameraPath(entry->info, 12, 12,
                                            INTERACTIVE_FRAMES, 0.05f);
    // Distinct views, so no queued frame joins another's render.
    const auto queued = nerf::orbitCameraPath(entry->info, 12, 12,
                                              2 * QUEUED_FRAMES, 0.31f);

    for (int slots : {1, 2, 4}) {
        SCOPED_TRACE("slots=" + std::to_string(slots));
        ServerConfig cfg;
        cfg.threads_per_shard = 1;
        cfg.frames_in_flight_per_shard = slots;
        FrameServer srv(reg, cfg);

        std::mutex m;
        Order finished;
        auto record = [&](const FrameResult &r) {
            EXPECT_TRUE(r.ok()) << "ticket " << r.ticket;
            std::lock_guard<std::mutex> lock(m);
            finished.emplace_back(r.ticket, r.qos);
        };
        std::atomic<int> issued{2};
        uint64_t inter = 0;
        inter = srv.openSession(
            "lego", QosClass::Interactive, {}, [&](FrameResult &&r) {
                record(r);
                const int next = issued.fetch_add(1);
                if (next < INTERACTIVE_FRAMES)
                    srv.submitFrame(inter, path[size_t(next)]);
            });
        const uint64_t standard = srv.openSession(
            "lego", QosClass::Standard, {},
            [&](FrameResult &&r) { record(r); });
        const uint64_t batch = srv.openSession(
            "lego", QosClass::Batch, {}, [&](FrameResult &&r) { record(r); });

        EnginePause pause(srv.engine());
        srv.submitFrame(inter, path[0]);
        srv.submitFrame(inter, path[1]);
        for (int f = 0; f < QUEUED_FRAMES; ++f) {
            srv.submitFrame(standard, queued[size_t(2 * f)]);
            srv.submitFrame(batch, queued[size_t(2 * f + 1)]);
        }
        pause.release();
        srv.waitIdle();

        const ServerStatsSnapshot snap = srv.stats();
        EXPECT_EQ(snap.cls[int(QosClass::Interactive)].served,
                  uint64_t(INTERACTIVE_FRAMES));
        EXPECT_EQ(snap.cls[int(QosClass::Standard)].served,
                  uint64_t(QUEUED_FRAMES));
        EXPECT_EQ(snap.cls[int(QosClass::Batch)].served,
                  uint64_t(QUEUED_FRAMES));
        std::lock_guard<std::mutex> lock(m);
        ASSERT_EQ(finished.size(),
                  size_t(INTERACTIVE_FRAMES + 2 * QUEUED_FRAMES));
        expectOvertakenWithinLag(finished);
        srv.closeSession(inter);
        srv.closeSession(standard);
        srv.closeSession(batch);
    }
}

TEST(FrameServerQos, BoundedBacklogDropsOldestAndReportsThem)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.qos.cls[int(QosClass::Interactive)].max_backlog = 2;
    // Far above any frame's latency: the recorder keeps the sheds alone.
    cfg.slow_frame_ms = 60000.0;
    FrameServer srv(reg, cfg);

    uint64_t client = srv.openSession("lego", QosClass::Interactive);
    const SceneEntry *entry = reg.find("lego");
    nerf::Camera cam = nerf::cameraForScene(entry->info, 16, 16);

    // t1 renders (stuck while paused); t2..t6 hit the backlog of 2:
    // each overflow sheds the OLDEST pending pose.
    EnginePause pause(srv.engine());
    std::vector<uint64_t> tickets;
    std::map<uint64_t, std::chrono::steady_clock::time_point> sent;
    testing::internal::CaptureStderr();
    for (int f = 0; f < 6; ++f) {
        const auto before = std::chrono::steady_clock::now();
        tickets.push_back(srv.submitFrame(client, cam));
        sent[tickets.back()] = before;
    }
    const std::string log = testing::internal::GetCapturedStderr();
    auto sinceSubmit = [&](uint64_t ticket) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - sent.at(ticket))
            .count();
    };

    // The three drops are delivered immediately, before any render
    // completes -- a live stream learns about shed poses right away.
    std::vector<FrameResult> shed;
    srv.drainResults(shed);
    ASSERT_EQ(shed.size(), 3u);
    EXPECT_EQ(shed[0].ticket, tickets[1]);
    EXPECT_EQ(shed[1].ticket, tickets[2]);
    EXPECT_EQ(shed[2].ticket, tickets[3]);
    for (const FrameResult &r : shed) {
        EXPECT_TRUE(r.dropped);
        EXPECT_FALSE(r.ok());
        // A shed frame reports how long it waited before it was shed.
        EXPECT_GT(r.latency_s, 0.0) << "ticket " << r.ticket;
        EXPECT_LE(r.latency_s, sinceSubmit(r.ticket)) << "ticket " << r.ticket;
    }

    pause.release();
    srv.waitIdle();
    std::vector<FrameResult> served;
    srv.drainResults(served);
    ASSERT_EQ(served.size(), 3u); // t1 (in flight) + newest two
    EXPECT_EQ(served[0].ticket, tickets[0]);
    EXPECT_EQ(served[1].ticket, tickets[4]);
    EXPECT_EQ(served[2].ticket, tickets[5]);

    ServerStatsSnapshot snap = srv.stats();
    const QosClassStats &s = snap.cls[int(QosClass::Interactive)];
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.served, 3u);
    EXPECT_EQ(s.dropped, 3u);
    EXPECT_NEAR(s.dropRate(), 0.5, 1e-9);

    // Each shed frame is recorded once, where it was shed, and stays
    // out of the log: a shed burst must not flood it.
    EXPECT_EQ(snap.slow_frame_count, 3u);
    for (const FrameResult &r : shed) {
        int records = 0;
        for (const SlowFrameRecord &rec : snap.slow_frames)
            if (rec.ticket == r.ticket) {
                ++records;
                EXPECT_TRUE(rec.dropped);
                EXPECT_GT(rec.latency_ms, 0.0);
                EXPECT_LE(rec.latency_ms, sinceSubmit(r.ticket) * 1e3);
            }
        EXPECT_EQ(records, 1) << "ticket " << r.ticket;
    }
    EXPECT_EQ(log.find("slow frame:"), std::string::npos) << log;
}

TEST(FrameServerQos, BatchBacklogRejectsNewest)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    cfg.qos.cls[int(QosClass::Batch)].max_backlog = 2;
    FrameServer srv(reg, cfg);

    uint64_t client = srv.openSession("lego", QosClass::Batch);
    const SceneEntry *entry = reg.find("lego");
    nerf::Camera cam = nerf::cameraForScene(entry->info, 16, 16);

    EnginePause pause(srv.engine());
    std::vector<uint64_t> tickets;
    for (int f = 0; f < 5; ++f)
        tickets.push_back(srv.submitFrame(client, cam));
    std::vector<FrameResult> shed;
    srv.drainResults(shed);
    ASSERT_EQ(shed.size(), 2u);
    EXPECT_EQ(shed[0].ticket, tickets[3]); // newest rejected
    EXPECT_EQ(shed[1].ticket, tickets[4]);

    pause.release();
    srv.waitIdle();
    ServerStatsSnapshot snap = srv.stats();
    EXPECT_EQ(snap.cls[int(QosClass::Batch)].served, 3u);
    EXPECT_EQ(snap.cls[int(QosClass::Batch)].dropped, 2u);
}

// ------------------------------------------------------------ failure paths

namespace {

/**
 * A field whose color network throws: a tenant with a corrupt scene.
 * Density works, so the occupancy grid builds in ray setup and the
 * error comes from the Phase I and Phase II tasks that shade.
 */
struct ThrowingField : nerf::ProceduralField
{
    using ProceduralField::ProceduralField;
    Vec3 color(const Vec3 &, const Vec3 &,
               const nerf::DensityOutput &) const override
    {
        throw std::runtime_error("tenant field exploded");
    }
    void colorBatch(const Vec3 *, const Vec3 &, const nerf::DensityOutput *,
                    int, Vec3 *) const override
    {
        throw std::runtime_error("tenant field exploded");
    }
};

} // namespace

TEST(FrameServerFailure, TenantErrorsDoNotWedgeTheServer)
{
    auto lego = scene::createScene("Lego");
    ThrowingField bad(*lego, nerf::NgpModelConfig::fast());

    SceneRegistry reg;
    ASSERT_NE(reg.addShared("bad", bad, smallConfig(), lego->info()),
              nullptr);
    ASSERT_NE(reg.addProcedural("good", "Chair",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);

    ServerConfig cfg;
    cfg.threads_per_shard = 2;
    cfg.frames_in_flight_per_shard = 2;
    FrameServer srv(reg, cfg);

    uint64_t bad_client = srv.openSession("bad", QosClass::Standard);
    uint64_t good_client = srv.openSession("good", QosClass::Standard);
    const SceneEntry *good_entry = reg.find("good");
    nerf::Camera cam = nerf::cameraForScene(good_entry->info, 16, 16);

    for (int f = 0; f < 2; ++f) {
        ASSERT_NE(srv.submitFrame(bad_client, cam), 0u);
        ASSERT_NE(srv.submitFrame(good_client, cam), 0u);
    }
    srv.waitIdle();

    std::vector<FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 4u);
    int failed = 0, served = 0;
    for (FrameResult &r : results) {
        if (r.client == bad_client) {
            EXPECT_FALSE(r.ok());
            ASSERT_NE(r.error, nullptr);
            EXPECT_THROW(std::rethrow_exception(r.error),
                         std::runtime_error);
            ++failed;
        } else {
            EXPECT_TRUE(r.ok());
            EXPECT_EQ(r.frame.image.width(), 16);
            ++served;
        }
    }
    EXPECT_EQ(failed, 2);
    EXPECT_EQ(served, 2);

    ServerStatsSnapshot snap = srv.stats();
    EXPECT_EQ(snap.cls[int(QosClass::Standard)].failed, 2u);
    EXPECT_EQ(snap.cls[int(QosClass::Standard)].served, 2u);

    // The server still serves after the failures.
    ASSERT_NE(srv.submitFrame(good_client, cam), 0u);
    srv.waitIdle();
    results.clear();
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok());
}

// ----------------------------------------------------------------- lifecycle

TEST(FrameServerLifecycle, CloseSessionShedsPendingAndFreesTheSlot)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    FrameServer srv(reg, cfg);

    EXPECT_EQ(srv.openSession("unknown-scene", QosClass::Standard), 0u);
    uint64_t a = srv.openSession("lego", QosClass::Standard);
    uint64_t b = srv.openSession("lego", QosClass::Standard);
    const SceneEntry *entry = reg.find("lego");
    nerf::Camera cam = nerf::cameraForScene(entry->info, 16, 16);

    EnginePause pause(srv.engine());
    uint64_t a1 = srv.submitFrame(a, cam); // in flight, paused
    uint64_t a2 = srv.submitFrame(a, cam); // pending -> shed by close
    uint64_t b1 = srv.submitFrame(b, cam);
    ASSERT_NE(a1, 0u);
    ASSERT_NE(a2, 0u);
    ASSERT_NE(b1, 0u);

    std::thread closer([&] { srv.closeSession(a); });
    // closeSession sheds a2 synchronously before it waits for a1;
    // stay paused until the shed notice is visible so a2 cannot
    // sneak into the freed slot instead.
    FrameResult shed;
    while (!srv.poll(shed))
        std::this_thread::yield();
    EXPECT_TRUE(shed.dropped);
    EXPECT_EQ(shed.ticket, a2);
    pause.release();
    closer.join();
    EXPECT_EQ(srv.submitFrame(a, cam), 0u); // session gone
    srv.waitIdle();

    std::vector<FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 2u);
    int a_served = 0, b_served = 0;
    for (const FrameResult &r : results) {
        if (r.client == a && r.ok())
            ++a_served;
        if (r.client == b && r.ok())
            ++b_served;
    }
    EXPECT_EQ(a_served, 1);
    EXPECT_EQ(b_served, 1);

    // The other session still submits, and its frame is served.
    const uint64_t b2 = srv.submitFrame(b, cam);
    ASSERT_NE(b2, 0u);
    srv.waitIdle();
    FrameResult last;
    ASSERT_TRUE(srv.poll(last));
    EXPECT_EQ(last.ticket, b2);
    EXPECT_TRUE(last.ok());
}

/**
 * The callback form of closeSession returns without waiting: it sheds
 * the pending frame on the caller and refuses later submits, and its
 * callback runs once, on the worker, after the in-flight frame's result
 * callback has returned. With nothing outstanding, or for an unknown or
 * closing id, the callback runs at once on the caller.
 */
TEST(FrameServerLifecycle, CloseCallbackRunsAfterTheSessionsLastResult)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = 1;
    FrameServer srv(reg, cfg);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);
    const std::thread::id caller = std::this_thread::get_id();

    // Everything below is written by one thread at a time: the caller,
    // then the worker after the resume, then the caller after waitIdle.
    std::vector<FrameResult> results;
    std::thread::id result_thread, closed_thread;
    bool in_result = false, closed_in_result = true;
    size_t results_when_closed = 0;
    int closes = 0;
    const uint64_t a = srv.openSession(
        "lego", QosClass::Standard, {}, [&](FrameResult &&r) {
            in_result = true;
            result_thread = std::this_thread::get_id();
            results.push_back(std::move(r));
            in_result = false;
        });
    ASSERT_NE(a, 0u);

    EnginePause pause(srv.engine());
    const uint64_t a1 = srv.submitFrame(a, cam); // in flight, paused
    const uint64_t a2 = srv.submitFrame(a, cam); // pending
    ASSERT_NE(a1, 0u);
    ASSERT_NE(a2, 0u);
    srv.closeSession(a, [&] {
        ++closes;
        closed_thread = std::this_thread::get_id();
        closed_in_result = in_result;
        results_when_closed = results.size();
    });
    // Returned with a1 still in flight: a2 was shed on this thread, and
    // the session refuses new frames while the close is pending.
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].ticket, a2);
    EXPECT_TRUE(results[0].dropped);
    EXPECT_EQ(result_thread, caller);
    EXPECT_EQ(closes, 0);
    EXPECT_EQ(srv.submitFrame(a, cam), 0u);

    pause.release();
    srv.waitIdle(); // covers the close callback
    EXPECT_EQ(closes, 1);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[1].ticket, a1);
    EXPECT_TRUE(results[1].ok());
    EXPECT_EQ(results_when_closed, 2u);
    EXPECT_FALSE(closed_in_result);
    EXPECT_NE(closed_thread, caller);
    EXPECT_EQ(closed_thread, result_thread) << "a1's delivering worker";
    EXPECT_EQ(srv.submitFrame(a, cam), 0u);

    // Nothing outstanding, a freed id, a closing id: at once, here.
    auto closeNow = [&](uint64_t id) {
        std::thread::id ran;
        int runs = 0;
        srv.closeSession(id, [&] {
            ++runs;
            ran = std::this_thread::get_id();
        });
        EXPECT_EQ(runs, 1) << "session " << id;
        EXPECT_EQ(ran, caller) << "session " << id;
    };
    const uint64_t idle = srv.openSession("lego", QosClass::Standard);
    ASSERT_NE(idle, 0u);
    closeNow(idle);
    EXPECT_EQ(srv.submitFrame(idle, cam), 0u);
    closeNow(a);

    // A view no render has answered yet, so the frame stays in flight.
    const uint64_t c = srv.openSession("lego", QosClass::Standard);
    ASSERT_NE(c, 0u);
    int c_closes = 0;
    {
        EnginePause hold(srv.engine());
        ASSERT_NE(srv.submitFrame(c, nerf::cameraForScene(
                                         reg.find("lego")->info, 12, 12)),
                  0u);
        srv.closeSession(c, [&] { ++c_closes; });
        closeNow(c);
        EXPECT_EQ(c_closes, 0);
    }
    srv.waitIdle();
    EXPECT_EQ(c_closes, 1);
}

// ------------------------------------------------------------- workload gen

TEST(ServeWorkload, ClosedLoopServesEveryClassAndTerminates)
{
    SceneRegistry reg;
    core::RenderConfig rc = smallConfig();
    rc.width = 12;
    rc.height = 12;
    rc.samples_per_ray = 16;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(), rc),
              nullptr);
    ASSERT_NE(reg.addProcedural("chair", "Chair",
                                nerf::NgpModelConfig::fast(), rc),
              nullptr);

    ServerConfig cfg;
    cfg.threads_per_shard = 2;
    cfg.frames_in_flight_per_shard = 4;
    FrameServer srv(reg, cfg);

    WorkloadSpec spec;
    spec.scenes = {"lego", "chair"};
    spec.clients[int(QosClass::Interactive)] = 2;
    spec.clients[int(QosClass::Standard)] = 1;
    spec.clients[int(QosClass::Batch)] = 1;
    spec.frames_per_client = 4;
    spec.width = 12;
    spec.height = 12;
    spec.burst = 2;
    WorkloadReport report = runWorkload(srv, reg, spec);

    EXPECT_EQ(report.viewers, 4u);
    EXPECT_EQ(report.results, uint64_t(4 * spec.frames_per_client));
    for (int c = 0; c < kQosClasses; ++c) {
        const QosClassStats &s = report.stats.cls[c];
        EXPECT_EQ(s.submitted, uint64_t(spec.clients[c]) *
                                   uint64_t(spec.frames_per_client));
        EXPECT_EQ(s.submitted, s.served + s.dropped + s.failed);
        EXPECT_GT(s.served, 0u);
    }
    EXPECT_GT(report.frames_per_s, 0.0);
}

// ------------------------------------------------------ per-scene quotas

TEST(QosSchedulerUnit, SceneQuotaSkipsSaturatedScene)
{
    QosParams params;
    params.max_in_flight_per_scene = 1;
    QosScheduler sched(params);
    std::vector<PendingFrame> dropped;

    auto pushOne = [&](uint64_t ticket, uint64_t client, uint32_t scene) {
        PendingFrame pf;
        pf.ticket = ticket;
        pf.client = client;
        pf.scene = scene;
        pf.qos = QosClass::Standard;
        pf.submitted_at = std::chrono::steady_clock::now();
        sched.push(std::move(pf), dropped);
    };
    // Scene 0 queued twice before scene 1 shows up at all.
    pushOne(1, 10, 0);
    pushOne(2, 10, 0);
    pushOne(3, 20, 1);
    ASSERT_TRUE(dropped.empty());

    int in_flight[kQosClasses] = {0, 0, 0};
    std::unordered_map<uint32_t, int> scene_in_flight;
    PendingFrame out;

    ASSERT_TRUE(sched.pop(in_flight, scene_in_flight, out));
    EXPECT_EQ(out.ticket, 1u);
    scene_in_flight[0] = 1;

    // Scene 0 is at quota: ticket 2 is skipped, ticket 3 admits ahead
    // of it even though it was submitted later.
    ASSERT_TRUE(sched.pop(in_flight, scene_in_flight, out));
    EXPECT_EQ(out.ticket, 3u);
    scene_in_flight[1] = 1;

    // Both scenes saturated: nothing eligible despite a pending frame.
    EXPECT_FALSE(sched.pop(in_flight, scene_in_flight, out));
    EXPECT_EQ(sched.pending(), 1u);

    // Scene 0 frees a slot: its deferred frame admits immediately.
    scene_in_flight.erase(0);
    ASSERT_TRUE(sched.pop(in_flight, scene_in_flight, out));
    EXPECT_EQ(out.ticket, 2u);
    EXPECT_EQ(sched.pending(), 0u);
}

TEST(FrameServerQuota, HotSceneCannotMonopolizeTheServer)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ASSERT_NE(reg.addProcedural("chair", "Chair",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);

    auto runOnce = [&](int quota) {
        ServerConfig cfg;
        cfg.threads_per_shard = 1;
        cfg.frames_in_flight_per_shard = 2;
        cfg.qos.max_in_flight_per_scene = quota;
        FrameServer srv(reg, cfg);

        const uint64_t hot = srv.openSession("lego", QosClass::Standard);
        const uint64_t cold = srv.openSession("chair", QosClass::Standard);
        EXPECT_NE(hot, 0u);
        EXPECT_NE(cold, 0u);
        const auto lego_path = nerf::orbitCameraPath(
            reg.find("lego")->info, 12, 12, 2, 0.07f);
        const auto chair_path = nerf::orbitCameraPath(
            reg.find("chair")->info, 12, 12, 1, 0.07f);

        // Park the only worker so admission decisions are observable.
        EnginePause pause(srv.engine());

        std::vector<uint64_t> tickets;
        tickets.push_back(srv.submitFrame(hot, lego_path[0]));
        tickets.push_back(srv.submitFrame(hot, lego_path[1]));
        tickets.push_back(srv.submitFrame(cold, chair_path[0]));

        const int lego_in_flight = srv.sceneInFlight("lego");
        const int chair_in_flight = srv.sceneInFlight("chair");

        pause.release();
        srv.waitIdle();
        std::vector<FrameResult> results;
        srv.drainResults(results);
        EXPECT_EQ(results.size(), 3u);
        std::vector<uint64_t> completion;
        for (const FrameResult &r : results) {
            EXPECT_TRUE(r.ok());
            completion.push_back(r.ticket);
        }
        const ServerStatsSnapshot snap = srv.stats();
        srv.closeSession(hot);
        srv.closeSession(cold);
        struct Observed
        {
            int lego_in_flight, chair_in_flight;
            std::vector<uint64_t> completion;
            std::vector<uint64_t> tickets;
            ServerStatsSnapshot snap;
        };
        return Observed{lego_in_flight, chair_in_flight, completion,
                        tickets, snap};
    };

    // Quota 1: the hot scene's second frame must NOT take the second
    // pipeline slot -- the cold scene's frame is admitted instead,
    // ahead of an earlier-submitted hot frame. Hot #2 takes hot #1's
    // slot when it frees, and its key (it arrived before the cold
    // frame) runs it ahead of the cold frame's remaining stages.
    auto with_quota = runOnce(1);
    EXPECT_EQ(with_quota.lego_in_flight, 1);
    EXPECT_EQ(with_quota.chair_in_flight, 1);
    ASSERT_EQ(with_quota.completion.size(), 3u);
    EXPECT_EQ(with_quota.completion[0], with_quota.tickets[0]); // hot #1
    EXPECT_EQ(with_quota.completion[1], with_quota.tickets[1]); // hot #2
    EXPECT_EQ(with_quota.completion[2], with_quota.tickets[2]); // cold
    for (const SceneServeStats &s : with_quota.snap.scenes)
        EXPECT_LE(s.peak_in_flight, 1) << s.name;

    // Uncapped control: the hot scene takes both slots and the cold
    // frame waits behind it.
    auto uncapped = runOnce(0);
    EXPECT_EQ(uncapped.lego_in_flight, 2);
    EXPECT_EQ(uncapped.chair_in_flight, 0);
    ASSERT_EQ(uncapped.completion.size(), 3u);
    EXPECT_EQ(uncapped.completion[0], uncapped.tickets[0]);
    EXPECT_EQ(uncapped.completion[1], uncapped.tickets[1]);
    EXPECT_EQ(uncapped.completion[2], uncapped.tickets[2]);
    bool lego_peaked = false;
    for (const SceneServeStats &s : uncapped.snap.scenes)
        if (s.name == "lego" && s.peak_in_flight == 2)
            lego_peaked = true;
    EXPECT_TRUE(lego_peaked);
}

TEST(ServerStatsScenes, PerSceneCountsAndJson)
{
    // A scene's series read back typed and rendered as exposition
    // text; the JSON carries only the flight recorder's records.
    metrics::Registry reg;
    SceneMetrics lego(reg, "lego"), chair(reg, "chair");
    lego.submitted->add(2);
    chair.submitted->inc();
    // Admitted at in-flight 2, then 1: the later, lower admission
    // must not overwrite the peak.
    lego.notePeak(2);
    lego.notePeak(1);
    lego.served_rung[0]->inc();
    lego.dropped->inc();
    chair.failed->inc();

    const SceneServeStats l = lego.read(), c = chair.read();
    EXPECT_EQ(c.name, "chair");
    EXPECT_EQ(c.failed, 1u);
    EXPECT_EQ(l.name, "lego");
    EXPECT_EQ(l.submitted, 2u);
    EXPECT_EQ(l.served, 1u);
    EXPECT_EQ(l.dropped, 1u);
    EXPECT_EQ(l.peak_in_flight, 2);

    const std::string text = reg.renderText();
    EXPECT_NE(text.find("asdr_scene_peak_in_flight{scene=\"lego\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_scene_frames_failed_total{scene=\"chair\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_scene_frames_served_total{scene=\"lego\","
                        "rung=\"full\"} 1"),
              std::string::npos);

    ServerStats recorder(reg);
    SlowFrameRecord rec;
    rec.ticket = 7;
    recorder.recordSlowFrame(std::move(rec));
    ServerStatsSnapshot snap;
    recorder.fill(snap);
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"slow_frame_count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"ticket\":7"), std::string::npos);
    EXPECT_EQ(json.find("\"scenes\""), std::string::npos);
}

TEST(FrameServerMetrics, StoresArePerServer)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ASSERT_NE(reg.addProcedural("chair", "Chair",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    FrameServer a(reg, cfg), b(reg, cfg);

    // Two servers alive at once, serving different frame counts.
    const uint64_t ca = a.openSession("lego", QosClass::Standard);
    const uint64_t cb = b.openSession("lego", QosClass::Standard);
    const uint64_t cb_chair = b.openSession("chair", QosClass::Batch);
    const nerf::Camera lego_cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);
    const nerf::Camera chair_cam =
        nerf::cameraForScene(reg.find("chair")->info, 16, 16);
    for (int f = 0; f < 2; ++f)
        ASSERT_NE(a.submitFrame(ca, lego_cam), 0u);
    for (int f = 0; f < 5; ++f)
        ASSERT_NE(b.submitFrame(cb, lego_cam), 0u);
    ASSERT_NE(b.submitFrame(cb_chair, chair_cam), 0u);
    a.waitIdle();
    b.waitIdle();

    const int std_c = int(QosClass::Standard);
    const int batch_c = int(QosClass::Batch);
    const ServerStatsSnapshot sa = a.stats(), sb = b.stats();
    EXPECT_EQ(sa.cls[std_c].served, 2u);
    EXPECT_EQ(sb.cls[std_c].served, 5u);
    EXPECT_EQ(sa.cls[batch_c].submitted, 0u);
    EXPECT_EQ(sb.cls[batch_c].served, 1u);
    // Each server lists only the scenes it opened, sorted by name.
    ASSERT_EQ(sa.scenes.size(), 1u);
    EXPECT_EQ(sa.scenes[0].name, "lego");
    EXPECT_EQ(sa.scenes[0].submitted, 2u);
    ASSERT_EQ(sb.scenes.size(), 2u);
    EXPECT_EQ(sb.scenes[0].name, "chair");
    EXPECT_EQ(sb.scenes[1].name, "lego");
    EXPECT_EQ(sb.scenes[1].submitted, 5u);

    const std::string ta = a.metricsText(), tb = b.metricsText();
    const char *served_std =
        "asdr_frames_served_total{qos=\"standard\",rung=\"full\"} ";
    EXPECT_NE(ta.find(std::string(served_std) + "2\n"), std::string::npos);
    EXPECT_NE(tb.find(std::string(served_std) + "5\n"), std::string::npos);
    const char *latency_std =
        "asdr_frame_latency_seconds_count{qos=\"standard\"} ";
    EXPECT_NE(ta.find(std::string(latency_std) + "2\n"), std::string::npos);
    EXPECT_NE(tb.find(std::string(latency_std) + "5\n"), std::string::npos);
    EXPECT_EQ(ta.find("scene=\"chair\""), std::string::npos);
    EXPECT_NE(tb.find("asdr_scene_frames_submitted_total{scene=\"chair\"} 1"),
              std::string::npos);

    std::vector<FrameResult> results;
    a.drainResults(results);
    b.drainResults(results);
    EXPECT_EQ(results.size(), 8u);
    a.closeSession(ca);
    b.closeSession(cb);
    b.closeSession(cb_chair);
}

// ------------------------------------------------------------- coalescing

namespace {

/** Disarms every fault site on entry and exit. */
struct FaultGuard
{
    FaultGuard() { fault::resetAll(); }
    ~FaultGuard() { fault::resetAll(); }
};

/** One worker and `slots` pipeline slots. With the engine paused, the
 *  first render stays open while later submissions are admitted (and
 *  may join it). */
ServerConfig
coalesceConfig(int slots)
{
    ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.frames_in_flight_per_shard = slots;
    return cfg;
}

/** `results` plus the server's mailbox, by ticket (each ticket at
 *  most once). */
std::map<uint64_t, FrameResult>
drainByTicket(FrameServer &srv, std::vector<FrameResult> results = {})
{
    srv.drainResults(results);
    std::map<uint64_t, FrameResult> out;
    for (FrameResult &r : results) {
        const uint64_t t = r.ticket;
        EXPECT_TRUE(out.emplace(t, std::move(r)).second)
            << "ticket " << t << " delivered twice";
    }
    return out;
}

/** Results some sessions receive through callbacks, to be merged with
 *  the mailbox of the others. */
struct Delivered
{
    std::mutex m;
    std::vector<FrameResult> results;

    void keep(FrameResult &&r)
    {
        std::lock_guard<std::mutex> lock(m);
        results.push_back(std::move(r));
    }
    /** Everything delivered once `srv` is idle, by ticket. */
    std::map<uint64_t, FrameResult> all(FrameServer &srv)
    {
        std::lock_guard<std::mutex> lock(m);
        return drainByTicket(srv, std::move(results));
    }
    /** How many results `client` has been delivered so far, through
     *  its callback or the mailbox (kept here). */
    size_t countFor(FrameServer &srv, uint64_t client)
    {
        std::lock_guard<std::mutex> lock(m);
        srv.drainResults(results);
        return size_t(std::count_if(
            results.begin(), results.end(),
            [&](const FrameResult &r) { return r.client == client; }));
    }
};

} // namespace

TEST(FrameServerCoalesce, SessionsAtOneCameraShareOneRender)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    FrameServer srv(reg, coalesceConfig(2));
    const SceneEntry *entry = reg.find("lego");
    const nerf::Camera cam = nerf::cameraForScene(entry->info, 16, 16);

    const int N = 4;
    std::vector<uint64_t> clients;
    for (int k = 0; k < N; ++k)
        clients.push_back(srv.openSession("lego", QosClass::Standard));
    EnginePause pause(srv.engine());
    std::map<uint64_t, uint64_t> client_of;
    for (uint64_t c : clients) {
        const uint64_t t = srv.submitFrame(c, cam);
        ASSERT_NE(t, 0u);
        client_of[t] = c;
    }
    // Only the first frame took a slot; the rest wait on its render.
    EXPECT_EQ(srv.sceneInFlight("lego"), 1);
    pause.release();
    srv.waitIdle();

    const auto results = drainByTicket(srv);
    ASSERT_EQ(results.size(), size_t(N));
    const uint64_t first = client_of.begin()->first;
    core::AsdrRenderer ref(*entry->field, entry->config);
    const Image want = ref.render(cam);
    std::set<const Vec3 *> buffers;
    for (const auto &[ticket, r] : results) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.client, client_of.at(ticket));
        EXPECT_EQ(r.render_ticket, first) << "one render serves all";
        expectFramesIdentical(want, r.frame.image, "coalesced frame");
        buffers.insert(r.frame.image.data().data());
    }
    EXPECT_EQ(buffers.size(), size_t(N)) << "every consumer owns its image";

    const ServerStatsSnapshot snap = srv.stats();
    const QosClassStats &s = snap.cls[int(QosClass::Standard)];
    EXPECT_EQ(s.submitted, uint64_t(N));
    EXPECT_EQ(s.admitted, 1u);
    EXPECT_EQ(s.coalesced, uint64_t(N - 1));
    EXPECT_EQ(s.served, uint64_t(N));
    EXPECT_EQ(s.dropped + s.failed + s.expired, 0u);
    for (QosClass c : {QosClass::Interactive, QosClass::Batch}) {
        EXPECT_EQ(snap.cls[int(c)].submitted, 0u);
        EXPECT_EQ(snap.cls[int(c)].coalesced, 0u);
    }
    ASSERT_EQ(snap.scenes.size(), 1u);
    EXPECT_EQ(snap.scenes[0].submitted, uint64_t(N));
    EXPECT_EQ(snap.scenes[0].served, uint64_t(N));
    EXPECT_EQ(snap.scenes[0].peak_in_flight, 1);

    // Every joined frame is its own outcome in the exposition too.
    const std::string text = srv.metricsText();
    const std::string q = "{qos=\"standard\"} ";
    EXPECT_NE(text.find("asdr_frames_coalesced_total" + q + "3\n"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_frames_admitted_total" + q + "1\n"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_frame_queue_wait_seconds_count" + q + "4\n"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_frame_latency_seconds_count" + q + "4\n"),
              std::string::npos);
    for (uint64_t c : clients)
        srv.closeSession(c);
}

TEST(FrameServerCoalesce, NoJoinAcrossClassRungSceneOrCamera)
{
    FaultGuard faults;
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ASSERT_NE(reg.addProcedural("chair", "Chair",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    // A slot for each of the five renders below, plus one so the
    // control frame can still be admitted.
    FrameServer srv(reg, coalesceConfig(6));
    const scene::SceneInfo &info = reg.find("lego")->info;
    const nerf::Camera cam = nerf::cameraForScene(info, 16, 16);
    // The same constructor inputs with the position one ulp away.
    Vec3 pos = info.cam_pos;
    pos.x = std::nextafter(pos.x, 2.0f);
    const nerf::Camera ulp(pos, info.look_at, Vec3(0.0f, 1.0f, 0.0f),
                           info.fov_deg, 16, 16);
    ASSERT_TRUE(cam.identical(nerf::cameraForScene(info, 16, 16)));
    ASSERT_FALSE(cam.identical(ulp));

    const uint64_t base = srv.openSession("lego", QosClass::Standard);
    const uint64_t other_class =
        srv.openSession("lego", QosClass::Interactive);
    const uint64_t other_scene = srv.openSession("chair", QosClass::Standard);
    const uint64_t other_cam = srv.openSession("lego", QosClass::Standard);
    const uint64_t other_rung = srv.openSession("lego", QosClass::Standard);
    const uint64_t same = srv.openSession("lego", QosClass::Standard);

    EnginePause pause(srv.engine());
    const uint64_t t_base = srv.submitFrame(base, cam);
    const uint64_t t_class = srv.submitFrame(other_class, cam);
    const uint64_t t_scene = srv.submitFrame(other_scene, cam);
    const uint64_t t_cam = srv.submitFrame(other_cam, ulp);
    fault::arm(fault::kServerAdmitDegrade, 1.0, /*max_fires=*/1);
    const uint64_t t_rung = srv.submitFrame(other_rung, cam);
    // Control: the base frame's exact view does join it.
    const uint64_t t_same = srv.submitFrame(same, cam);
    pause.release();
    srv.waitIdle();

    auto results = drainByTicket(srv);
    ASSERT_EQ(results.size(), 6u);
    for (uint64_t t : {t_base, t_class, t_scene, t_cam, t_rung}) {
        EXPECT_TRUE(results[t].ok()) << "ticket " << t;
        EXPECT_EQ(results[t].render_ticket, t) << "ticket " << t;
    }
    EXPECT_EQ(results[t_rung].rung, QualityRung(kQualityRungs - 1));
    EXPECT_EQ(results[t_base].rung, QualityRung::Full);
    EXPECT_TRUE(results[t_same].ok());
    EXPECT_EQ(results[t_same].render_ticket, t_base);

    const ServerStatsSnapshot snap = srv.stats();
    EXPECT_EQ(snap.cls[int(QosClass::Standard)].admitted, 4u);
    EXPECT_EQ(snap.cls[int(QosClass::Standard)].coalesced, 1u);
    EXPECT_EQ(snap.cls[int(QosClass::Interactive)].admitted, 1u);
    EXPECT_EQ(snap.cls[int(QosClass::Interactive)].coalesced, 0u);
}

TEST(FrameServerCoalesce, ClosingSessionsMidRenderServesEveryWaiter)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    FrameServer srv(reg, coalesceConfig(2));
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);
    const uint64_t owner = srv.openSession("lego", QosClass::Standard);
    const uint64_t w1 = srv.openSession("lego", QosClass::Standard);
    const uint64_t w2 = srv.openSession("lego", QosClass::Standard);

    EnginePause pause(srv.engine());
    const uint64_t t_owner = srv.submitFrame(owner, cam);
    const uint64_t t1 = srv.submitFrame(w1, cam);
    const uint64_t t2 = srv.submitFrame(w2, cam);

    // Close the render's owner and one waiter mid-render: both calls
    // wait for their own session's result, which only the render can
    // deliver.
    std::atomic<bool> owner_closed{false}, w1_closed{false};
    std::thread close_owner([&] {
        srv.closeSession(owner);
        owner_closed = true;
    });
    std::thread close_w1([&] {
        srv.closeSession(w1);
        w1_closed = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(owner_closed.load());
    EXPECT_FALSE(w1_closed.load());
    pause.release();
    close_owner.join();
    close_w1.join();
    srv.waitIdle();

    auto results = drainByTicket(srv);
    ASSERT_EQ(results.size(), 3u);
    for (uint64_t t : {t_owner, t1, t2}) {
        EXPECT_TRUE(results[t].ok()) << "ticket " << t;
        EXPECT_EQ(results[t].render_ticket, t_owner) << "ticket " << t;
    }
    EXPECT_EQ(srv.submitFrame(owner, cam), 0u);
    EXPECT_EQ(srv.submitFrame(w1, cam), 0u);

    // The surviving waiter's session keeps serving, now on its own, at
    // another pose (the finished render would answer `cam`).
    const nerf::Camera other =
        nerf::orbitCameraPath(reg.find("lego")->info, 16, 16, 2, 0.07f)[1];
    ASSERT_FALSE(other.identical(cam));
    const uint64_t t3 = srv.submitFrame(w2, other);
    ASSERT_NE(t3, 0u);
    srv.waitIdle();
    FrameResult last;
    ASSERT_TRUE(srv.poll(last));
    EXPECT_TRUE(last.ok());
    EXPECT_EQ(last.render_ticket, t3);
    const QosClassStats s = srv.stats().cls[int(QosClass::Standard)];
    EXPECT_EQ(s.served, 4u);
    EXPECT_EQ(s.coalesced, 2u);
    srv.closeSession(w2);
}

TEST(FrameServerCoalesce, ThrowingRenderFailsEachWaiterOnceForTheBreaker)
{
    auto lego = scene::createScene("Lego");
    ThrowingField bad(*lego, nerf::NgpModelConfig::fast());
    SceneRegistry reg;
    ASSERT_NE(reg.addShared("bad", bad, smallConfig(), lego->info()),
              nullptr);
    ServerConfig cfg = coalesceConfig(2);
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.open_s = 60.0;
    FrameServer srv(reg, cfg);
    const nerf::Camera cam = nerf::cameraForScene(lego->info(), 16, 16);

    std::vector<uint64_t> clients, tickets;
    EnginePause pause(srv.engine());
    for (int k = 0; k < 3; ++k) {
        clients.push_back(srv.openSession("bad", QosClass::Standard));
        tickets.push_back(srv.submitFrame(clients.back(), cam));
    }
    pause.release();
    srv.waitIdle();

    auto results = drainByTicket(srv);
    ASSERT_EQ(results.size(), 3u);
    for (uint64_t t : tickets) {
        const FrameResult &r = results[t];
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.dropped);
        ASSERT_NE(r.error, nullptr);
        EXPECT_THROW(std::rethrow_exception(r.error), std::runtime_error);
        EXPECT_EQ(r.render_ticket, tickets[0]);
    }
    ServerStatsSnapshot snap = srv.stats();
    EXPECT_EQ(snap.cls[int(QosClass::Standard)].failed, 3u);
    EXPECT_EQ(snap.cls[int(QosClass::Standard)].coalesced, 2u);
    ASSERT_EQ(snap.scenes.size(), 1u);
    EXPECT_EQ(snap.scenes[0].failed, 3u);
    // One render is one breaker failure: the threshold of two holds.
    EXPECT_EQ(snap.scenes[0].breaker_opens, 0u);
    EXPECT_EQ(srv.breakerState("bad"), FrameServer::BreakerState::Closed);

    // The next failing render is the second, and trips it.
    ASSERT_NE(srv.submitFrame(clients[0], cam), 0u);
    srv.waitIdle();
    EXPECT_EQ(srv.breakerState("bad"), FrameServer::BreakerState::Open);
    EXPECT_EQ(srv.stats().scenes[0].breaker_opens, 1u);
    for (uint64_t c : clients)
        srv.closeSession(c);
}

TEST(FrameServerCoalesce, HalfOpenProbeNeverJoinsARender)
{
    FaultGuard faults;
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg = coalesceConfig(4);
    cfg.breaker.failure_threshold = 1;
    cfg.breaker.open_s = 0.02;
    cfg.breaker.half_open_probes = 1;
    FrameServer srv(reg, cfg);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    Delivered delivered;
    std::atomic<bool> straggler_done{false};
    const uint64_t straggler = srv.openSession(
        "lego", QosClass::Batch, {}, [&](FrameResult &&r) {
            delivered.keep(std::move(r));
            straggler_done = true;
        });
    const uint64_t prober = srv.openSession("lego", QosClass::Batch);
    // A throwing interactive render trips the breaker. Its callback
    // runs on the only worker, so the straggler (a Batch render of
    // the same view, admitted while the breaker was closed) cannot
    // finish while the callback waits out the quarantine and submits
    // the half-open probe.
    uint64_t t_probe = 0;
    bool straggler_running = false;
    const uint64_t tripper = srv.openSession(
        "lego", QosClass::Interactive, {}, [&](FrameResult &&r) {
            delivered.keep(std::move(r));
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
            straggler_running = !straggler_done.load();
            t_probe = srv.submitFrame(prober, cam);
        });

    EnginePause pause(srv.engine());
    const uint64_t t_straggler = srv.submitFrame(straggler, cam);
    fault::arm(fault::kEngineStageThrow, 1.0, /*max_fires=*/1);
    const uint64_t t_trip = srv.submitFrame(tripper, cam);
    pause.release();
    srv.waitIdle();

    EXPECT_TRUE(straggler_running) << "the probe met no render to join";
    ASSERT_NE(t_probe, 0u);
    auto results = delivered.all(srv);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[t_trip].ok());
    EXPECT_TRUE(results[t_straggler].ok());
    EXPECT_EQ(results[t_straggler].render_ticket, t_straggler);
    EXPECT_TRUE(results[t_probe].ok());
    EXPECT_EQ(results[t_probe].render_ticket, t_probe);
    EXPECT_EQ(srv.stats().cls[int(QosClass::Batch)].coalesced, 0u);
    // The probe's own success closed the breaker.
    EXPECT_EQ(srv.breakerState("lego"), FrameServer::BreakerState::Closed);
    srv.closeSession(straggler);
    srv.closeSession(prober);
    srv.closeSession(tripper);
}

TEST(FrameServerCoalesce, HalfOpenProbeRenderTakesNoWaiters)
{
    FaultGuard faults;
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg = coalesceConfig(4);
    cfg.breaker.failure_threshold = 1;
    cfg.breaker.open_s = 0.02;
    cfg.breaker.half_open_probes = 2;
    FrameServer srv(reg, cfg);
    const auto path =
        nerf::orbitCameraPath(reg.find("lego")->info, 16, 16, 2, 0.07f);
    const nerf::Camera &cam = path[0], &other = path[1];

    // Trip the breaker with one throwing render, then wait out the
    // quarantine.
    const uint64_t tripper = srv.openSession("lego", QosClass::Standard);
    fault::arm(fault::kEngineStageThrow, 1.0, /*max_fires=*/1);
    const uint64_t t_trip = srv.submitFrame(tripper, other);
    srv.waitIdle();
    ASSERT_EQ(srv.breakerState("lego"), FrameServer::BreakerState::Open);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));

    Delivered delivered;
    std::atomic<bool> probe_done{false};
    const uint64_t batch_probe = srv.openSession(
        "lego", QosClass::Batch, {}, [&](FrameResult &&r) {
            delivered.keep(std::move(r));
            probe_done = true;
        });
    const uint64_t late = srv.openSession("lego", QosClass::Batch);
    // Two probes go out half-open: an interactive one at another view
    // and a Batch one at `cam`. The interactive probe renders first
    // (class priority, one worker) and closes the breaker; from its
    // callback a regular Batch frame of `cam` arrives while the Batch
    // probe still renders, and must not join it.
    uint64_t t_late = 0;
    bool probe_running = false;
    const uint64_t first_probe = srv.openSession(
        "lego", QosClass::Interactive, {}, [&](FrameResult &&r) {
            delivered.keep(std::move(r));
            probe_running = !probe_done.load();
            t_late = srv.submitFrame(late, cam);
        });

    EnginePause pause(srv.engine());
    const uint64_t t_first = srv.submitFrame(first_probe, other);
    const uint64_t t_probe = srv.submitFrame(batch_probe, cam);
    pause.release();
    srv.waitIdle();

    EXPECT_TRUE(probe_running) << "the late frame met no probe to join";
    ASSERT_NE(t_late, 0u);
    auto results = delivered.all(srv);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[t_trip].ok());
    for (uint64_t t : {t_first, t_probe, t_late}) {
        EXPECT_TRUE(results[t].ok()) << "ticket " << t;
        EXPECT_EQ(results[t].render_ticket, t) << "ticket " << t;
    }
    EXPECT_EQ(srv.stats().cls[int(QosClass::Batch)].coalesced, 0u);
    EXPECT_EQ(srv.breakerState("lego"), FrameServer::BreakerState::Closed);
    srv.closeSession(tripper);
    srv.closeSession(batch_probe);
    srv.closeSession(late);
    srv.closeSession(first_probe);
}

/**
 * A finished render stays joinable: a later frame of its view (same
 * scene, class, rung and camera bits) is answered from the scene's last
 * render, counted as a joiner and rendered by nobody. Anything else
 * renders, a failed render leaves the kept one in place, and a
 * half-open probe renders for itself.
 */
TEST(FrameServerCoalesce, RepeatAfterItsRenderFinishedIsAnsweredFromIt)
{
    FaultGuard faults;
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ServerConfig cfg = coalesceConfig(2);
    cfg.breaker.failure_threshold = 2;
    cfg.breaker.open_s = 0.02;
    FrameServer srv(reg, cfg);
    const SceneEntry *entry = reg.find("lego");
    const auto path = nerf::orbitCameraPath(entry->info, 16, 16, 2, 0.07f);
    const nerf::Camera &view = path[0], &other = path[1];
    core::AsdrRenderer ref(*entry->field, entry->config);
    const Image want = ref.render(view);

    const uint64_t a = srv.openSession("lego", QosClass::Standard);
    const uint64_t b = srv.openSession("lego", QosClass::Standard);
    const uint64_t inter = srv.openSession("lego", QosClass::Interactive);
    // Submit one frame and wait for its one result.
    auto serve = [&](uint64_t client, const nerf::Camera &cam) {
        const uint64_t t = srv.submitFrame(client, cam);
        EXPECT_NE(t, 0u);
        srv.waitIdle();
        std::vector<FrameResult> results;
        srv.drainResults(results);
        EXPECT_EQ(results.size(), 1u);
        if (results.empty())
            return FrameResult{};
        EXPECT_EQ(results[0].ticket, t);
        return std::move(results[0]);
    };

    const FrameResult first = serve(a, view);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.render_ticket, first.ticket);
    const FrameResult repeat = serve(b, view);
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(repeat.client, b);
    EXPECT_EQ(repeat.render_ticket, first.ticket) << "answered, not rendered";
    EXPECT_EQ(repeat.rung, QualityRung::Full);
    EXPECT_EQ(repeat.full_width, 16);
    EXPECT_EQ(repeat.full_height, 16);
    expectFramesIdentical(want, repeat.frame.image, "answered frame");
    EXPECT_NE(repeat.frame.image.data().data(),
              first.frame.image.data().data());
    {
        const ServerStatsSnapshot snap = srv.stats();
        const QosClassStats &s = snap.cls[int(QosClass::Standard)];
        EXPECT_EQ(s.admitted, 1u);
        EXPECT_EQ(s.coalesced, 1u);
        EXPECT_EQ(s.served, 2u);
        ASSERT_EQ(snap.scenes.size(), 1u);
        EXPECT_EQ(snap.scenes[0].served, 2u);
        const std::string text = srv.metricsText();
        const std::string q = "{qos=\"standard\"} ";
        EXPECT_NE(text.find("asdr_frame_latency_seconds_count" + q + "2\n"),
                  std::string::npos);
    }

    // Another class renders, and becomes the scene's last render.
    const FrameResult cls = serve(inter, view);
    ASSERT_TRUE(cls.ok());
    EXPECT_EQ(cls.render_ticket, cls.ticket) << "another class";
    // Another camera renders; after it, the view renders again.
    const FrameResult cam = serve(b, other);
    ASSERT_TRUE(cam.ok());
    EXPECT_EQ(cam.render_ticket, cam.ticket) << "another camera";
    const FrameResult again = serve(a, view);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.render_ticket, again.ticket) << "after another view";
    expectFramesIdentical(want, again.frame.image, "rendered again");
    // Another rung renders.
    fault::arm(fault::kServerAdmitDegrade, 1.0, /*max_fires=*/1);
    const FrameResult rung = serve(b, view);
    ASSERT_TRUE(rung.ok());
    EXPECT_EQ(rung.rung, QualityRung(kQualityRungs - 1));
    EXPECT_EQ(rung.render_ticket, rung.ticket) << "another rung";
    const FrameResult full = serve(a, view);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full.rung, QualityRung::Full);
    EXPECT_EQ(full.render_ticket, full.ticket) << "back at the full rung";

    // A failed render leaves the kept one in place.
    fault::arm(fault::kEngineStageThrow, 1.0, /*max_fires=*/1);
    const FrameResult failed = serve(b, other);
    EXPECT_FALSE(failed.ok());
    const FrameResult kept = serve(b, view);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept.render_ticket, full.ticket) << "kept past a failure";
    expectFramesIdentical(want, kept.frame.image, "kept frame");

    // The second consecutive failure opens the breaker; once it is
    // half-open, the probe renders the kept view itself.
    fault::arm(fault::kEngineStageThrow, 1.0, /*max_fires=*/1);
    EXPECT_FALSE(serve(b, other).ok());
    ASSERT_EQ(srv.breakerState("lego"), FrameServer::BreakerState::Open);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const FrameResult probe = serve(a, view);
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(probe.render_ticket, probe.ticket) << "a probe renders";
    EXPECT_EQ(srv.breakerState("lego"), FrameServer::BreakerState::Closed);
    const FrameResult after = serve(b, view);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.render_ticket, probe.ticket);

    const QosClassStats s = srv.stats().cls[int(QosClass::Standard)];
    EXPECT_EQ(s.coalesced, 3u);
    EXPECT_EQ(s.admitted + s.coalesced, s.served + s.failed);
    srv.closeSession(a);
    srv.closeSession(b);
    srv.closeSession(inter);
}

/**
 * With one pipeline slot a repeat cannot join a render on the slot: it
 * waits in the scheduler. Once the render finishes, its last render
 * answers the repeat, after the render's own answer.
 */
TEST(FrameServerCoalesce, OneSlotServerAnswersAQueuedRepeat)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    FrameServer srv(reg, coalesceConfig(1));
    const SceneEntry *entry = reg.find("lego");
    const nerf::Camera cam = nerf::cameraForScene(entry->info, 16, 16);
    const uint64_t a = srv.openSession("lego", QosClass::Standard);
    const uint64_t b = srv.openSession("lego", QosClass::Standard);

    EnginePause pause(srv.engine());
    const uint64_t t1 = srv.submitFrame(a, cam);
    const uint64_t t2 = srv.submitFrame(b, cam);
    EXPECT_EQ(srv.stats().cls[int(QosClass::Standard)].coalesced, 0u)
        << "queued behind the only slot";
    pause.release();
    srv.waitIdle();

    std::vector<FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].ticket, t1) << "the leader is delivered first";
    EXPECT_EQ(results[1].ticket, t2);
    core::AsdrRenderer ref(*entry->field, entry->config);
    const Image want = ref.render(cam);
    for (const FrameResult &r : results) {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.render_ticket, t1) << "ticket " << r.ticket;
        expectFramesIdentical(want, r.frame.image, "one-slot frame");
    }
    const QosClassStats s = srv.stats().cls[int(QosClass::Standard)];
    EXPECT_EQ(s.admitted, 1u);
    EXPECT_EQ(s.coalesced, 1u);
    EXPECT_EQ(s.served, 2u);
    srv.closeSession(a);
    srv.closeSession(b);
}

/**
 * A closed-loop callback that resubmits its own view is answered from
 * the finished render each time, by the thread already delivering it:
 * the answers come one after another, never nested in a callback.
 */
TEST(FrameServerCoalesce, CallbackResubmittingItsViewDoesNotNest)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    FrameServer srv(reg, coalesceConfig(2));
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);
    const int FRAMES = 200;
    std::atomic<int> depth{0}, deepest{0}, answered{0}, issued{1};
    std::set<uint64_t> renders;
    std::mutex m;
    uint64_t client = 0;
    client = srv.openSession(
        "lego", QosClass::Standard, {}, [&](FrameResult &&r) {
            const int d = ++depth;
            int seen = deepest.load();
            while (d > seen && !deepest.compare_exchange_weak(seen, d)) {
            }
            EXPECT_TRUE(r.ok());
            {
                std::lock_guard<std::mutex> lock(m);
                renders.insert(r.render_ticket);
            }
            ++answered;
            if (issued.fetch_add(1) < FRAMES)
                srv.submitFrame(client, cam);
            --depth;
        });
    ASSERT_NE(srv.submitFrame(client, cam), 0u);
    srv.waitIdle();
    EXPECT_EQ(answered.load(), FRAMES);
    EXPECT_EQ(deepest.load(), 1);
    EXPECT_EQ(renders.size(), 1u) << "one render answers every frame";
    EXPECT_EQ(srv.stats().cls[int(QosClass::Standard)].coalesced,
              uint64_t(FRAMES - 1));
    srv.closeSession(client);
}

// ------------------------------------------------------------ model test

/**
 * A seeded random mix of session opens and closes, submissions at three
 * poses per scene (so frames coalesce), and pauses and resumptions of
 * the only worker, against 3 pipeline slots and backlogs of 2 (so
 * frames drop). Whatever the interleaving, every ticket gets exactly
 * one result, each class's outcomes add up to its submissions, every
 * served image is render()'s, bit for bit, each render finishes after
 * at most its class's lag of renders with larger tickets (the
 * reference model of the execution order), and each close's callback
 * runs once, after its session's last result. Only invariants are
 * checked, never timings.
 */
TEST(FrameServerModel, SeededOpsGiveEveryTicketOneResult)
{
    SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    ASSERT_NE(reg.addProcedural("chair", "Chair",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    const char *scenes[] = {"lego", "chair"};
    constexpr int kPoses = 3;
    std::vector<nerf::Camera> poses[2];
    std::vector<Image> want[2];
    for (int s = 0; s < 2; ++s) {
        const SceneEntry *entry = reg.find(scenes[s]);
        poses[s] = nerf::orbitCameraPath(entry->info, 16, 16, kPoses, 0.07f);
        core::AsdrRenderer ref(*entry->field, entry->config);
        for (const nerf::Camera &cam : poses[s])
            want[s].push_back(ref.render(cam));
    }

    uint64_t total_dropped = 0, total_coalesced = 0;
    for (uint32_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        std::mt19937 rng(seed);
        Delivered delivered;
        ServerConfig cfg;
        cfg.threads_per_shard = 1;
        cfg.frames_in_flight_per_shard = 3;
        for (QosClassParams &c : cfg.qos.cls)
            c.max_backlog = 2;
        FrameServer srv(reg, cfg);

        struct Session
        {
            uint64_t id;
            int scene;
            QosClass qos;
            bool closing;
        };
        struct Sent
        {
            uint64_t client;
            int scene, pose;
            QosClass qos;
        };
        std::vector<Session> sessions;
        std::map<uint64_t, Sent> sent;
        // Per closed session: close callbacks run, and the results it
        // had been delivered when the first one ran.
        std::mutex closed_m;
        std::map<uint64_t, std::pair<int, size_t>> closed;
        std::unique_ptr<EnginePause> pause;
        auto open = [&](int scene, QosClass qos, bool callback) {
            FrameServer::ResultCallback cb;
            if (callback)
                cb = [&](FrameResult &&r) { delivered.keep(std::move(r)); };
            const uint64_t id =
                srv.openSession(scenes[scene], qos, {}, std::move(cb));
            ASSERT_NE(id, 0u);
            sessions.push_back(Session{id, scene, qos, false});
        };
        for (int s = 0; s < 2; ++s)
            for (int c = 0; c < kQosClasses; ++c)
                open(s, QosClass(c), c == 1);

        for (int op = 0; op < 300; ++op) {
            const uint32_t kind = rng() % 20;
            if (kind < 2) {
                const int scene = int(rng() % 2);
                const QosClass qos = QosClass(rng() % kQosClasses);
                open(scene, qos, rng() % 2 == 0);
            } else if (kind < 15) {
                const Session &s = sessions[rng() % sessions.size()];
                const int pose = int(rng() % kPoses);
                const uint64_t t =
                    srv.submitFrame(s.id, poses[s.scene][size_t(pose)]);
                if (t != 0)
                    sent.emplace(t, Sent{s.id, s.scene, pose, s.qos});
                else
                    EXPECT_TRUE(s.closing) << "an open session refused";
            } else if (kind == 15) {
                // Returns at once; the callback waits for the session's
                // in-flight frames, which a paused worker holds back.
                Session &s = sessions[rng() % sessions.size()];
                if (!s.closing) {
                    s.closing = true;
                    srv.closeSession(s.id, [&, id = s.id] {
                        const size_t n = delivered.countFor(srv, id);
                        std::lock_guard<std::mutex> lock(closed_m);
                        auto &c = closed[id];
                        if (c.first++ == 0)
                            c.second = n;
                    });
                }
            } else if (pause) {
                pause.reset();
            } else {
                pause = std::make_unique<EnginePause>(srv.engine());
            }
        }
        pause.reset();
        srv.waitIdle();

        const auto results = delivered.all(srv);
        EXPECT_EQ(results.size(), sent.size());
        std::map<uint64_t, size_t> tickets_of;
        for (const auto &entry : sent)
            ++tickets_of[entry.second.client];
        {
            std::lock_guard<std::mutex> lock(closed_m);
            for (const Session &s : sessions) {
                if (!s.closing)
                    continue;
                EXPECT_EQ(closed[s.id].first, 1) << "session " << s.id;
                EXPECT_EQ(closed[s.id].second, tickets_of[s.id])
                    << "session " << s.id;
            }
        }
        uint64_t served[kQosClasses] = {}, dropped[kQosClasses] = {};
        std::vector<std::pair<std::chrono::steady_clock::time_point,
                              std::pair<uint64_t, QosClass>>>
            renders;
        for (const auto &[ticket, r] : results) {
            const auto it = sent.find(ticket);
            ASSERT_NE(it, sent.end()) << "unknown ticket " << ticket;
            const Sent &s = it->second;
            EXPECT_EQ(r.client, s.client);
            EXPECT_EQ(r.qos, s.qos);
            if (r.dropped) {
                ++dropped[int(s.qos)];
                continue;
            }
            ASSERT_TRUE(r.ok()) << "ticket " << ticket;
            ++served[int(s.qos)];
            EXPECT_EQ(r.rung, QualityRung::Full);
            // A frame that joined a render shares its leader's view.
            const Sent &leader = sent.at(r.render_ticket);
            EXPECT_EQ(leader.scene, s.scene);
            EXPECT_EQ(leader.pose, s.pose);
            EXPECT_EQ(leader.qos, s.qos);
            expectFramesIdentical(want[s.scene][size_t(s.pose)],
                                  r.frame.image, "served frame");
            if (r.render_ticket == ticket)
                renders.push_back(
                    {r.frame.finished_at, {ticket, s.qos}});
        }
        std::sort(renders.begin(), renders.end());
        Order finished;
        for (const auto &rd : renders)
            finished.push_back(rd.second);
        expectOvertakenWithinLag(finished);

        const ServerStatsSnapshot snap = srv.stats();
        uint64_t submitted = 0;
        for (int c = 0; c < kQosClasses; ++c) {
            const QosClassStats &st = snap.cls[c];
            submitted += st.submitted;
            EXPECT_EQ(st.served + st.dropped + st.failed + st.expired,
                      st.submitted);
            EXPECT_EQ(st.served, served[c]);
            EXPECT_EQ(st.dropped, dropped[c]);
            EXPECT_EQ(st.admitted + st.coalesced, st.served + st.failed);
            total_dropped += st.dropped;
            total_coalesced += st.coalesced;
        }
        EXPECT_EQ(submitted, uint64_t(sent.size()));
    }
    // The sequences reach both paths the invariants must survive.
    EXPECT_GT(total_dropped, 0u);
    EXPECT_GT(total_coalesced, 0u);
}
