/**
 * @file
 * Guarantees of the streaming frame engine (engine/frame_engine):
 *
 *  - N frames pipelined through a FrameEngine are bit-identical to N
 *    sequential AsdrRenderer::render() calls, for every thread count
 *    and max_frames_in_flight.
 *  - The batched distillation trainer (Mlp::forwardBatch through
 *    fitField) produces a bit-identical field to the per-sample loop.
 *  - Destroying an engine delivers every submitted frame before its
 *    workers are joined, and the workers run frames in order-key order
 *    (pause()/resume() holds them while the frames queue).
 *    (Stage order within a frame is checked on real frames'
 *    telemetry spans: Telemetry.SpanOrderingInvariants.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "engine/frame_engine.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "nerf/trainer.hpp"
#include "scene/scene_library.hpp"

using namespace asdr;
using namespace asdr::core;
using namespace asdr::nerf;

namespace {

void
expectFramesIdentical(const Image &a, const Image &b, const char *what)
{
    ASSERT_EQ(a.pixels(), b.pixels());
    for (size_t i = 0; i < a.pixels(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]) << what << " pixel " << i;
}

} // namespace

TEST(FrameEngineLifecycle, DestructionDeliversEverySubmittedFrame)
{
    // An engine destroyed right after its submissions still runs every
    // frame's callback exactly once, with the frame render() draws,
    // before its destructor returns: it drains, then joins its workers.
    auto scene = scene::createScene("Lego");
    ProceduralField field(*scene, NgpModelConfig::fast());
    const int W = 12, FRAMES = 6;
    auto path = orbitCameraPath(scene->info(), W, W, FRAMES);
    RenderConfig cfg = RenderConfig::asdr(W, W, 24);
    cfg.num_threads = 1;
    const AsdrRenderer reference(field, cfg);
    std::vector<Image> seq;
    for (const auto &cam : path)
        seq.push_back(reference.render(cam));

    for (int threads : {1, 3}) {
        for (int slots : {1, 2}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " slots=" + std::to_string(slots));
            std::vector<int> calls(size_t(FRAMES), 0);
            std::vector<Image> got;
            got.resize(size_t(FRAMES));
            {
                engine::EngineConfig ec;
                ec.num_threads = threads;
                ec.max_frames_in_flight = slots;
                engine::FrameEngine eng(ec);
                for (int f = 0; f < FRAMES; ++f) {
                    engine::FrameRequest req(path[size_t(f)]);
                    req.renderer = &reference;
                    // Each frame writes only its own elements.
                    req.on_complete = [&calls, &got,
                                       f](engine::Frame &&frame,
                                          std::exception_ptr err) {
                        EXPECT_EQ(err, nullptr);
                        ++calls[size_t(f)];
                        got[size_t(f)] = std::move(frame.image);
                    };
                    eng.submitAsync(std::move(req));
                }
            }
            for (int f = 0; f < FRAMES; ++f) {
                EXPECT_EQ(calls[size_t(f)], 1) << "frame " << f;
                expectFramesIdentical(seq[size_t(f)], got[size_t(f)],
                                      "frame delivered by the destructor");
            }
        }
    }
}

TEST(FrameEnginePipeline, InFlightFramesMatchSequentialBitwise)
{
    auto scene = scene::createScene("Lego");
    ProceduralField field(*scene, NgpModelConfig::fast());

    const int W = 20, H = 20, FRAMES = 5;
    auto path = orbitCameraPath(scene->info(), W, H, FRAMES);

    RenderConfig cfg = RenderConfig::asdr(W, H, 48);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;

    // Reference: sequential synchronous render() calls.
    AsdrRenderer reference(field, cfg);
    std::vector<Image> seq;
    std::vector<RenderStats> seq_stats{size_t(FRAMES)};
    for (int f = 0; f < FRAMES; ++f)
        seq.push_back(
            reference.render(path[size_t(f)], &seq_stats[size_t(f)]));
    const AsdrRenderer pipelined(field, cfg);

    for (int threads : {1, 2, 4}) {
        for (int in_flight : {1, 2, 4}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " in_flight=" + std::to_string(in_flight));
            engine::EngineConfig ec;
            ec.num_threads = threads;
            ec.max_frames_in_flight = in_flight;
            engine::FrameEngine eng(ec);

            std::vector<std::future<engine::Frame>> futs;
            for (int f = 0; f < FRAMES; ++f) {
                engine::FrameRequest req(path[size_t(f)]);
                req.renderer = &pipelined;
                futs.push_back(eng.submit(std::move(req)));
            }
            for (int f = 0; f < FRAMES; ++f) {
                engine::Frame frame = futs[size_t(f)].get();
                EXPECT_EQ(frame.id, uint64_t(f + 1));
                expectFramesIdentical(seq[size_t(f)], frame.image,
                                      "pipelined frame");
                const RenderStats &a = seq_stats[size_t(f)];
                const RenderStats &b = frame.stats;
                EXPECT_EQ(a.profile.rays, b.profile.rays);
                EXPECT_EQ(a.profile.probe_rays, b.profile.probe_rays);
                EXPECT_EQ(a.profile.points, b.profile.points);
                EXPECT_EQ(a.profile.color_execs, b.profile.color_execs);
                EXPECT_EQ(a.profile.lookups, b.profile.lookups);
                EXPECT_EQ(a.sample_count_map, b.sample_count_map);
                EXPECT_EQ(a.actual_points_map, b.actual_points_map);
            }
            eng.drain();
        }
    }
}

namespace {

/**
 * A field whose color network throws: drives the engine's error path.
 * Density works, so the occupancy grid builds in ray setup and the
 * error comes from the Phase I and Phase II tasks that shade.
 */
struct ThrowingField : ProceduralField
{
    using ProceduralField::ProceduralField;
    Vec3 color(const Vec3 &, const Vec3 &,
               const DensityOutput &) const override
    {
        throw std::runtime_error("field exploded");
    }
    void colorBatch(const Vec3 *, const Vec3 &, const DensityOutput *, int,
                    Vec3 *) const override
    {
        throw std::runtime_error("field exploded");
    }
};

} // namespace

TEST(FrameEnginePipeline, StageFailureReachesTheFutureAndFreesTheSlot)
{
    auto scene = scene::createScene("Lego");
    ThrowingField bad(*scene, NgpModelConfig::fast());
    ProceduralField good(*scene, NgpModelConfig::fast());
    Camera camera = cameraForScene(scene->info(), 12, 12);

    RenderConfig cfg = RenderConfig::asdr(12, 12, 24);
    cfg.num_threads = 2;
    const AsdrRenderer bad_r(bad, cfg), good_r(good, cfg);

    engine::EngineConfig ec;
    ec.num_threads = 2;
    ec.max_frames_in_flight = 2;
    engine::FrameEngine eng(ec);

    // The failing frame's error propagates through its future...
    engine::FrameRequest bad_req(camera);
    bad_req.renderer = &bad_r;
    auto bad_fut = eng.submit(std::move(bad_req));
    EXPECT_THROW(bad_fut.get(), std::runtime_error);

    // ...and the engine keeps serving: the slot is freed, later frames
    // complete, and drain() returns.
    engine::FrameRequest good_req(camera);
    good_req.renderer = &good_r;
    engine::Frame frame = eng.submit(std::move(good_req)).get();
    EXPECT_EQ(frame.image.width(), 12);
    eng.drain();
}

TEST(FrameEngineAsync, CallbackDeliversBitIdenticalFrames)
{
    auto scene = scene::createScene("Lego");
    ProceduralField field(*scene, NgpModelConfig::fast());
    const int W = 16, FRAMES = 4;
    auto path = orbitCameraPath(scene->info(), W, W, FRAMES);

    RenderConfig cfg = RenderConfig::asdr(W, W, 32);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;
    AsdrRenderer reference(field, cfg);
    std::vector<Image> seq;
    for (const auto &cam : path)
        seq.push_back(reference.render(cam));

    engine::EngineConfig ec;
    ec.num_threads = 2;
    ec.max_frames_in_flight = 2;
    engine::FrameEngine eng(ec);

    // Outcomes land on engine workers; ids map them back to submission
    // order.
    std::mutex m;
    std::vector<engine::Frame> via_cb;
    via_cb.resize(size_t(FRAMES));
    for (const auto &cam : path) {
        engine::FrameRequest req(cam);
        req.renderer = &reference;
        req.on_complete = [&](engine::Frame &&frame,
                              std::exception_ptr err) {
            ASSERT_EQ(err, nullptr);
            std::lock_guard<std::mutex> lock(m);
            via_cb[size_t(frame.id - 1)] = std::move(frame);
        };
        eng.submitAsync(std::move(req));
    }
    eng.drain();
    for (int f = 0; f < FRAMES; ++f) {
        expectFramesIdentical(seq[size_t(f)],
                              via_cb[size_t(f)].image, "callback frame");
        // Timestamps are monotone: submitted <= started <= finished.
        EXPECT_LE(via_cb[size_t(f)].submitted_at,
                  via_cb[size_t(f)].started_at);
        EXPECT_LE(via_cb[size_t(f)].started_at,
                  via_cb[size_t(f)].finished_at);
    }
}

TEST(FrameEngineAsync, StageFailureReachesCallbackAndFutureWithoutWedging)
{
    auto scene = scene::createScene("Lego");
    ThrowingField bad(*scene, NgpModelConfig::fast());
    ProceduralField good(*scene, NgpModelConfig::fast());
    Camera camera = cameraForScene(scene->info(), 12, 12);
    RenderConfig cfg = RenderConfig::asdr(12, 12, 24);
    cfg.num_threads = 2;
    const AsdrRenderer bad_r(bad, cfg), good_r(good, cfg);

    engine::EngineConfig ec;
    ec.num_threads = 2;
    ec.max_frames_in_flight = 2;
    engine::FrameEngine eng(ec);

    // More failing frames than pipeline slots: every slot must be
    // reclaimed and every callback notified.
    std::atomic<int> cb_errors{0};
    for (int f = 0; f < 3; ++f) {
        engine::FrameRequest req(camera);
        req.renderer = &bad_r;
        req.on_complete = [&](engine::Frame &&frame,
                              std::exception_ptr err) {
            EXPECT_NE(err, nullptr);
            EXPECT_GT(frame.id, 0u); // failures still identify themselves
            cb_errors.fetch_add(1);
        };
        eng.submitAsync(std::move(req));
    }
    eng.drain();
    EXPECT_EQ(cb_errors.load(), 3);

    // The engine is not wedged: the future path still errors cleanly
    // and a good frame still renders.
    engine::FrameRequest bad_req(camera);
    bad_req.renderer = &bad_r;
    EXPECT_THROW(eng.submit(std::move(bad_req)).get(),
                 std::runtime_error);
    engine::FrameRequest good_req(camera);
    good_req.renderer = &good_r;
    engine::Frame frame = eng.submit(std::move(good_req)).get();
    EXPECT_EQ(frame.image.width(), 12);
    eng.drain();
}

TEST(FrameEngineAsync, SmallerKeySubmittedSecondFinishesFirst)
{
    // A frame submitted AFTER another but with a smaller order key
    // still runs first on the engine's single worker: the engine is
    // paused while the frames queue, and on resume the worker takes the
    // smaller key's stages first. A keyless frame is keyed by its frame
    // id (3 here), which undercuts both.
    auto scene = scene::createScene("Lego");
    ProceduralField field(*scene, NgpModelConfig::fast());
    Camera camera = cameraForScene(scene->info(), 12, 12);
    const AsdrRenderer r(field, RenderConfig::asdr(12, 12, 24));

    engine::EngineConfig ec;
    ec.num_threads = 1;
    ec.max_frames_in_flight = 3;
    engine::FrameEngine eng(ec);

    eng.pause();

    std::mutex m;
    std::vector<uint64_t> completion_order;
    auto submitWithKey = [&](uint64_t key) {
        engine::FrameRequest req(camera);
        req.renderer = &r;
        req.priority = key;
        req.on_complete = [&m, &completion_order,
                           key](engine::Frame &&, std::exception_ptr) {
            std::lock_guard<std::mutex> lock(m);
            completion_order.push_back(key);
        };
        eng.submitAsync(std::move(req));
    };
    submitWithKey(20); // frame 1
    submitWithKey(10); // frame 2
    submitWithKey(0);  // frame 3: keyed 3
    eng.resume();
    eng.drain();
    EXPECT_EQ(completion_order, (std::vector<uint64_t>{0, 10, 20}));
}

TEST(FrameEnginePipeline, NonAdaptiveAndScalarConfigsToo)
{
    // eval_batch <= 1 (scalar row path) and adaptive off (no Phase I
    // tasks) exercise the degenerate chain shapes.
    auto scene = scene::createScene("Chair");
    ProceduralField field(*scene, NgpModelConfig::fast());
    Camera camera = cameraForScene(scene->info(), 16, 16);

    for (int eval_batch : {1, 32}) {
        RenderConfig cfg = RenderConfig::baseline(16, 16, 32);
        cfg.early_termination = true;
        cfg.eval_batch = eval_batch;
        cfg.num_threads = 2;
        AsdrRenderer reference(field, cfg);
        Image want = reference.render(camera);

        engine::EngineConfig ec;
        ec.num_threads = 2;
        ec.max_frames_in_flight = 2;
        engine::FrameEngine eng(ec);
        engine::FrameRequest req(camera);
        req.renderer = &reference;
        engine::Frame frame = eng.submit(std::move(req)).get();
        expectFramesIdentical(want, frame.image, "non-adaptive/scalar");
    }
}

TEST(BatchedTrainer, BitIdenticalToPerSampleLoop)
{
    auto scene = scene::createScene("Lego");
    TrainConfig tcfg;
    tcfg.steps = 4;
    tcfg.batch = 37; // not a multiple of the 16-lane block
    tcfg.lr = 4e-3f;
    tcfg.seed = 0xBEEF;

    // Reference: the per-sample loop fitField used to run.
    InstantNgpField ref(NgpModelConfig::fast(), 77);
    {
        Rng rng(tcfg.seed, 0xDA7A);
        for (int step = 0; step < tcfg.steps; ++step) {
            ref.zeroGrads();
            for (int b = 0; b < tcfg.batch; ++b) {
                auto s = drawSample(*scene, rng, tcfg.surface_bias);
                ref.trainStep(s);
            }
            float lr = tcfg.lr;
            if (step > tcfg.steps * 2 / 3)
                lr *= 1.0f / 9.0f;
            else if (step > tcfg.steps / 3)
                lr *= 1.0f / 3.0f;
            ref.applyAdam(lr);
        }
    }

    InstantNgpField batched(NgpModelConfig::fast(), 77);
    fitField(batched, *scene, tcfg);

    EXPECT_EQ(ref.grid().params(), batched.grid().params());
    EXPECT_EQ(ref.densityMlp().serializeParams(),
              batched.densityMlp().serializeParams());
    EXPECT_EQ(ref.colorMlp().serializeParams(),
              batched.colorMlp().serializeParams());
}

TEST(BatchedTrainer, BatchForwardMatchesPerSampleForward)
{
    // The batched training forward must agree with the per-sample
    // training forward bit for bit, including the retained activations
    // driving backward.
    Mlp a({10, {24, 16}, 5}, 99);
    Mlp b({10, {24, 16}, 5}, 99);

    const int count = 21;
    Rng rng(0x5EED);
    std::vector<float> in(size_t(count) * 10);
    for (auto &v : in)
        v = rng.nextRange(-1.0f, 1.0f);

    MlpBatchWorkspace bws;
    std::vector<float> out_batch(size_t(count) * 5);
    a.forwardBatch(in.data(), count, 10, out_batch.data(), 5, bws);

    std::vector<float> dout(5, 0.25f);
    std::vector<float> din_a(10), din_b(10);
    for (int p = 0; p < count; ++p) {
        MlpWorkspace ws;
        float out_one[5];
        b.forward(in.data() + size_t(p) * 10, out_one, ws);
        for (int o = 0; o < 5; ++o)
            ASSERT_EQ(out_batch[size_t(p) * 5 + size_t(o)], out_one[o])
                << "point " << p << " output " << o;
        a.backward(bws, p, dout.data(), din_a.data());
        b.backward(ws, dout.data(), din_b.data());
        ASSERT_EQ(din_a, din_b) << "point " << p;
    }
    EXPECT_EQ(a.serializeParams(), b.serializeParams());
}
