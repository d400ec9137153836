/**
 * @file
 * Equivalence guarantees of the batched, multi-threaded pipeline: for
 * every field type the batch evaluation API must be bit-identical to
 * per-point calls, and a rendered frame must be bit-identical across
 * thread counts, batch sizes, tile sizes, and the scalar oracle. A
 * counting decorator checks what the host skips: density outside the
 * occupancy grid's marked cells, and color at dead anchors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "baseline/quantized_field.hpp"
#include "core/renderer.hpp"
#include "nerf/dvgo.hpp"
#include "nerf/hash_grid.hpp"
#include "nerf/mlp.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "nerf/tensorf.hpp"
#include "scene/scene_library.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::core;
using namespace asdr::nerf;

namespace {

std::vector<Vec3>
randomPositions(int count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec3> pos;
    pos.reserve(size_t(count));
    for (int i = 0; i < count; ++i)
        pos.push_back({rng.nextRange(0.0f, 1.0f), rng.nextRange(0.0f, 1.0f),
                       rng.nextRange(0.0f, 1.0f)});
    return pos;
}

/** Batch results must equal per-point results bit for bit. */
void
expectBatchEqualsScalar(const RadianceField &field, int count,
                        uint64_t seed)
{
    SCOPED_TRACE(field.describe() + " count=" + std::to_string(count));
    std::vector<Vec3> pos = randomPositions(count, seed);
    const Vec3 dir = normalize(Vec3{0.3f, -0.5f, 0.8f});

    std::vector<DensityOutput> batch_den(static_cast<size_t>(count));
    field.densityBatch(pos.data(), count, batch_den.data());
    for (int i = 0; i < count; ++i) {
        DensityOutput ref = field.density(pos[size_t(i)]);
        ASSERT_EQ(batch_den[size_t(i)].sigma, ref.sigma) << "point " << i;
        for (int f = 0; f < kMaxGeoFeatures; ++f)
            ASSERT_EQ(batch_den[size_t(i)].geo[size_t(f)],
                      ref.geo[size_t(f)])
                << "point " << i << " geo " << f;
    }

    std::vector<Vec3> batch_col(static_cast<size_t>(count));
    field.colorBatch(pos.data(), dir, batch_den.data(), count,
                     batch_col.data());
    for (int i = 0; i < count; ++i) {
        Vec3 ref = field.color(pos[size_t(i)], dir, batch_den[size_t(i)]);
        ASSERT_EQ(batch_col[size_t(i)], ref) << "point " << i;
    }
}

} // namespace

TEST(BatchEquivalence, Mlp)
{
    Mlp mlp({32, {64, 64}, 16}, 7);
    const int count = 77; // crosses the internal block size
    Rng rng(8);
    std::vector<float> in(size_t(count) * 32);
    for (auto &x : in)
        x = rng.nextGaussian();

    std::vector<float> batch(size_t(count) * 16);
    mlp.forwardBatch(in.data(), count, 32, batch.data(), 16);
    for (int p = 0; p < count; ++p) {
        float ref[16];
        mlp.forward(in.data() + size_t(p) * 32, ref);
        for (int o = 0; o < 16; ++o)
            ASSERT_EQ(batch[size_t(p) * 16 + size_t(o)], ref[o])
                << "point " << p << " out " << o;
    }
}

TEST(BatchEquivalence, MlpStridedOutput)
{
    // Outputs laid out with a gap between rows (struct-member style).
    Mlp mlp({8, {16}, 4}, 9);
    const int count = 5, stride = 11;
    Rng rng(10);
    std::vector<float> in(size_t(count) * 8);
    for (auto &x : in)
        x = rng.nextGaussian();
    std::vector<float> out(size_t(count) * size_t(stride), -1.0f);
    mlp.forwardBatch(in.data(), count, 8, out.data(), stride);
    for (int p = 0; p < count; ++p) {
        float ref[4];
        mlp.forward(in.data() + size_t(p) * 8, ref);
        for (int o = 0; o < 4; ++o)
            ASSERT_EQ(out[size_t(p) * size_t(stride) + size_t(o)], ref[o]);
        // The gap must be untouched.
        for (int o = 4; o < stride; ++o)
            ASSERT_EQ(out[size_t(p) * size_t(stride) + size_t(o)], -1.0f);
    }
}

TEST(BatchEquivalence, HashGridEncode)
{
    HashGridConfig cfg;
    cfg.levels = 8;
    cfg.log2_table_size = 12;
    HashGrid grid(cfg, 0x5EED);
    const int fd = grid.featureDim();
    std::vector<Vec3> pos = randomPositions(50, 11);

    std::vector<float> batch(size_t(50) * size_t(fd));
    grid.encodeBatch(pos.data(), 50, batch.data(), fd);
    std::vector<float> ref(static_cast<size_t>(fd));
    for (int p = 0; p < 50; ++p) {
        grid.encode(pos[size_t(p)], ref.data());
        for (int f = 0; f < fd; ++f)
            ASSERT_EQ(batch[size_t(p) * size_t(fd) + size_t(f)],
                      ref[size_t(f)])
                << "point " << p << " feature " << f;
    }
}

TEST(BatchEquivalence, AllFieldTypes)
{
    auto scene = scene::createScene("Lego");
    ProceduralField procedural(*scene, NgpModelConfig::fast());
    InstantNgpField ngp(NgpModelConfig::fast(), 21);
    DvgoField dvgo(DvgoConfig{}, 22);
    TensorfField tensorf(TensorfConfig{}, 23);
    baseline::QuantizedField quantized(ngp, 8, 0.05f);

    for (int count : {1, 5, 32, 100}) {
        expectBatchEqualsScalar(procedural, count, 100 + uint64_t(count));
        expectBatchEqualsScalar(ngp, count, 200 + uint64_t(count));
        expectBatchEqualsScalar(dvgo, count, 300 + uint64_t(count));
        expectBatchEqualsScalar(tensorf, count, 400 + uint64_t(count));
        expectBatchEqualsScalar(quantized, count, 500 + uint64_t(count));
    }
}

namespace {

struct RenderFixture
{
    std::unique_ptr<scene::AnalyticScene> scene;
    std::unique_ptr<ProceduralField> field;
    Camera camera;

    explicit RenderFixture(const std::string &name, int w = 20, int h = 20)
        : scene(scene::createScene(name)),
          field(std::make_unique<ProceduralField>(*scene,
                                                  NgpModelConfig::fast())),
          camera(cameraForScene(scene->info(), w, h))
    {
    }
};

void
expectFramesIdentical(const Image &a, const Image &b, const char *what)
{
    ASSERT_EQ(a.pixels(), b.pixels());
    for (size_t i = 0; i < a.pixels(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]) << what << " pixel " << i;
}

/**
 * Forwards every virtual to `inner` and counts the colorBatch calls,
 * the points they carry and the calls that carry none, and the density
 * work: densityBatch calls and points, and density() calls. With
 * `check_density`
 * it also counts the shaded points whose DensityOutput differs from
 * `inner.density(pos)` in any bit. The counters are atomic because the
 * batched march calls in from every worker.
 */
class ColorCountingField final : public RadianceField
{
  public:
    explicit ColorCountingField(const RadianceField &inner,
                                bool check_density = false)
        : inner_(inner), check_density_(check_density)
    {
    }

    DensityOutput
    density(const Vec3 &pos) const override
    {
        density_calls.fetch_add(1);
        return inner_.density(pos);
    }
    Vec3
    color(const Vec3 &pos, const Vec3 &dir,
          const DensityOutput &den) const override
    {
        checkDensity(&pos, &den, 1);
        return inner_.color(pos, dir, den);
    }
    void
    densityBatch(const Vec3 *pos, int count,
                 DensityOutput *out) const override
    {
        density_batch_calls.fetch_add(1);
        density_points.fetch_add(uint64_t(count));
        inner_.densityBatch(pos, count, out);
    }
    void
    colorBatch(const Vec3 *pos, const Vec3 &dir, const DensityOutput *den,
               int count, Vec3 *out) const override
    {
        calls.fetch_add(1);
        points.fetch_add(uint64_t(count));
        if (count == 0)
            empty_calls.fetch_add(1);
        checkDensity(pos, den, count);
        inner_.colorBatch(pos, dir, den, count, out);
    }
    void
    traceLookups(const Vec3 &pos, LookupSink &sink) const override
    {
        inner_.traceLookups(pos, sink);
    }
    TableSchema tableSchema() const override { return inner_.tableSchema(); }
    FieldCosts costs() const override { return inner_.costs(); }
    std::string describe() const override { return inner_.describe(); }

    void
    reset()
    {
        calls = 0;
        points = 0;
        empty_calls = 0;
        density_batch_calls = 0;
        density_points = 0;
        density_calls = 0;
        foreign_density = 0;
    }

    /** Density work on the host: batch points plus per-point calls. */
    uint64_t
    densityWork() const
    {
        return density_points.load() + density_calls.load();
    }

    mutable std::atomic<uint64_t> calls{0}, points{0}, empty_calls{0};
    mutable std::atomic<uint64_t> density_batch_calls{0}, density_points{0};
    mutable std::atomic<uint64_t> density_calls{0};
    mutable std::atomic<uint64_t> foreign_density{0};

  private:
    void
    checkDensity(const Vec3 *pos, const DensityOutput *den, int count) const
    {
        if (!check_density_)
            return;
        for (int i = 0; i < count; ++i) {
            const DensityOutput own = inner_.density(pos[i]);
            if (std::memcmp(&own, &den[i], sizeof(DensityOutput)) != 0)
                foreign_density.fetch_add(1);
        }
    }

    const RadianceField &inner_;
    const bool check_density_;
};

/** The workload profiles of two renders of one frame agree. */
void
expectSameProfile(const WorkloadProfile &a, const WorkloadProfile &b)
{
    EXPECT_EQ(a.rays, b.rays);
    EXPECT_EQ(a.probe_rays, b.probe_rays);
    EXPECT_EQ(a.points, b.points);
    EXPECT_EQ(a.density_execs, b.density_execs);
    EXPECT_EQ(a.color_execs, b.color_execs);
    EXPECT_EQ(a.approx_colors, b.approx_colors);
    EXPECT_EQ(a.lookups, b.lookups);
}

/** The `q`-quantile of the sigma `field` returns at 4096 random points
 *  of the occupancy grid's lattice of cell corners. */
float
latticeSigmaQuantile(const RadianceField &field, double q, uint64_t seed)
{
    constexpr int kRes = OccupancyGrid::kRes;
    Rng rng(seed);
    std::vector<Vec3> pos;
    for (int i = 0; i < 4096; ++i)
        pos.push_back(Vec3(float(rng.nextBounded(kRes + 1)),
                           float(rng.nextBounded(kRes + 1)),
                           float(rng.nextBounded(kRes + 1))) *
                      (1.0f / float(kRes)));
    std::vector<DensityOutput> den(pos.size());
    field.densityBatch(pos.data(), int(pos.size()), den.data());
    std::vector<float> sigma;
    for (const DensityOutput &d : den)
        sigma.push_back(d.sigma);
    const size_t k = size_t(q * double(sigma.size() - 1));
    std::nth_element(sigma.begin(), sigma.begin() + k, sigma.end());
    return sigma[k];
}

} // namespace

TEST(ParallelRender, ThreadCountDoesNotChangeTheFrame)
{
    RenderFixture fx("Lego");
    RenderConfig cfg = RenderConfig::asdr(20, 20, 48);
    cfg.probe_stride = 4;

    cfg.num_threads = 1;
    RenderStats s1;
    Image one = AsdrRenderer(*fx.field, cfg).render(fx.camera, &s1);

    for (int threads : {2, 4, 7}) {
        cfg.num_threads = threads;
        RenderStats sn;
        Image many = AsdrRenderer(*fx.field, cfg).render(fx.camera, &sn);
        expectFramesIdentical(one, many, "threads");
        EXPECT_EQ(s1.profile.rays, sn.profile.rays);
        EXPECT_EQ(s1.profile.points, sn.profile.points);
        EXPECT_EQ(s1.profile.color_execs, sn.profile.color_execs);
        EXPECT_EQ(s1.profile.lookups, sn.profile.lookups);
        EXPECT_EQ(s1.sample_count_map, sn.sample_count_map);
        EXPECT_EQ(s1.actual_points_map, sn.actual_points_map);
    }
}

TEST(ParallelRender, BatchSizeDoesNotChangeTheFrame)
{
    RenderFixture fx("Chair");
    RenderConfig cfg = RenderConfig::asdr(20, 20, 48);
    cfg.num_threads = 1;

    cfg.eval_batch = 1; // legacy point-at-a-time path
    RenderStats ss;
    Image scalar = AsdrRenderer(*fx.field, cfg).render(fx.camera, &ss);

    for (int batch : {2, 7, 32, 1024}) {
        cfg.eval_batch = batch;
        RenderStats sb;
        Image batched = AsdrRenderer(*fx.field, cfg).render(fx.camera, &sb);
        expectFramesIdentical(scalar, batched, "eval_batch");
        EXPECT_EQ(ss.profile.points, sb.profile.points);
        EXPECT_EQ(ss.profile.density_execs, sb.profile.density_execs);
        EXPECT_EQ(ss.profile.color_execs, sb.profile.color_execs);
        EXPECT_EQ(ss.profile.approx_colors, sb.profile.approx_colors);
        EXPECT_EQ(ss.actual_points_map, sb.actual_points_map);
    }
}

TEST(ParallelRender, NgpFieldBatchedFrameMatchesScalar)
{
    // The real network exercises the fast InstantNgpField overrides.
    InstantNgpField ngp(NgpModelConfig::fast(), 33);
    auto scene = scene::createScene("Lego");
    Camera camera = cameraForScene(scene->info(), 12, 12);

    RenderConfig cfg = RenderConfig::baseline(12, 12, 24);
    cfg.early_termination = true;
    cfg.color_approx = true;
    cfg.approx_group = 2;
    cfg.num_threads = 1;

    cfg.eval_batch = 1;
    Image scalar = AsdrRenderer(ngp, cfg).render(camera);
    cfg.eval_batch = 16;
    Image batched = AsdrRenderer(ngp, cfg).render(camera);
    cfg.num_threads = 3;
    Image threaded = AsdrRenderer(ngp, cfg).render(camera);

    expectFramesIdentical(scalar, batched, "ngp eval_batch");
    expectFramesIdentical(scalar, threaded, "ngp threads");
}

TEST(ParallelRender, MortonOrderDoesNotChangeTheFrame)
{
    // The batched march (probe rows and Morton tiles) must scatter its
    // results back to exactly the scalar oracle's pixel-order frame,
    // for every thread count, with edge tiles clipped on both axes.
    RenderFixture fx("Lego", 21, 19); // non-multiple of tile_size
    RenderConfig cfg = RenderConfig::asdr(21, 19, 48);
    cfg.probe_stride = 4;

    cfg.eval_batch = 1; // the scalar oracle
    cfg.num_threads = 1;
    RenderStats s_ref;
    Image ref = AsdrRenderer(*fx.field, cfg).render(fx.camera, &s_ref);

    cfg.eval_batch = 32;
    for (int threads : {1, 2, 5}) {
        cfg.num_threads = threads;
        RenderStats s_tiles;
        Image tiles = AsdrRenderer(*fx.field, cfg).render(fx.camera,
                                                          &s_tiles);
        expectFramesIdentical(ref, tiles, "morton");
        EXPECT_EQ(s_ref.profile.rays, s_tiles.profile.rays);
        EXPECT_EQ(s_ref.profile.probe_rays, s_tiles.profile.probe_rays);
        EXPECT_EQ(s_ref.profile.points, s_tiles.profile.points);
        EXPECT_EQ(s_ref.profile.density_execs,
                  s_tiles.profile.density_execs);
        EXPECT_EQ(s_ref.profile.color_execs, s_tiles.profile.color_execs);
        EXPECT_EQ(s_ref.profile.approx_colors,
                  s_tiles.profile.approx_colors);
        EXPECT_EQ(s_ref.profile.lookups, s_tiles.profile.lookups);
        EXPECT_EQ(s_ref.sample_count_map, s_tiles.sample_count_map);
        EXPECT_EQ(s_ref.actual_points_map, s_tiles.actual_points_map);
    }
}

TEST(ParallelRender, MortonOrderMatchesScalarOnNgpField)
{
    // Every field type's batch overrides (the real hash-grid + MLP
    // network among them) through the batched march -- probe rows and
    // depth-major tiles -- must reproduce the point-at-a-time oracle
    // bitwise.
    auto scene = scene::createScene("Lego");
    ProceduralField procedural(*scene, NgpModelConfig::fast());
    InstantNgpField ngp(NgpModelConfig::fast(), 77);
    DvgoField dvgo(DvgoConfig{}, 78);
    TensorfField tensorf(TensorfConfig{}, 79);
    baseline::QuantizedField quantized(ngp, 8, 0.05f);
    Camera camera = cameraForScene(scene->info(), 13, 11);

    // The unfitted networks return sigma near 0.3 everywhere, above the
    // default floor, so every one of their anchors is live and their
    // occupancy grids mark every cell. Their sigma is noise at the
    // grid's lattice spacing: at a floor at the median it crosses the
    // floor every two or three lattice steps, and the grid still marks
    // every cell. A floor that a tenth of the lattice points reach
    // leaves most points at sigma 0 and some cells unmarked, so on the
    // real networks the batched color pass skips anchors, the density
    // pass skips samples, and a live anchor outside the marked cells is
    // evaluated before it is shaded -- each checked against the oracle.
    struct Case
    {
        const RadianceField *field;
        float sigma_floor;
        bool high_floor;
    };
    const float kFloor = RenderConfig{}.sigma_floor;
    const Case cases[] = {
        {&procedural, kFloor, false},
        {&ngp, kFloor, false},
        {&dvgo, kFloor, false},
        {&tensorf, kFloor, false},
        {&quantized, kFloor, false},
        {&ngp, latticeSigmaQuantile(ngp, 0.9, 80), true},
        {&dvgo, latticeSigmaQuantile(dvgo, 0.9, 81), true},
        {&tensorf, latticeSigmaQuantile(tensorf, 0.9, 82), true},
    };

    for (const Case &c : cases) {
        ColorCountingField counting(*c.field);
        // Every renderer of the case shares this one's occupancy grid,
        // which the first oracle render builds.
        RenderConfig base_cfg;
        base_cfg.sigma_floor = c.sigma_floor;
        const AsdrRenderer grid_owner(counting, base_cfg);
        // Phase II alone, then with Phase I probe rows in front.
        for (bool adaptive : {false, true}) {
            SCOPED_TRACE(c.field->describe() +
                         (adaptive ? " adaptive" : " fixed budget") +
                         " sigma_floor=" + std::to_string(c.sigma_floor));
            RenderConfig cfg = RenderConfig::baseline(13, 11, 24);
            cfg.adaptive_sampling = adaptive;
            cfg.delta = 1.0f / 2048.0f;
            cfg.probe_stride = 4;
            cfg.early_termination = true;
            cfg.color_approx = true;
            cfg.approx_group = 2;
            cfg.sigma_floor = c.sigma_floor;
            cfg.num_threads = 1;

            cfg.eval_batch = 1; // the scalar oracle
            RenderStats s_ref;
            Image scalar =
                AsdrRenderer(grid_owner, cfg).render(camera, &s_ref);

            cfg.eval_batch = 16;
            for (int tile : {4, 8}) {
                cfg.tile_size = tile;
                counting.reset();
                RenderStats s;
                Image frame =
                    AsdrRenderer(grid_owner, cfg).render(camera, &s);
                expectFramesIdentical(scalar, frame, "morton");
                expectSameProfile(s_ref.profile, s.profile);
                EXPECT_EQ(s_ref.sample_count_map, s.sample_count_map);
                EXPECT_EQ(s_ref.actual_points_map, s.actual_points_map);
                EXPECT_EQ(counting.empty_calls.load(), 0u);
                if (c.high_floor) {
                    // Both live and dead anchors occur, and the grid
                    // skips density work.
                    EXPECT_GT(counting.points.load(), 0u);
                    EXPECT_LT(counting.points.load(), s.profile.color_execs);
                    EXPECT_LT(counting.densityWork(), s.profile.density_execs);
                }
            }
            cfg.num_threads = 3;
            Image threaded = AsdrRenderer(grid_owner, cfg).render(camera);
            expectFramesIdentical(scalar, threaded, "morton threads");
        }
    }
}

TEST(ParallelRender, ColorPassShadesOnlyContributingAnchors)
{
    // The batched march runs the color network only at anchors that can
    // reach the pixel; the scalar oracle runs it at every anchor, and
    // the workload counters count every anchor on both paths. Most of
    // procedural Lego's anchors lie in empty space, so the host shades
    // well under half of what the modeled pipeline counts.
    RenderFixture fx("Lego");
    ColorCountingField counting(*fx.field);
    for (bool adaptive : {true, false}) {
        RenderConfig cfg = RenderConfig::asdr(20, 20, 48);
        cfg.probe_stride = 4;
        cfg.adaptive_sampling = adaptive;
        cfg.num_threads = 1;

        cfg.eval_batch = 1; // the scalar oracle
        RenderStats s_ref;
        Image ref = AsdrRenderer(*fx.field, cfg).render(fx.camera, &s_ref);

        cfg.eval_batch = RenderConfig{}.eval_batch;
        for (int threads : {1, 3}) {
            SCOPED_TRACE(std::string(adaptive ? "adaptive" : "fixed budget") +
                         " threads=" + std::to_string(threads));
            cfg.num_threads = threads;
            counting.reset();
            RenderStats s;
            Image frame = AsdrRenderer(counting, cfg).render(fx.camera, &s);
            expectFramesIdentical(ref, frame, "shaded anchors");
            EXPECT_EQ(s_ref.profile.color_execs, s.profile.color_execs);
            EXPECT_EQ(s_ref.profile.approx_colors, s.profile.approx_colors);
            EXPECT_EQ(s_ref.sample_count_map, s.sample_count_map);

            EXPECT_GT(counting.points.load(), 0u);
            EXPECT_LT(2 * counting.points.load(), s.profile.color_execs);
            EXPECT_EQ(counting.empty_calls.load(), 0u);
            // At most one call per marched ray.
            EXPECT_LE(counting.calls.load(), s.profile.rays);
        }
    }
}

TEST(ParallelRender, DensityPassSkipsEmptySpace)
{
    // Both host paths evaluate density only at samples in the occupancy
    // grid's marked cells (and at live anchors outside them), while the
    // workload counters count every modeled sample. Most of procedural
    // Lego's samples lie in empty space, so once the grid is built each
    // path evaluates under half of what the modeled pipeline counts.
    RenderFixture fx("Lego");
    ColorCountingField counting(*fx.field);
    for (bool adaptive : {true, false}) {
        RenderConfig cfg = RenderConfig::asdr(20, 20, 48);
        cfg.probe_stride = 4;
        cfg.adaptive_sampling = adaptive;
        cfg.num_threads = 1;

        cfg.eval_batch = 1; // the scalar oracle
        const AsdrRenderer oracle(counting, cfg);
        oracle.render(fx.camera); // builds the grid
        counting.reset();
        RenderStats s_ref;
        Image ref = oracle.render(fx.camera, &s_ref);
        EXPECT_EQ(counting.density_points.load(), 0u);
        EXPECT_GT(counting.density_calls.load(), 0u);
        EXPECT_LT(2 * counting.density_calls.load(),
                  s_ref.profile.density_execs);

        cfg.eval_batch = RenderConfig{}.eval_batch;
        for (int threads : {1, 3}) {
            SCOPED_TRACE(std::string(adaptive ? "adaptive" : "fixed budget") +
                         " threads=" + std::to_string(threads));
            cfg.num_threads = threads;
            const AsdrRenderer batched(counting, cfg);
            batched.render(fx.camera); // builds the grid
            counting.reset();
            RenderStats s;
            Image frame = batched.render(fx.camera, &s);
            expectFramesIdentical(ref, frame, "density skip");
            expectSameProfile(s_ref.profile, s.profile);
            EXPECT_EQ(s_ref.sample_count_map, s.sample_count_map);
            EXPECT_EQ(s_ref.actual_points_map, s.actual_points_map);
            EXPECT_EQ(counting.density_calls.load(), 0u);
            EXPECT_GT(counting.density_points.load(), 0u);
            EXPECT_LT(2 * counting.density_points.load(),
                      s.profile.density_execs);
        }
    }
}

TEST(ParallelRender, DensityBatchesHoldEvalBatchMarkedSamples)
{
    // servebench's frame shapes: procedural Lego at 48x48 and an NGP
    // network at 32x32, the asdr preset at 64 samples per ray. A band of
    // the batched march closes only once it holds eval_batch samples in
    // marked cells, so the host's density calls average at least
    // eval_batch points although the grid skips most samples (a march's
    // last band, and the color pass's calls for live anchors outside
    // marked cells, hold fewer). The unfitted network's sigma is noise
    // around one value (see MortonOrderMatchesScalarOnNgpField); at a
    // floor that 1% of the lattice points reach, its grid keeps about a
    // third of the modeled samples, as the fitted NGP Lego's grid does
    // on servebench's serve_shared.
    auto scene = scene::createScene("Lego");
    ProceduralField procedural(*scene, NgpModelConfig::fast());
    InstantNgpField ngp(NgpModelConfig::fast(), 77);
    struct Case
    {
        const RadianceField *field;
        int size;
        float sigma_floor;
    };
    const Case cases[] = {
        {&procedural, 48, RenderConfig{}.sigma_floor},
        {&ngp, 32, latticeSigmaQuantile(ngp, 0.99, 80)},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field->describe());
        ColorCountingField counting(*c.field);
        const Camera camera = cameraForScene(scene->info(), c.size, c.size);
        RenderConfig cfg = RenderConfig::asdr(c.size, c.size, 64);
        cfg.sigma_floor = c.sigma_floor;
        cfg.num_threads = 1;

        cfg.eval_batch = 1; // the scalar oracle; builds the shared grid
        const AsdrRenderer oracle(counting, cfg);
        RenderStats s_ref;
        Image ref = oracle.render(camera, &s_ref);

        cfg.eval_batch = 32;
        for (int threads : {1, 3}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            cfg.num_threads = threads;
            counting.reset();
            RenderStats s;
            Image frame = AsdrRenderer(oracle, cfg).render(camera, &s);
            expectFramesIdentical(ref, frame, "batch width");
            expectSameProfile(s_ref.profile, s.profile);
            EXPECT_EQ(s_ref.sample_count_map, s.sample_count_map);
            EXPECT_EQ(s_ref.actual_points_map, s.actual_points_map);
            const uint64_t calls = counting.density_batch_calls.load();
            ASSERT_GT(calls, 0u);
            EXPECT_GE(counting.density_points.load(),
                      uint64_t(cfg.eval_batch) * calls)
                << double(counting.density_points.load()) / double(calls)
                << " points per call";
        }
    }
}

TEST(ParallelRender, ShadedAnchorsSeeTheFieldsOwnDensity)
{
    // A live anchor outside the grid's marked cells has no density from
    // the march. Both host paths evaluate it before shading, so every
    // DensityOutput the color network sees is the field's own, bit for
    // bit. The NGP floor leaves such anchors on the real network too
    // (see MortonOrderMatchesScalarOnNgpField).
    RenderFixture fx("Lego");
    InstantNgpField ngp(NgpModelConfig::fast(), 77);
    struct Case
    {
        const RadianceField *field;
        float sigma_floor;
    };
    const Case cases[] = {
        {fx.field.get(), RenderConfig{}.sigma_floor},
        {&ngp, latticeSigmaQuantile(ngp, 0.9, 80)},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field->describe());
        ColorCountingField checking(*c.field, /*check_density=*/true);
        RenderConfig cfg = RenderConfig::asdr(20, 20, 48);
        cfg.probe_stride = 4;
        cfg.sigma_floor = c.sigma_floor;
        cfg.num_threads = 1;

        cfg.eval_batch = 1; // the scalar oracle
        const AsdrRenderer oracle(checking, cfg);
        Image ref = oracle.render(fx.camera);
        cfg.eval_batch = RenderConfig{}.eval_batch;
        for (int threads : {1, 3}) {
            cfg.num_threads = threads;
            Image frame = AsdrRenderer(oracle, cfg).render(fx.camera);
            expectFramesIdentical(ref, frame, "own density");
        }
        EXPECT_GT(checking.points.load(), 0u);
        EXPECT_EQ(checking.foreign_density.load(), 0u);
    }
}

TEST(ParallelRender, ClippedRangesMatchTheOracleAtTheirEdges)
{
    // The batched march and its early-termination scan touch only each
    // ray's range of samples that can lie in a marked cell, and the
    // shading and Phase I's difficulty pass only the range's lit span.
    // These configs sit at the range's edges: et_eps > 1, where
    // transmittance 1 cuts every ray at its first sample, so rays march
    // whole; an anchor group of 3 with subset strides {16, 6, 4}, so
    // ranges start at multiples of 3 and probe ranges at multiples of
    // 48; early termination off; color approximation off, so every
    // sample is an anchor; and a floor above every sigma, so no cell is
    // marked and every range is empty.
    RenderFixture fx("Lego", 40, 40);
    const auto set = [](RenderConfig &cfg, int which) {
        switch (which) {
        case 0:
            cfg.et_eps = 1.5f;
            return "et_eps 1.5";
        case 1:
            cfg.approx_group = 3;
            cfg.subset_strides = {16, 6, 4};
            return "group 3, strides 16 6 4";
        case 2:
            cfg.early_termination = false;
            return "no early termination";
        case 3:
            cfg.color_approx = false;
            return "no color approximation";
        default:
            cfg.sigma_floor = 1e30f;
            return "floor above every sigma";
        }
    };
    EXPECT_EQ(OccupancyGrid::build(*fx.field, 1e30f).markedCells(), 0);
    for (int which = 0; which < 5; ++which) {
        RenderConfig cfg = RenderConfig::asdr(40, 40, 64);
        SCOPED_TRACE(set(cfg, which));
        cfg.num_threads = 1;
        cfg.eval_batch = 1; // the scalar oracle
        const AsdrRenderer oracle(*fx.field, cfg);
        RenderStats s_ref;
        Image ref = oracle.render(fx.camera, &s_ref);

        cfg.eval_batch = RenderConfig{}.eval_batch;
        for (int threads : {1, 3}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            cfg.num_threads = threads;
            RenderStats s;
            Image frame = AsdrRenderer(oracle, cfg).render(fx.camera, &s);
            expectFramesIdentical(ref, frame, "clip edges");
            expectSameProfile(s_ref.profile, s.profile);
            EXPECT_EQ(s_ref.sample_count_map, s.sample_count_map);
            EXPECT_EQ(s_ref.actual_points_map, s.actual_points_map);
        }
    }
}

namespace {

/** Every tile's planned cost: the budgets of its unprobed pixels. */
std::vector<int64_t>
plannedTileCosts(const FrameState &fs, int tile_size)
{
    const int w = fs.camera.width();
    const int h = fs.camera.height();
    std::vector<int64_t> cost(size_t(fs.shape.jobs), 0);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            if (!fs.probed[size_t(y) * w + x])
                cost[size_t((y / tile_size) * fs.shape.tiles_x +
                            x / tile_size)] += fs.budgets[size_t(y) * w + x];
    return cost;
}

/** Ray setup, Phase I and planning of one frame, on this thread. */
void
planFrame(const AsdrRenderer &r, FrameState &fs)
{
    r.beginFrame(fs);
    for (int gy = 0; gy < fs.shape.gh; ++gy)
        r.probeRow(fs, gy);
    r.planBudgets(fs);
}

} // namespace

TEST(ParallelRender, Phase2ClaimsTilesByPlannedCost)
{
    RenderFixture fx("Lego", 48, 48);
    RenderConfig cfg = RenderConfig::asdr(48, 48, 64);
    cfg.num_threads = 1;
    const AsdrRenderer renderer(*fx.field, cfg);

    FrameState fs(fx.camera);
    planFrame(renderer, fs);
    const int jobs = fs.shape.jobs;
    ASSERT_EQ(jobs, 36);
    ASSERT_EQ(int(fs.tile_order.size()), jobs);
    std::vector<int> sorted = fs.tile_order;
    std::sort(sorted.begin(), sorted.end());
    for (int j = 0; j < jobs; ++j)
        ASSERT_EQ(sorted[size_t(j)], j) << "not a permutation";
    // Largest planned cost first; equal costs in ascending index order.
    const std::vector<int64_t> cost = plannedTileCosts(fs, cfg.tile_size);
    bool ties = false;
    for (int j = 1; j < jobs; ++j) {
        const int prev = fs.tile_order[size_t(j - 1)];
        const int cur = fs.tile_order[size_t(j)];
        ASSERT_GE(cost[size_t(prev)], cost[size_t(cur)]) << "index " << j;
        if (cost[size_t(prev)] == cost[size_t(cur)]) {
            ties = true;
            EXPECT_LT(prev, cur) << "tie at index " << j;
        }
    }
    EXPECT_TRUE(ties) << "the frame exercises no tie";
    const int heaviest = fs.tile_order[0];
    ASSERT_NE(heaviest, 0) << "tile 0 is the costliest: order untested";

    // Index 0 alone marches exactly the costliest tile's unprobed
    // pixels, into that tile's profile.
    const int w = 48, T = cfg.tile_size;
    for (size_t p = 0; p < fs.budget_map.size(); ++p)
        if (!fs.probed[p])
            fs.budget_map[p] = -1.0f;
    renderer.phase2Job(fs, 0);
    uint64_t unprobed_in_tile = 0;
    for (int y = 0; y < 48; ++y)
        for (int x = 0; x < w; ++x) {
            const size_t p = size_t(y) * w + size_t(x);
            if (fs.probed[p])
                continue;
            const bool in_tile = (y / T) * fs.shape.tiles_x + x / T == heaviest;
            unprobed_in_tile += in_tile ? 1 : 0;
            EXPECT_EQ(fs.budget_map[p] != -1.0f, in_tile)
                << "pixel " << x << "," << y;
        }
    for (int t = 0; t < jobs; ++t)
        EXPECT_EQ(fs.job_profiles[size_t(t)].rays,
                  t == heaviest ? unprobed_in_tile : 0u)
            << "job " << t;

    // A traced frame (the oracle in pixel order) and a non-adaptive
    // frame have no order to follow but the index's.
    TraceSink sink;
    FrameState traced(fx.camera);
    traced.sink = &sink;
    planFrame(renderer, traced);
    RenderConfig flat_cfg = RenderConfig::baseline(48, 48, 64);
    flat_cfg.num_threads = 1;
    FrameState flat(fx.camera);
    planFrame(AsdrRenderer(*fx.field, flat_cfg), flat);
    for (const FrameState *f : {&traced, &flat}) {
        ASSERT_EQ(int(f->tile_order.size()), f->shape.jobs);
        for (int j = 0; j < f->shape.jobs; ++j)
            ASSERT_EQ(f->tile_order[size_t(j)], j);
    }

    // Whatever the order, the frame is the oracle's, bit for bit.
    cfg.eval_batch = 1;
    RenderStats s_ref;
    const Image ref = AsdrRenderer(*fx.field, cfg).render(fx.camera, &s_ref);
    cfg.eval_batch = 64;
    for (int threads : {1, 3}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        cfg.num_threads = threads;
        RenderStats st;
        const Image img = AsdrRenderer(*fx.field, cfg).render(fx.camera, &st);
        expectFramesIdentical(ref, img, "cost order");
        expectSameProfile(s_ref.profile, st.profile);
        EXPECT_EQ(s_ref.sample_count_map, st.sample_count_map);
        EXPECT_EQ(s_ref.actual_points_map, st.actual_points_map);
    }
}

TEST(ParallelRender, SinkForcesSerialButSameFrame)
{
    RenderFixture fx("Mic");
    RenderConfig cfg = RenderConfig::asdr(20, 20, 48);
    cfg.num_threads = 4;

    RenderStats plain_stats;
    Image plain = AsdrRenderer(*fx.field, cfg).render(fx.camera,
                                                      &plain_stats);

    TraceSink sink; // base sink: no-op hooks, still forces serial
    RenderStats traced_stats;
    Image traced =
        AsdrRenderer(*fx.field, cfg).render(fx.camera, &traced_stats, &sink);

    expectFramesIdentical(plain, traced, "sink");
    EXPECT_EQ(plain_stats.profile.points, traced_stats.profile.points);
    EXPECT_EQ(plain_stats.profile.color_execs,
              traced_stats.profile.color_execs);
}

TEST(ParallelRender, StatsMapsAreConsistent)
{
    RenderFixture fx("Hotdog", 16, 16);
    // Non-adaptive with ET: budgets are the fixed ns, actual points
    // reflect termination and misses.
    RenderConfig cfg = RenderConfig::baseline(16, 16, 32);
    cfg.early_termination = true;
    RenderStats stats;
    AsdrRenderer(*fx.field, cfg).render(fx.camera, &stats);

    ASSERT_EQ(stats.sample_count_map.size(), 16u * 16u);
    ASSERT_EQ(stats.actual_points_map.size(), 16u * 16u);
    for (size_t i = 0; i < stats.sample_count_map.size(); ++i) {
        EXPECT_EQ(stats.sample_count_map[i], 32.0f);
        EXPECT_LE(stats.actual_points_map[i], stats.sample_count_map[i]);
        EXPECT_GE(stats.actual_points_map[i], 0.0f);
    }
    EXPECT_DOUBLE_EQ(stats.avg_points_per_pixel, 32.0);
    EXPECT_LE(stats.avg_actual_points_per_pixel,
              stats.avg_points_per_pixel);
    // The profile's point count is exactly the actual map's sum.
    double actual_sum = 0.0;
    for (float c : stats.actual_points_map)
        actual_sum += c;
    EXPECT_EQ(stats.profile.points, uint64_t(actual_sum));
}
