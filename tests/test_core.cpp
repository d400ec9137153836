/**
 * @file
 * Tests for the ASDR algorithm primitives: the Eq. (3) adaptive sampler
 * (difficulty metric, candidate selection, budget interpolation), the
 * color approximator (anchors, interpolation exactness) and the
 * occupancy grid (what it marks, and that it covers the field).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/adaptive_sampler.hpp"
#include "core/color_approximator.hpp"
#include "core/occupancy_grid.hpp"
#include "nerf/procedural_field.hpp"
#include "scene/scene_library.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::core;

namespace {

RenderConfig
asCfg(float delta)
{
    RenderConfig cfg = RenderConfig::baseline(32, 32, 192);
    cfg.adaptive_sampling = true;
    cfg.delta = delta;
    return cfg;
}

} // namespace

// ------------------------------------------------------ AdaptiveSampler

TEST(AdaptiveSampler, DifficultyIsEq3)
{
    Vec3 full{0.5f, 0.6f, 0.7f};
    Vec3 subset{0.45f, 0.62f, 0.7f};
    EXPECT_NEAR(AdaptiveSampler::renderingDifficulty(full, subset), 0.05f,
                1e-6f);
}

TEST(AdaptiveSampler, EmptyRayGetsMinimumBudget)
{
    // All-zero density: every subset composites to the same black pixel
    // => rd = 0 at the largest stride => smallest candidate wins, even
    // with the lossless threshold delta = 0 (paper Fig. 7: background
    // pixels need as few as 12 points).
    AdaptiveSampler sampler(asCfg(0.0f));
    std::vector<float> sigma(192, 0.0f);
    std::vector<Vec3> color(192, Vec3(0.0f));
    int count = sampler.selectCount(sigma.data(), color.data(), 192, 0.01f);
    EXPECT_EQ(count, 12); // 192 / 16
}

TEST(AdaptiveSampler, ThinFeatureForcesFullBudget)
{
    // A one-sample-wide occluder is invisible to every strided subset
    // (they skip index 13), so no candidate passes at delta = 0.
    AdaptiveSampler sampler(asCfg(0.0f));
    std::vector<float> sigma(192, 0.0f);
    std::vector<Vec3> color(192, Vec3(0.0f));
    sigma[13] = 400.0f;
    color[13] = Vec3(1.0f, 1.0f, 1.0f);
    int count = sampler.selectCount(sigma.data(), color.data(), 192, 0.01f);
    EXPECT_EQ(count, 192);
}

TEST(AdaptiveSampler, LooserThresholdNeverIncreasesBudget)
{
    Rng rng(1);
    std::vector<float> sigma(192);
    std::vector<Vec3> color(192);
    for (int i = 0; i < 192; ++i) {
        sigma[size_t(i)] = rng.nextFloat() * 8.0f;
        color[size_t(i)] = rng.nextVec3();
    }
    int prev = 193;
    for (float delta : {0.0f, 1.0f / 2048.0f, 1.0f / 256.0f, 0.1f}) {
        AdaptiveSampler sampler(asCfg(delta));
        int count =
            sampler.selectCount(sigma.data(), color.data(), 192, 0.01f);
        EXPECT_LE(count, prev);
        prev = count;
    }
}

TEST(AdaptiveSampler, UniformMediumPassesAtSmallDelta)
{
    // Uniform media are easy pixels: subsets agree closely (see
    // Composite.StridePreservesOpticalDepth), so a small threshold
    // already allows a reduced budget.
    AdaptiveSampler sampler(asCfg(1.0f / 256.0f));
    std::vector<float> sigma(192, 4.0f);
    std::vector<Vec3> color(192, Vec3(0.4f, 0.5f, 0.6f));
    int count = sampler.selectCount(sigma.data(), color.data(), 192, 0.01f);
    EXPECT_LT(count, 192);
}

TEST(AdaptiveSampler, ProbeGridDims)
{
    int gw, gh;
    AdaptiveSampler::probeGridDims(100, 100, 5, gw, gh);
    EXPECT_EQ(gw, 20);
    EXPECT_EQ(gh, 20);
    AdaptiveSampler::probeGridDims(101, 99, 5, gw, gh);
    EXPECT_EQ(gw, 21);
    EXPECT_EQ(gh, 20);
}

TEST(AdaptiveSampler, InterpolationExactAtProbes)
{
    RenderConfig cfg = asCfg(0.0f);
    cfg.probe_stride = 4;
    cfg.min_samples = 8;
    AdaptiveSampler sampler(cfg);
    int gw, gh;
    AdaptiveSampler::probeGridDims(16, 16, 4, gw, gh);
    std::vector<int> probes(size_t(gw) * size_t(gh), 64);
    probes[0] = 192; // top-left probe
    auto counts = sampler.interpolateCounts(probes, gw, gh, 16, 16);
    EXPECT_EQ(counts[0], 192);        // at probe (0,0)
    EXPECT_EQ(counts[4], 64);         // at probe (1,0) -> pixel x=4
    EXPECT_EQ(counts[size_t(4) * 16], 64); // at probe (0,1)
}

TEST(AdaptiveSampler, InterpolationIsBilinear)
{
    // Between two probes of 64 and 192 at stride 4, pixel x=2 sits at
    // weight 0.5 (paper Fig. 6a's fractional blend).
    RenderConfig cfg = asCfg(0.0f);
    cfg.probe_stride = 4;
    AdaptiveSampler sampler(cfg);
    std::vector<int> probes = {64, 192};
    auto counts = sampler.interpolateCounts(probes, 2, 1, 8, 1);
    EXPECT_EQ(counts[2], 128);
    EXPECT_EQ(counts[1], 96); // weight 0.25
}

TEST(AdaptiveSampler, InterpolationClampsToBounds)
{
    RenderConfig cfg = asCfg(0.0f);
    cfg.probe_stride = 4;
    cfg.min_samples = 16;
    cfg.samples_per_ray = 128;
    AdaptiveSampler sampler(cfg);
    std::vector<int> probes = {2, 500}; // out-of-range budgets
    auto counts = sampler.interpolateCounts(probes, 2, 1, 8, 1);
    for (int c : counts) {
        EXPECT_GE(c, 16);
        EXPECT_LE(c, 128);
    }
}

// --------------------------------------------------- ColorApproximator

TEST(ColorApproximator, AnchorsGroupOfTwo)
{
    std::vector<int> anchors;
    ColorApproximator::anchorIndices(8, 2, anchors);
    EXPECT_EQ(anchors, (std::vector<int>{0, 2, 4, 6, 7}));
}

TEST(ColorApproximator, AnchorsIncludeLastPoint)
{
    std::vector<int> anchors;
    ColorApproximator::anchorIndices(10, 4, anchors);
    EXPECT_EQ(anchors, (std::vector<int>{0, 4, 8, 9}));
}

TEST(ColorApproximator, GroupOneIsIdentity)
{
    std::vector<int> anchors;
    ColorApproximator::anchorIndices(5, 1, anchors);
    EXPECT_EQ(anchors, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ColorApproximator, AnchorCountMatchesTheAnchorList)
{
    // The march counts an unshaded ray's anchors without listing them.
    std::vector<int> anchors;
    for (int group = 0; group <= 6; ++group)
        for (int count = -1; count <= 40; ++count) {
            ColorApproximator::anchorIndices(count, group, anchors);
            EXPECT_EQ(ColorApproximator::anchorCount(count, group),
                      int(anchors.size()))
                << "count " << count << " group " << group;
        }
}

TEST(ColorApproximator, AnchorShareMatchesPaper)
{
    // n = 2 must execute the color network for ~half the points
    // (the paper's 46% FLOPs reduction at n = 2).
    std::vector<int> anchors;
    ColorApproximator::anchorIndices(192, 2, anchors);
    EXPECT_NEAR(double(anchors.size()) / 192.0, 0.5, 0.02);
    ColorApproximator::anchorIndices(192, 4, anchors);
    EXPECT_NEAR(double(anchors.size()) / 192.0, 0.25, 0.02);
}

TEST(ColorApproximator, InterpolationExactOnLinearRamp)
{
    // Colors varying linearly along the ray are reconstructed exactly
    // -- the best case of color-wise locality.
    const int n = 16;
    std::vector<Vec3> truth(n);
    for (int i = 0; i < n; ++i)
        truth[size_t(i)] = Vec3(float(i) / n, 0.5f, 1.0f - float(i) / n);
    std::vector<Vec3> colors = truth;
    std::vector<int> anchors;
    ColorApproximator::anchorIndices(n, 4, anchors);
    // Wipe non-anchor colors to prove they get reconstructed.
    for (int i = 0; i < n; ++i)
        if (std::find(anchors.begin(), anchors.end(), i) == anchors.end())
            colors[size_t(i)] = Vec3(-1.0f, -1.0f, -1.0f);
    int filled =
        ColorApproximator::interpolate(colors.data(), anchors, n);
    EXPECT_EQ(filled, n - int(anchors.size()));
    for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(colors[size_t(i)].x, truth[size_t(i)].x, 1e-5f) << i;
        EXPECT_NEAR(colors[size_t(i)].z, truth[size_t(i)].z, 1e-5f) << i;
    }
}

TEST(ColorApproximator, SinglePointRay)
{
    std::vector<int> anchors;
    ColorApproximator::anchorIndices(1, 4, anchors);
    EXPECT_EQ(anchors, (std::vector<int>{0}));
    std::vector<Vec3> colors = {Vec3(0.5f, 0.5f, 0.5f)};
    EXPECT_EQ(ColorApproximator::interpolate(colors.data(), anchors, 1), 0);
}

TEST(ColorApproximator, ZeroCountIsSafe)
{
    std::vector<int> anchors;
    ColorApproximator::anchorIndices(0, 2, anchors);
    EXPECT_TRUE(anchors.empty());
    EXPECT_EQ(ColorApproximator::interpolate(nullptr, anchors, 0), 0);
}

// ------------------------------------------------------- OccupancyGrid

namespace {

/** The same sigma everywhere; counts the points it evaluates. */
class ConstantField final : public nerf::RadianceField
{
  public:
    explicit ConstantField(float sigma) : sigma_(sigma) {}

    nerf::DensityOutput
    density(const Vec3 &) const override
    {
        points.fetch_add(1);
        nerf::DensityOutput out;
        out.sigma = sigma_;
        return out;
    }
    void
    densityBatch(const Vec3 *, int count,
                 nerf::DensityOutput *out) const override
    {
        points.fetch_add(uint64_t(count));
        for (int i = 0; i < count; ++i) {
            out[i] = nerf::DensityOutput{};
            out[i].sigma = sigma_;
        }
    }
    Vec3
    color(const Vec3 &, const Vec3 &,
          const nerf::DensityOutput &) const override
    {
        return Vec3(0.5f);
    }
    void traceLookups(const Vec3 &, nerf::LookupSink &) const override {}
    nerf::TableSchema tableSchema() const override { return {}; }
    nerf::FieldCosts costs() const override { return {}; }
    std::string describe() const override { return "Constant"; }

    mutable std::atomic<uint64_t> points{0};

  private:
    float sigma_;
};

constexpr int kAllCells = OccupancyGrid::kRes * OccupancyGrid::kRes *
                          OccupancyGrid::kRes;

} // namespace

TEST(OccupancyGrid, FloorAtOrBelowZeroMarksEveryCellUnevaluated)
{
    // A floor <= 0 keeps every sigma, so nothing can be skipped.
    ConstantField field(0.0f);
    for (float floor : {0.0f, -1.0f}) {
        EXPECT_EQ(OccupancyGrid::build(field, floor).markedCells(),
                  kAllCells);
    }
    EXPECT_EQ(field.points.load(), 0u);
}

TEST(OccupancyGrid, SigmaAtOrAboveTheFloorEverywhereMarksEveryCell)
{
    for (float sigma : {0.25f, 4.0f}) {
        ConstantField field(sigma);
        const OccupancyGrid grid = OccupancyGrid::build(field, 0.25f);
        EXPECT_EQ(grid.markedCells(), kAllCells) << "sigma " << sigma;
        EXPECT_GT(field.points.load(), 0u);
    }
    ConstantField empty(0.0f);
    EXPECT_EQ(OccupancyGrid::build(empty, 0.25f).markedCells(), 0);
}

TEST(OccupancyGrid, EveryPointAtOrAboveTheFloorLiesInAMarkedCell)
{
    const float floor = RenderConfig{}.sigma_floor;
    for (const char *name : {"Lego", "Chair"}) {
        SCOPED_TRACE(name);
        auto scene = scene::createScene(name);
        nerf::ProceduralField field(*scene, nerf::NgpModelConfig::fast());
        const OccupancyGrid grid = OccupancyGrid::build(field, floor);
        // The grid skips most of the cube.
        EXPECT_LT(2 * grid.markedCells(), kAllCells);
        Rng rng(20261018);
        int kept = 0;
        for (int i = 0; i < 100000; ++i) {
            const Vec3 p{rng.nextRange(0.0f, 1.0f), rng.nextRange(0.0f, 1.0f),
                         rng.nextRange(0.0f, 1.0f)};
            if (field.density(p).sigma < floor)
                continue;
            ++kept;
            ASSERT_TRUE(grid.occupied(p)) << "sigma " << field.density(p).sigma
                                          << " at " << p.x << ", " << p.y
                                          << ", " << p.z;
        }
        EXPECT_GT(kept, 1000);
    }
}
