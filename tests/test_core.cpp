/**
 * @file
 * Tests for the ASDR algorithm primitives: the Eq. (3) adaptive sampler
 * (difficulty metric, candidate selection, budget interpolation), the
 * color approximator (anchors, interpolation exactness) and the
 * occupancy grid (what it marks, and that it covers the field).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
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
    int count =
        sampler.selectCount(sigma.data(), color.data(), 192, 192, 0.01f);
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
    int count =
        sampler.selectCount(sigma.data(), color.data(), 192, 192, 0.01f);
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
            sampler.selectCount(sigma.data(), color.data(), 192, 192, 0.01f);
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
    int count =
        sampler.selectCount(sigma.data(), color.data(), 192, 192, 0.01f);
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

namespace {

/** Inclusive cell bounds of a grid's marked cells on each axis. */
struct CellBox
{
    int lo[3] = {OccupancyGrid::kRes, OccupancyGrid::kRes,
                 OccupancyGrid::kRes};
    int hi[3] = {-1, -1, -1};
};

CellBox
markedBox(const OccupancyGrid &grid)
{
    constexpr int kRes = OccupancyGrid::kRes;
    CellBox box;
    for (int z = 0; z < kRes; ++z)
        for (int y = 0; y < kRes; ++y)
            for (int x = 0; x < kRes; ++x) {
                const int c[3] = {x, y, z};
                if (!grid.occupied(Vec3(float(x) + 0.5f, float(y) + 0.5f,
                                        float(z) + 0.5f) *
                                   (1.0f / float(kRes))))
                    continue;
                for (int a = 0; a < 3; ++a) {
                    box.lo[a] = std::min(box.lo[a], c[a]);
                    box.hi[a] = std::max(box.hi[a], c[a]);
                }
            }
    return box;
}

/** Totals over the rays checkSampleRange saw hit the cube. */
struct RangeTally
{
    uint64_t rays = 0;
    uint64_t in_box = 0;   ///< samples inside the marked cells' box
    uint64_t in_range = 0; ///< samples inside sampleRange's range
    uint64_t whole = 0;    ///< every sample
};

/**
 * March `ray` at `n` samples as the renderer does and check, sample by
 * sample, that every one outside grid.sampleRange lies outside the
 * marked cells' bounding box and in an unmarked cell.
 */
bool
checkSampleRange(const OccupancyGrid &grid, const CellBox &box,
                 const nerf::Ray &ray, int n, RangeTally &tally)
{
    float t0, t1;
    if (!nerf::intersectUnitCube(ray, t0, t1))
        return true;
    const float dt = (t1 - t0) / float(n);
    const OccupancyGrid::SampleRange s = grid.sampleRange(ray, t0, dt, n);
    const auto where = [&] {
        std::ostringstream os;
        os.precision(9);
        os << "origin (" << ray.origin.x << ", " << ray.origin.y << ", "
           << ray.origin.z << ") dir (" << ray.dir.x << ", " << ray.dir.y
           << ", " << ray.dir.z << ") n " << n << " range [" << s.lo
           << ", " << s.hi << ")";
        return os.str();
    };
    if (!(0 <= s.lo && s.lo <= s.hi && s.hi <= n)) {
        ADD_FAILURE() << "range out of bounds: " << where();
        return false;
    }
    for (int d = 0; d < n; ++d) {
        const Vec3 p = marchPoint(ray, t0, dt, d);
        bool inside = true;
        for (int a = 0; a < 3; ++a) {
            const int c = OccupancyGrid::cellIndex(p[a]);
            inside = inside && c >= box.lo[a] && c <= box.hi[a];
        }
        tally.in_box += inside;
        if ((d < s.lo || d >= s.hi) && (inside || grid.occupied(p))) {
            ADD_FAILURE() << "sample " << d << " in the box: " << where();
            return false;
        }
    }
    ++tally.rays;
    tally.in_range += uint64_t(s.hi - s.lo);
    tally.whole += uint64_t(n);
    return true;
}

} // namespace

TEST(OccupancyGrid, SampleRangeHoldsEveryMarkedSample)
{
    // Brute force over every sample of 120k rays: random ones, ones that
    // start inside the cube, axis-parallel ones whose other direction
    // components are +0 or -0, ones through the marked box's corners and
    // edges and along its faces, and ones that miss it, at budgets 1 to
    // 192. Every sample outside a ray's range lies in an unmarked cell,
    // and the ranges stay tight: a clip that fell back to whole rays
    // would hold far more than the samples in the box.
    const float floor = RenderConfig{}.sigma_floor;
    for (const char *name : {"Lego", "Chair"}) {
        SCOPED_TRACE(name);
        auto scene = scene::createScene(name);
        nerf::ProceduralField field(*scene, nerf::NgpModelConfig::fast());
        const OccupancyGrid grid = OccupancyGrid::build(field, floor);
        const CellBox box = markedBox(grid);
        // The box's face planes on each axis.
        float lo_f[3], hi_f[3];
        for (int a = 0; a < 3; ++a) {
            ASSERT_LE(box.lo[a], box.hi[a]);
            lo_f[a] = float(box.lo[a]) / float(OccupancyGrid::kRes);
            hi_f[a] = float(box.hi[a] + 1) / float(OccupancyGrid::kRes);
        }
        const Vec3 center(0.5f);
        Rng rng(20261019);
        // A coordinate on axis a: uniform, a box face, a cell boundary,
        // or a face one ulp off.
        const auto coordinate = [&](int a) {
            const float face = rng.nextFloat() < 0.5f ? lo_f[a] : hi_f[a];
            switch (rng.nextBounded(4)) {
            case 0:
                return rng.nextFloat();
            case 1:
                return face;
            case 2:
                return float(rng.nextBounded(OccupancyGrid::kRes + 1)) /
                       float(OccupancyGrid::kRes);
            default:
                return std::nextafter(face, rng.nextFloat() < 0.5f ? 0.0f
                                                                   : 1.0f);
            }
        };
        RangeTally tally;
        for (int i = 0; i < 60000; ++i) {
            const int n = 1 + i % 192;
            nerf::Ray ray;
            switch (i % 6) {
            case 0: // random, toward the cube
                ray.origin = center + rng.nextDirection() * 2.5f;
                ray.dir = normalize(Vec3(rng.nextRange(-0.1f, 1.1f),
                                         rng.nextRange(-0.1f, 1.1f),
                                         rng.nextRange(-0.1f, 1.1f)) -
                                    ray.origin);
                break;
            case 1: // starts inside the cube
                ray.origin = rng.nextVec3();
                ray.dir = rng.nextDirection();
                break;
            case 2: { // axis-parallel, other components +0 or -0
                const int a = int(rng.nextBounded(3));
                const float sign = rng.nextFloat() < 0.5f ? 1.0f : -1.0f;
                float o[3], v[3];
                for (int b = 0; b < 3; ++b) {
                    o[b] = coordinate(b);
                    v[b] = rng.nextFloat() < 0.5f ? 0.0f : -0.0f;
                }
                v[a] = sign;
                if (rng.nextFloat() < 0.7f)
                    o[a] = sign > 0.0f ? -0.5f : 1.5f;
                ray.origin = {o[0], o[1], o[2]};
                ray.dir = {v[0], v[1], v[2]};
                break;
            }
            case 3: { // through a corner or an edge of the box
                float p[3];
                const int free_axis = int(rng.nextBounded(4)); // 3: corner
                for (int a = 0; a < 3; ++a)
                    p[a] = a == free_axis
                               ? rng.nextRange(lo_f[a], hi_f[a])
                               : (rng.nextFloat() < 0.5f ? lo_f[a]
                                                         : hi_f[a]);
                const Vec3 target(p[0], p[1], p[2]);
                ray.origin = target + rng.nextDirection() * 2.0f;
                ray.dir = normalize(target - ray.origin);
                break;
            }
            case 4: { // along a face of the box, nearly parallel to it
                const int a = int(rng.nextBounded(3));
                float o[3];
                for (int b = 0; b < 3; ++b)
                    o[b] = rng.nextRange(-0.2f, 1.2f);
                o[a] = coordinate(a);
                Vec3 dir = rng.nextDirection();
                const float tilt[] = {0.0f, -0.0f, 1e-7f, -1e-6f, 1e-4f};
                const float t = tilt[rng.nextBounded(5)];
                dir = Vec3(a == 0 ? t : dir.x, a == 1 ? t : dir.y,
                           a == 2 ? t : dir.z);
                ray.origin = {o[0], o[1], o[2]};
                ray.dir = normalize(dir);
                break;
            }
            default: { // through the cube's shell outside the box
                float p[3];
                for (int a = 0; a < 3; ++a)
                    p[a] = rng.nextFloat() < 0.5f
                               ? rng.nextRange(0.0f, lo_f[a])
                               : rng.nextRange(hi_f[a], 1.0f);
                const Vec3 target(p[0], p[1], p[2]);
                ray.origin = target + rng.nextDirection() * 2.0f;
                ray.dir = normalize(target - ray.origin);
                break;
            }
            }
            ASSERT_TRUE(checkSampleRange(grid, box, ray, n, tally));
        }
        EXPECT_GT(tally.rays, 50000u);
        EXPECT_GT(tally.in_box, 0u);
        EXPECT_LE(double(tally.in_range), 1.5 * double(tally.in_box))
            << tally.in_range << " samples in ranges, " << tally.in_box
            << " in the box";
        // A clip that returned whole rays would fail the bound above.
        EXPECT_GT(double(tally.whole), 1.5 * double(tally.in_box))
            << tally.whole << " samples, " << tally.in_box << " in the box";
    }
}

TEST(OccupancyGrid, SampleRangeIsWholeOnAFullGridAndEmptyOnAnEmptyOne)
{
    const OccupancyGrid full; // every cell marked
    ConstantField nothing(0.0f);
    const OccupancyGrid empty = OccupancyGrid::build(nothing, 0.25f);
    ASSERT_EQ(empty.markedCells(), 0);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        nerf::Ray ray;
        ray.origin = Vec3(0.5f) + rng.nextDirection() * 2.0f;
        ray.dir = normalize(rng.nextVec3() - ray.origin);
        float t0, t1;
        ASSERT_TRUE(nerf::intersectUnitCube(ray, t0, t1));
        const int n = 1 + i % 192;
        const float dt = (t1 - t0) / float(n);
        const OccupancyGrid::SampleRange all = full.sampleRange(ray, t0, dt, n);
        EXPECT_EQ(all.lo, 0);
        EXPECT_EQ(all.hi, n);
        const OccupancyGrid::SampleRange none =
            empty.sampleRange(ray, t0, dt, n);
        EXPECT_EQ(none.lo, none.hi);
    }
}
