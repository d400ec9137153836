/**
 * @file
 * Equivalence and reuse-statistics guarantees of the two-pass SIMD
 * hash-grid encode: every build of the batched kernel this CPU runs
 * (kernels::available()) must be bit-identical to scalar encode()
 * across dense and hashed levels, boundary positions, feature widths
 * and slice boundaries; gatherSetup() must reproduce index(); and the
 * reuse counters must reflect the coherence of the input ordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nerf/hash_grid.hpp"
#include "nerf/kernels.hpp"
#include "nerf/ngp_field.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

using namespace asdr;
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

/** Boundary and clamped positions the locate() path must handle: a
 *  vectorized clamp that turns -0 into +0, or drops a clamp just past
 *  either face, shows up as a bit difference. */
std::vector<Vec3>
boundaryPositions()
{
    const float above_one = std::nextafter(1.0f, 2.0f);
    return {
        {0.0f, 0.0f, 0.0f},   {1.0f, 1.0f, 1.0f},   {0.0f, 1.0f, 0.5f},
        {1.0f, 0.0f, 0.25f},  {0.5f, 0.5f, 1.0f},   {-0.2f, 0.5f, 0.5f},
        {0.5f, 1.3f, 0.5f},   {2.0f, -1.0f, 0.5f},  {0.999999f, 1e-7f, 1.0f},
        {-0.0f, 0.5f, 0.5f},  {0.5f, -0.0f, -0.0f}, {-0.0f, -0.0f, -0.0f},
        {above_one, 0.5f, 0.5f}, {0.5f, above_one, above_one},
        {-1e-8f, 0.5f, 0.5f},    {0.5f, -1e-8f, above_one},
    };
}

uint32_t
bitsOf(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

/** Every kernel build the CPU runs must reproduce encode() bit for
 *  bit, and count the same table reuse (the setup pass's indices). */
void
expectBatchMatchesScalar(const HashGrid &grid, const std::vector<Vec3> &pos)
{
    const int fd = grid.featureDim();
    const int count = int(pos.size());
    std::vector<float> ref(size_t(count) * size_t(fd));
    for (int p = 0; p < count; ++p)
        grid.encode(pos[size_t(p)], ref.data() + size_t(p) * size_t(fd));
    EncodeReuseStats first;
    for (const kernels::Variant *v : kernels::available()) {
        kernels::ScopedVariant use(*v);
        std::vector<float> batch(size_t(count) * size_t(fd), -7.0f);
        EncodeReuseStats stats;
        grid.encodeBatch(pos.data(), count, batch.data(), fd, &stats);
        for (size_t k = 0; k < batch.size(); ++k)
            ASSERT_EQ(bitsOf(batch[k]), bitsOf(ref[k]))
                << v->isa << ": point " << k / size_t(fd) << " feature "
                << k % size_t(fd);
        if (first.lookups.empty())
            first = stats;
        EXPECT_EQ(stats.unique, first.unique) << v->isa;
        EXPECT_EQ(stats.coherent, first.coherent) << v->isa;
    }
}

} // namespace

TEST(EncodeBatch, BitIdenticalAcrossDenseAndHashedLevels)
{
    // Small table forces the upper levels to hash while the lower ones
    // stay dense, so both gatherSetup() branches are exercised.
    HashGridConfig cfg;
    cfg.levels = 10;
    cfg.log2_table_size = 12;
    cfg.base_resolution = 4;
    cfg.max_resolution = 256;
    HashGrid grid(cfg, 0xABC);
    ASSERT_GT(grid.geometry().denseLevels(), 0);
    ASSERT_LT(grid.geometry().denseLevels(), cfg.levels);

    // Sizes around the internal register block (64).
    for (int count : {1, 3, 63, 64, 65, 200})
        expectBatchMatchesScalar(grid, randomPositions(count, 77));
}

TEST(EncodeBatch, BitIdenticalAtBoundaries)
{
    HashGridConfig cfg;
    cfg.levels = 6;
    cfg.log2_table_size = 10;
    HashGrid grid(cfg, 0xB0B);
    expectBatchMatchesScalar(grid, boundaryPositions());
}

TEST(EncodeBatch, BitIdenticalForWiderFeatures)
{
    // F=4 takes the generic (non-F=2) gather path.
    HashGridConfig cfg;
    cfg.levels = 6;
    cfg.log2_table_size = 11;
    cfg.features_per_level = 4;
    HashGrid grid(cfg, 0xF4);
    auto pos = randomPositions(130, 5);
    auto edge = boundaryPositions();
    pos.insert(pos.end(), edge.begin(), edge.end());
    expectBatchMatchesScalar(grid, pos);
}

TEST(EncodeBatch, BitIdenticalAcrossSlices)
{
    // 513 points cross the kernel's 512-point slice; dense and hashed
    // levels, at F = 2 (the specialized gather) and F = 4 (the generic
    // one).
    std::string ran;
    for (const kernels::Variant *v : kernels::available())
        ran += (ran.empty() ? "" : ",") + std::string(v->isa);
    RecordProperty("kernel_variants", ran);
    for (int features : {2, 4}) {
        HashGridConfig cfg;
        cfg.levels = 10;
        cfg.log2_table_size = 12;
        cfg.base_resolution = 4;
        cfg.max_resolution = 256;
        cfg.features_per_level = features;
        HashGrid grid(cfg, 0x513);
        ASSERT_GT(grid.geometry().denseLevels(), 0);
        ASSERT_LT(grid.geometry().denseLevels(), cfg.levels);
        auto pos = randomPositions(513 - int(boundaryPositions().size()),
                                   513);
        auto edge = boundaryPositions();
        pos.insert(pos.begin() + 200, edge.begin(), edge.end());
        ASSERT_EQ(pos.size(), 513u);
        expectBatchMatchesScalar(grid, pos);
    }
}

TEST(EncodeBatch, GatherSetupMatchesIndexAndWeights)
{
    HashGridConfig cfg;
    cfg.levels = 8;
    cfg.log2_table_size = 12;
    HashGrid grid(cfg, 0x6A);
    const GridGeometry &geom = grid.geometry();

    auto pos = randomPositions(40, 9);
    auto edge = boundaryPositions();
    pos.insert(pos.end(), edge.begin(), edge.end());
    for (const Vec3 &p : pos) {
        for (int l = 0; l < geom.levels(); ++l) {
            uint32_t idx[8];
            float w[8];
            geom.gatherSetup(l, p, idx, w);

            Vec3i voxel;
            Vec3 frac;
            geom.locate(l, p, voxel, frac);
            Vec3i verts[8];
            GridGeometry::voxelVertices(voxel, verts);
            float ref_w[8];
            GridGeometry::trilinearWeights(frac, ref_w);
            for (int i = 0; i < 8; ++i) {
                ASSERT_EQ(idx[i], geom.index(l, verts[i]))
                    << "level " << l << " corner " << i;
                ASSERT_EQ(bitsOf(w[i]), bitsOf(ref_w[i]))
                    << "level " << l << " corner " << i;
            }
        }
    }
}

TEST(EncodeBatch, CachedEncodeMatchesAndRecordsSetup)
{
    HashGridConfig cfg;
    cfg.levels = 5;
    cfg.log2_table_size = 10;
    HashGrid grid(cfg, 0xCA);
    const int fd = grid.featureDim();
    const GridGeometry &geom = grid.geometry();

    for (const Vec3 &p : randomPositions(20, 3)) {
        std::vector<float> plain(static_cast<size_t>(fd));
        std::vector<float> cached(static_cast<size_t>(fd));
        HashGrid::EncodeCache cache;
        grid.encode(p, plain.data());
        grid.encode(p, cached.data(), cache);
        for (int f = 0; f < fd; ++f)
            ASSERT_EQ(plain[size_t(f)], cached[size_t(f)]);
        for (int l = 0; l < geom.levels(); ++l) {
            uint32_t idx[8];
            float w[8];
            geom.gatherSetup(l, p, idx, w);
            for (int i = 0; i < 8; ++i) {
                ASSERT_EQ(cache.indices[size_t(l) * 8 + size_t(i)], idx[i]);
                ASSERT_EQ(cache.weights[size_t(l) * 8 + size_t(i)], w[i]);
            }
        }
    }
}

TEST(EncodeBatch, ReuseStatsCountLookupsAndUnique)
{
    HashGridConfig cfg;
    cfg.levels = 4;
    cfg.log2_table_size = 10;
    HashGrid grid(cfg, 0x57A7);
    const int fd = grid.featureDim();

    // All points identical: every level touches at most 8 entries.
    const int count = 50;
    std::vector<Vec3> pos(size_t(count), Vec3(0.31f, 0.62f, 0.47f));
    std::vector<float> out(size_t(count) * size_t(fd));
    EncodeReuseStats stats;
    grid.encodeBatch(pos.data(), count, out.data(), fd, &stats);

    ASSERT_EQ(int(stats.lookups.size()), cfg.levels);
    for (int l = 0; l < cfg.levels; ++l) {
        EXPECT_EQ(stats.lookups[size_t(l)], uint64_t(count) * 8);
        EXPECT_LE(stats.unique[size_t(l)], 8u);
        EXPECT_GE(stats.unique[size_t(l)], 1u);
        // Every lookup after the first point repeats the previous one.
        EXPECT_EQ(stats.coherent[size_t(l)], uint64_t(count - 1) * 8);
        EXPECT_GE(stats.reuseFactor(l), double(count));
    }

    // Stats accumulate across calls.
    grid.encodeBatch(pos.data(), count, out.data(), fd, &stats);
    EXPECT_EQ(stats.lookups[0], uint64_t(count) * 16);
}

TEST(EncodeBatch, CoherentOrderingRaisesCoherentHits)
{
    HashGridConfig cfg;
    cfg.levels = 8;
    cfg.log2_table_size = 14;
    HashGrid grid(cfg, 0x0D);
    const int fd = grid.featureDim();

    // Ray-like samples: small steps along a line are coherent; the same
    // points shuffled are not.
    const int count = 512;
    std::vector<Vec3> line;
    for (int i = 0; i < count; ++i) {
        float t = float(i) / float(count);
        line.push_back({0.1f + 0.8f * t, 0.2f + 0.6f * t, 0.3f + 0.5f * t});
    }
    std::vector<Vec3> shuffled = line;
    Rng rng(99);
    for (int i = count - 1; i > 0; --i)
        std::swap(shuffled[size_t(i)],
                  shuffled[size_t(rng.nextBounded(uint32_t(i + 1)))]);

    std::vector<float> out(size_t(count) * size_t(fd));
    EncodeReuseStats ordered, random;
    grid.encodeBatch(line.data(), count, out.data(), fd, &ordered);
    grid.encodeBatch(shuffled.data(), count, out.data(), fd, &random);

    uint64_t ordered_hits = 0, random_hits = 0;
    uint64_t ordered_unique = 0, random_unique = 0;
    for (int l = 0; l < cfg.levels; ++l) {
        ordered_hits += ordered.coherent[size_t(l)];
        random_hits += random.coherent[size_t(l)];
        ordered_unique += ordered.unique[size_t(l)];
        random_unique += random.unique[size_t(l)];
    }
    // Unique entries are order-independent; coherent hits are not.
    EXPECT_EQ(ordered_unique, random_unique);
    EXPECT_GT(ordered_hits, random_hits);
    EXPECT_GT(ordered_hits, 0u);
}

TEST(EncodeBatch, FieldHookAccumulatesReuseStats)
{
    // The InstantNgpField hook routes every densityBatch through the
    // reuse counters (how a render measures its own table reuse).
    InstantNgpField field(NgpModelConfig::fast(), 4);
    const int levels = field.gridGeometry().levels();
    auto pos = randomPositions(30, 21);
    std::vector<DensityOutput> den(pos.size());

    EncodeReuseStats stats;
    field.setEncodeReuseStats(&stats);
    field.densityBatch(pos.data(), int(pos.size()), den.data());
    field.densityBatch(pos.data(), int(pos.size()), den.data());
    field.setEncodeReuseStats(nullptr);
    field.densityBatch(pos.data(), int(pos.size()), den.data());

    ASSERT_EQ(int(stats.lookups.size()), levels);
    for (int l = 0; l < levels; ++l)
        EXPECT_EQ(stats.lookups[size_t(l)], uint64_t(pos.size()) * 8 * 2);
}

TEST(EncodeBatch, Morton2DRoundTrip)
{
    for (uint32_t y = 0; y < 16; ++y)
        for (uint32_t x = 0; x < 16; ++x) {
            uint32_t code = morton2D(x, y);
            uint32_t rx, ry;
            morton2DDecode(code, rx, ry);
            EXPECT_EQ(rx, x);
            EXPECT_EQ(ry, y);
        }
    // The Z-curve visits 2x2 blocks contiguously.
    EXPECT_EQ(morton2D(0, 0), 0u);
    EXPECT_EQ(morton2D(1, 0), 1u);
    EXPECT_EQ(morton2D(0, 1), 2u);
    EXPECT_EQ(morton2D(1, 1), 3u);
}
