/**
 * @file
 * Unit tests for util: vector math, RNG determinism and distribution,
 * histograms, table formatting, the Eq. (2) spatial hash and
 * quantization helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/hashing.hpp"
#include "util/logging.hpp"
#include "util/quant.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vec.hpp"

using namespace asdr;

// ---------------------------------------------------------------- Vec3

TEST(Vec3, ArithmeticBasics)
{
    Vec3 a(1, 2, 3), b(4, 5, 6);
    EXPECT_EQ(a + b, Vec3(5, 7, 9));
    EXPECT_EQ(b - a, Vec3(3, 3, 3));
    EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
    EXPECT_EQ(2.0f * a, Vec3(2, 4, 6));
    EXPECT_EQ(-a, Vec3(-1, -2, -3));
    EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(Vec3, CrossIsOrthogonal)
{
    Vec3 a(1, 0.5f, -2), b(0.3f, 2, 1);
    Vec3 c = cross(a, b);
    EXPECT_NEAR(dot(c, a), 0.0f, 1e-5f);
    EXPECT_NEAR(dot(c, b), 0.0f, 1e-5f);
}

TEST(Vec3, NormalizeUnitLength)
{
    Vec3 v = normalize(Vec3(3, 4, 12));
    EXPECT_NEAR(length(v), 1.0f, 1e-6f);
    EXPECT_EQ(normalize(Vec3(0.0f)), Vec3(0.0f)); // zero-safe
}

TEST(Vec3, LerpEndpointsAndMidpoint)
{
    Vec3 a(0, 0, 0), b(1, 2, 4);
    EXPECT_EQ(lerp(a, b, 0.0f), a);
    EXPECT_EQ(lerp(a, b, 1.0f), b);
    EXPECT_EQ(lerp(a, b, 0.5f), Vec3(0.5f, 1.0f, 2.0f));
}

TEST(Vec3, MaxAbsDiffMatchesEq3)
{
    // Eq. (3): the rendering-difficulty metric is the largest channel gap.
    Vec3 full(0.5f, 0.5f, 0.5f), subset(0.52f, 0.45f, 0.5f);
    EXPECT_NEAR(maxAbsDiff(full, subset), 0.05f, 1e-6f);
    EXPECT_FLOAT_EQ(maxAbsDiff(full, full), 0.0f);
}

TEST(Vec3, CosineSimilarityRange)
{
    EXPECT_FLOAT_EQ(cosineSimilarity(Vec3(1, 0, 0), Vec3(1, 0, 0)), 1.0f);
    EXPECT_FLOAT_EQ(cosineSimilarity(Vec3(1, 0, 0), Vec3(-1, 0, 0)), -1.0f);
    EXPECT_NEAR(cosineSimilarity(Vec3(1, 0, 0), Vec3(0, 1, 0)), 0.0f, 1e-6f);
    // Both zero => defined as identical.
    EXPECT_FLOAT_EQ(cosineSimilarity(Vec3(0.0f), Vec3(0.0f)), 1.0f);
    // One zero => dissimilar.
    EXPECT_FLOAT_EQ(cosineSimilarity(Vec3(0.0f), Vec3(1, 0, 0)), 0.0f);
}

TEST(Vec3, ClampAndMinMax)
{
    EXPECT_EQ(clamp01(Vec3(-1, 0.5f, 2)), Vec3(0, 0.5f, 1));
    EXPECT_EQ(vmin(Vec3(1, 5, 3), Vec3(2, 2, 2)), Vec3(1, 2, 2));
    EXPECT_EQ(vmax(Vec3(1, 5, 3), Vec3(2, 2, 2)), Vec3(2, 5, 3));
}

// ----------------------------------------------------------------- Rng

TEST(Rng, Deterministic)
{
    Rng a(42, 1), b(42, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, StreamsIndependent)
{
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextU32() == b.nextU32())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, FloatInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(7);
    std::set<uint32_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint32_t v = rng.nextBounded(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(123);
    const int n = 50000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.nextGaussian();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double stddev = std::sqrt((sum_sq - n * mean * mean) / (n - 1));
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(stddev, 1.0, 0.02);
}

TEST(Rng, DirectionOnUnitSphere)
{
    Rng rng(5);
    Vec3 mean(0.0f);
    for (int i = 0; i < 2000; ++i) {
        Vec3 d = rng.nextDirection();
        EXPECT_NEAR(length(d), 1.0f, 1e-5f);
        mean += d * (1.0f / 2000.0f);
    }
    EXPECT_LT(length(mean), 0.06f); // roughly isotropic
}

TEST(Rng, Splitmix64Advances)
{
    uint64_t s = 1;
    uint64_t a = splitmix64(s);
    uint64_t b = splitmix64(s);
    EXPECT_NE(a, b);
}

// --------------------------------------------------------------- Stats

TEST(Histogram, BinningAndTotal)
{
    Histogram h(0.0, 1.0, 10);
    h.add(0.05);
    h.add(0.05);
    h.add(0.95);
    h.add(1.5);  // clamps into last bin
    h.add(-0.5); // clamps into first bin
    EXPECT_EQ(h.binCount(0), 3u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, QuantileMonotone)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(double(i) + 0.5);
    double q25 = h.quantile(0.25);
    double q50 = h.quantile(0.50);
    double q95 = h.quantile(0.95);
    EXPECT_LT(q25, q50);
    EXPECT_LT(q50, q95);
    EXPECT_NEAR(q50, 50.0, 2.0);
    EXPECT_NEAR(q95, 95.0, 2.0);
}

TEST(Histogram, FractionAtLeast)
{
    Histogram h(0.0, 1.0, 100);
    for (int i = 0; i < 90; ++i)
        h.add(0.995); // ~95%-style mass near 1 (Fig. 8 use case)
    for (int i = 0; i < 10; ++i)
        h.add(0.1);
    EXPECT_NEAR(h.fractionAtLeast(0.99), 0.9, 1e-9);
}

// --------------------------------------------------------------- Table

TEST(TextTable, AlignsAndCounts)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("beta"), std::string::npos);
    EXPECT_NE(s.find("+"), std::string::npos);
}

TEST(TableFormat, Helpers)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtTimes(2.5), "2.50x");
    EXPECT_EQ(fmtPercent(0.856), "85.6%");
    EXPECT_EQ(fmtBytes(2048), "2.00KB");
}

// ------------------------------------------------------------- Hashing

TEST(SpatialHash, DeterministicAndInRange)
{
    Vec3i v{12, 34, 56};
    uint32_t h1 = spatialHash(v, 15);
    uint32_t h2 = spatialHash(v, 15);
    EXPECT_EQ(h1, h2);
    EXPECT_LT(h1, 1u << 15);
}

TEST(SpatialHash, SpreadsNeighbors)
{
    // Hash-indexed neighbors should not be contiguous addresses --
    // that irregularity is the paper's Challenge 1 (Fig. 4).
    std::set<uint32_t> values;
    int contiguous = 0;
    uint32_t prev = spatialHash({0, 0, 0}, 19);
    for (int i = 1; i < 100; ++i) {
        uint32_t h = spatialHash({0, 0, i}, 19);
        if (h == prev + 1)
            ++contiguous;
        prev = h;
        values.insert(h);
    }
    EXPECT_LT(contiguous, 5);
    EXPECT_GT(values.size(), 95u); // few collisions on a short walk
}

TEST(DenseIndex, InjectiveOnLattice)
{
    std::set<uint32_t> seen;
    const uint32_t verts = 9;
    for (int z = 0; z < int(verts); ++z)
        for (int y = 0; y < int(verts); ++y)
            for (int x = 0; x < int(verts); ++x)
                seen.insert(denseIndex({x, y, z}, verts));
    EXPECT_EQ(seen.size(), size_t(verts * verts * verts));
}

TEST(Morton, FirstFewCodes)
{
    EXPECT_EQ(mortonIndex({0, 0, 0}), 0u);
    EXPECT_EQ(mortonIndex({1, 0, 0}), 1u);
    EXPECT_EQ(mortonIndex({0, 1, 0}), 2u);
    EXPECT_EQ(mortonIndex({0, 0, 1}), 4u);
    EXPECT_EQ(mortonIndex({1, 1, 1}), 7u);
}

// ---------------------------------------------------------------- Quant

TEST(Quantizer, RoundTripWithinHalfStep)
{
    Quantizer q = Quantizer::forAbsMax(2.0f, 8);
    for (float x : {-1.99f, -0.5f, 0.0f, 0.013f, 1.7f}) {
        float rt = q.roundTrip(x);
        EXPECT_NEAR(rt, x, q.scale * 0.5f + 1e-6f);
    }
}

TEST(Quantizer, ClampsOutOfRange)
{
    Quantizer q = Quantizer::forAbsMax(1.0f, 8);
    EXPECT_EQ(q.quantize(10.0f), 127);
    EXPECT_EQ(q.quantize(-10.0f), -127);
}

TEST(Quant, CellsPerWeight)
{
    EXPECT_EQ(cellsPerWeight(8, 1), 8); // SLC ReRAM
    EXPECT_EQ(cellsPerWeight(8, 2), 4);
    EXPECT_EQ(cellsPerWeight(5, 2), 3);
}

TEST(Quant, AbsMax)
{
    EXPECT_FLOAT_EQ(absMax({1.0f, -3.0f, 2.0f}), 3.0f);
    EXPECT_FLOAT_EQ(absMax({}), 0.0f);
}
