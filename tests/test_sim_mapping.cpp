/**
 * @file
 * Tests for the CIM data mapping (Figs. 11-14) and the register-based
 * cache (§5.2.2, Fig. 22): storage utilization under hash vs hybrid
 * placement, replication counts, bit-reorder conflict freedom, and LRU
 * behaviour.
 */

#include <gtest/gtest.h>

#include <set>

#include "nerf/ngp_field.hpp"
#include "sim/address_mapping.hpp"
#include "sim/encoding_engine.hpp"
#include "sim/register_cache.hpp"

using namespace asdr;
using namespace asdr::sim;

namespace {

nerf::TableSchema
paperSchema()
{
    // The paper's geometry: 16 levels, T = 2^19, resolutions 16..512.
    nerf::HashGridConfig cfg;
    cfg.levels = 16;
    cfg.log2_table_size = 19;
    cfg.base_resolution = 16;
    cfg.max_resolution = 512;
    return nerf::schemaFromGeometry(nerf::GridGeometry(cfg));
}

} // namespace

TEST(AddressMapping, HashOnlyUtilizationMatchesFig13a)
{
    AddressMapping mapping(paperSchema(), AccelConfig::strawman(false));
    // Paper Fig. 13a: average utilization ~62.20% under all-hash
    // placement. Our geometry reproduces it closely.
    EXPECT_NEAR(mapping.avgUtilization(), 0.622, 0.03);
    // Low-res tables are nearly empty, high-res tables full.
    EXPECT_LT(mapping.storageUtilization(0), 0.02);
    EXPECT_DOUBLE_EQ(mapping.storageUtilization(15), 1.0);
}

TEST(AddressMapping, HybridUtilizationImproves)
{
    AddressMapping hash_only(paperSchema(), AccelConfig::strawman(false));
    AddressMapping hybrid(paperSchema(), AccelConfig::server());
    // Fig. 13b: hybrid mapping raises utilization by roughly 20-25
    // points (paper: 62.20% -> 85.95%; ours: ~62% -> ~80%).
    EXPECT_GT(hybrid.avgUtilization(), hash_only.avgUtilization() + 0.15);
    EXPECT_GT(hybrid.avgUtilization(), 0.75);
    // Every de-hashed table is at least half-utilized (pow2 replication
    // can waste at most half).
    for (int t = 0; t < hybrid.tables(); ++t) {
        if (hybrid.dehashed(t)) {
            EXPECT_GE(hybrid.storageUtilization(t), 0.5) << t;
        }
    }
}

TEST(AddressMapping, ReplicationCountsPowerOfTwo)
{
    AddressMapping hybrid(paperSchema(), AccelConfig::server());
    int dehashed = 0;
    for (int t = 0; t < hybrid.tables(); ++t) {
        int c = hybrid.copies(t);
        EXPECT_GE(c, 1);
        EXPECT_EQ(c & (c - 1), 0) << "copies must be a power of two";
        if (hybrid.dehashed(t)) {
            ++dehashed;
            EXPECT_GE(hybrid.ports(t), 8);
        } else {
            EXPECT_EQ(c, 1);
        }
    }
    // The paper's geometry de-hashes the 7 low-resolution tables.
    EXPECT_EQ(dehashed, 7);
    // Fig. 12's example: the lowest table is replicated many times.
    EXPECT_GE(hybrid.copies(0), 32);
}

TEST(AddressMapping, StrawmanHasOnePortPerTable)
{
    AddressMapping strawman(paperSchema(), AccelConfig::strawman(false));
    for (int t = 0; t < strawman.tables(); ++t) {
        EXPECT_EQ(strawman.ports(t), 1);
        EXPECT_EQ(strawman.copies(t), 1);
        EXPECT_FALSE(strawman.dehashed(t));
    }
}

TEST(AddressMapping, BitReorderSpreadsVoxelVertices)
{
    // Fig. 14b: the 8 vertices of any voxel must land on 8 different
    // ports under the reordered mapping.
    AddressMapping hybrid(paperSchema(), AccelConfig::server());
    const int t = 0; // dense table
    ASSERT_TRUE(hybrid.dehashed(t));
    for (Vec3i base : {Vec3i{0, 0, 0}, Vec3i{6, 10, 3}, Vec3i{15, 1, 7}}) {
        std::set<uint32_t> ports;
        for (int i = 0; i < 8; ++i) {
            nerf::VertexLookup lu;
            lu.level = uint16_t(t);
            lu.vertex = {base.x + (i & 1), base.y + ((i >> 1) & 1),
                         base.z + ((i >> 2) & 1)};
            lu.index = 0;
            ports.insert(hybrid.map(lu, /*requester=*/0).port);
        }
        EXPECT_EQ(ports.size(), 8u) << "voxel at " << base;
    }
}

TEST(AddressMapping, NaiveConcatCollidesVoxelVertices)
{
    // Fig. 14a: plain coordinate concatenation leaves the 4 x-y
    // neighbors in the same high-bit region (same crossbar).
    AddressMapping mapping(paperSchema(), AccelConfig::server());
    const int t = 0;
    uint32_t banks = 0;
    std::set<uint32_t> naive_banks, reordered_banks;
    const uint32_t entries_per_bank = 256;
    for (int i = 0; i < 8; ++i) {
        Vec3i v{6 + (i & 1), 10 + ((i >> 1) & 1), 3 + ((i >> 2) & 1)};
        naive_banks.insert(mapping.naiveConcatIndex(t, v) /
                           entries_per_bank);
        reordered_banks.insert(mapping.bitReorderIndex(t, v) /
                               entries_per_bank);
        ++banks;
    }
    EXPECT_LT(naive_banks.size(), 3u);     // heavy collision
    EXPECT_EQ(reordered_banks.size(), 8u); // fully parallel
}

TEST(AddressMapping, ReorderIsInjectiveOnLattice)
{
    AddressMapping mapping(paperSchema(), AccelConfig::server());
    std::set<uint32_t> seen;
    const int n = 17; // level-0 lattice
    for (int z = 0; z < n; ++z)
        for (int y = 0; y < n; ++y)
            for (int x = 0; x < n; ++x)
                seen.insert(mapping.bitReorderIndex(0, {x, y, z}));
    EXPECT_EQ(seen.size(), size_t(n) * n * n);
}

TEST(AddressMapping, RequesterRotatesReplicas)
{
    AddressMapping hybrid(paperSchema(), AccelConfig::server());
    const int t = 0;
    nerf::VertexLookup lu;
    lu.level = uint16_t(t);
    lu.vertex = {3, 4, 5};
    std::set<uint32_t> ports;
    for (uint32_t r = 0; r < uint32_t(hybrid.copies(t)); ++r)
        ports.insert(hybrid.map(lu, r).port);
    // Different requesters reach the same entry through different
    // replicas -> multiple ports serve the hottest entries.
    EXPECT_GT(ports.size(), 4u);
}

TEST(AddressMapping, TensorfSchemaSupported)
{
    nerf::TableSchema schema;
    schema.hash_table_entries = 0;
    schema.features = 8;
    for (int i = 0; i < 3; ++i)
        schema.tables.push_back({64u * 64u, true, 64, 2});
    for (int i = 0; i < 3; ++i)
        schema.tables.push_back({64u, true, 64, 1});
    AddressMapping mapping(schema, AccelConfig::server());
    EXPECT_EQ(mapping.tables(), 6);
    for (int t = 0; t < 6; ++t)
        EXPECT_GE(mapping.ports(t), 1);
}

// -------------------------------------------------------- RegisterCache

TEST(RegisterCache, HitOnRepeat)
{
    RegisterCache cache(4);
    EXPECT_FALSE(cache.access(10));
    EXPECT_TRUE(cache.access(10));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(RegisterCache, LruEviction)
{
    RegisterCache cache(2);
    cache.access(1);
    cache.access(2);
    cache.access(1); // 1 becomes MRU, 2 is LRU
    cache.access(3); // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
}

TEST(RegisterCache, ZeroCapacityAlwaysMisses)
{
    RegisterCache cache(0);
    EXPECT_FALSE(cache.access(5));
    EXPECT_FALSE(cache.access(5));
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(RegisterCache, VoxelWorkingSetFitsEight)
{
    // The Fig. 22 sweet spot: 8 registers hold a voxel's 8 vertices, so
    // revisiting the same voxel (intra-ray locality) always hits.
    RegisterCache cache(8);
    for (int round = 0; round < 5; ++round)
        for (uint32_t v = 0; v < 8; ++v)
            cache.access(100 + v);
    EXPECT_EQ(cache.misses(), 8u);
    EXPECT_EQ(cache.hits(), 4u * 8u);
}

TEST(RegisterCache, FourEntriesThrashOnVoxel)
{
    // Half a voxel's vertices do not fit -> LRU thrashes on a cyclic
    // access pattern (why Fig. 22 shows diminishing returns only at 8).
    RegisterCache cache(4);
    for (int round = 0; round < 5; ++round)
        for (uint32_t v = 0; v < 8; ++v)
            cache.access(100 + v);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(RegisterCache, HitRateAccounting)
{
    RegisterCache cache(2);
    cache.access(1);
    cache.access(1);
    cache.access(1);
    cache.access(2);
    EXPECT_NEAR(cache.hitRate(), 0.5, 1e-9);
    cache.reset();
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(RegisterCacheBank, PerTableIsolation)
{
    RegisterCacheBank bank(3, 2);
    EXPECT_FALSE(bank.access(0, 7));
    EXPECT_FALSE(bank.access(1, 7)); // same key, different table: miss
    EXPECT_TRUE(bank.access(0, 7));
    EXPECT_GT(bank.overallHitRate(), 0.0);
    bank.reset();
    EXPECT_DOUBLE_EQ(bank.overallHitRate(), 0.0);
}

TEST(RegisterCacheBank, PerTableCapacityProfile)
{
    // Paper §5.2.2: cache sizes vary with per-level locality. The
    // profiled bank honors per-table capacities and repeats the last
    // value for the remaining tables.
    RegisterCacheBank bank({16, 8, 4}, 5);
    EXPECT_EQ(bank.table(0).capacity(), 16);
    EXPECT_EQ(bank.table(1).capacity(), 8);
    EXPECT_EQ(bank.table(2).capacity(), 4);
    EXPECT_EQ(bank.table(3).capacity(), 4);
    EXPECT_EQ(bank.table(4).capacity(), 4);
    EXPECT_EQ(bank.totalEntries(), 16 + 8 + 4 + 4 + 4);
}

TEST(RegisterCacheBank, ProfiledBankStillIsolatesTables)
{
    RegisterCacheBank bank({4, 2}, 2);
    EXPECT_FALSE(bank.access(0, 9));
    EXPECT_FALSE(bank.access(1, 9));
    EXPECT_TRUE(bank.access(0, 9));
    EXPECT_TRUE(bank.access(1, 9));
}

TEST(EncodingConfig, CacheProfileFlowsThroughEngine)
{
    // A profiled configuration with the Table 2 register budget
    // redistributed toward the sticky low-resolution tables.
    AccelConfig cfg = AccelConfig::server();
    cfg.cache_profile = {16, 16, 12, 12, 8, 8, 8, 8,
                         6,  6,  4,  4,  4, 4, 2, 2};
    nerf::TableSchema schema = paperSchema();
    EncodingEngine engine(schema, cfg);
    EXPECT_EQ(engine.cacheBank().table(0).capacity(), 16);
    EXPECT_EQ(engine.cacheBank().table(15).capacity(), 2);
    EXPECT_EQ(engine.cacheBank().totalEntries(), 120);
}
