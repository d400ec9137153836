/**
 * @file
 * Tests for the trace/profile plumbing: WorkloadProfile arithmetic and
 * FLOP accounting, MultiSink fan-out ordering, and the experiment
 * presets / field cache glue.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/field_cache.hpp"
#include "core/presets.hpp"
#include "core/trace.hpp"
#include "nerf/serialize.hpp"
#include "scene/scene_library.hpp"

using namespace asdr;
using namespace asdr::core;

namespace {

nerf::FieldCosts
toyCosts()
{
    nerf::FieldCosts costs;
    costs.encode_flops = 100.0;
    costs.density_flops = 10.0;
    costs.color_flops = 90.0;
    costs.lookups_per_point = 8;
    return costs;
}

} // namespace

TEST(WorkloadProfile, FlopAccounting)
{
    WorkloadProfile p;
    p.points = 10;
    p.density_execs = 10;
    p.color_execs = 5;
    p.lookups = 80;

    nerf::FieldCosts costs = toyCosts();
    EXPECT_DOUBLE_EQ(p.encodeFlops(costs), 1000.0);
    EXPECT_DOUBLE_EQ(p.densityFlops(costs), 100.0);
    EXPECT_DOUBLE_EQ(p.colorFlops(costs), 450.0);
    EXPECT_DOUBLE_EQ(p.totalFlops(costs), 1550.0);
    EXPECT_DOUBLE_EQ(p.lookupBytes(costs), 80.0 * 2 * 4);
}

TEST(WorkloadProfile, MergeSumsEveryField)
{
    WorkloadProfile a, b;
    a.rays = 1;
    a.probe_rays = 2;
    a.points = 3;
    a.density_execs = 4;
    a.color_execs = 5;
    a.approx_colors = 6;
    a.lookups = 7;
    b = a;
    a.merge(b);
    EXPECT_EQ(a.rays, 2u);
    EXPECT_EQ(a.probe_rays, 4u);
    EXPECT_EQ(a.points, 6u);
    EXPECT_EQ(a.density_execs, 8u);
    EXPECT_EQ(a.color_execs, 10u);
    EXPECT_EQ(a.approx_colors, 12u);
    EXPECT_EQ(a.lookups, 14u);
}

namespace {

/** Records event names in arrival order. */
class OrderSink : public TraceSink
{
  public:
    std::vector<std::string> events;
    void onFrameBegin(int, int) override { events.push_back("fb"); }
    void onRayBegin(int, int, bool probe) override
    {
        events.push_back(probe ? "rb-probe" : "rb");
    }
    void
    onPointLookups(const nerf::VertexLookup *, size_t) override
    {
        events.push_back("pl");
    }
    void onDensityExec() override { events.push_back("de"); }
    void onColorExec() override { events.push_back("ce"); }
    void onApproxColor() override { events.push_back("ac"); }
    void onRayEnd() override { events.push_back("re"); }
    void onFrameEnd() override { events.push_back("fe"); }
};

} // namespace

TEST(MultiSink, BroadcastsAllEventsInOrder)
{
    OrderSink a, b;
    MultiSink multi;
    multi.add(&a);
    multi.add(&b);

    multi.onFrameBegin(4, 4);
    multi.onRayBegin(0, 0, true);
    nerf::VertexLookup lu;
    multi.onPointLookups(&lu, 1);
    multi.onDensityExec();
    multi.onColorExec();
    multi.onApproxColor();
    multi.onRayEnd();
    multi.onFrameEnd();

    std::vector<std::string> expected = {"fb", "rb-probe", "pl", "de",
                                         "ce", "ac", "re", "fe"};
    EXPECT_EQ(a.events, expected);
    EXPECT_EQ(b.events, expected);
}

TEST(Presets, QualityAndPerfDiffer)
{
    auto quality = ExperimentPreset::quality();
    auto perf = ExperimentPreset::perf();
    EXPECT_EQ(quality.name, "quality");
    EXPECT_EQ(perf.name, "perf");
    EXPECT_LT(quality.pixel_budget, perf.pixel_budget + 1);
    EXPECT_LE(quality.samples_per_ray, perf.samples_per_ray);
    // Perf uses the paper-faithful reference table size.
    EXPECT_EQ(perf.model.grid.log2_table_size, 19u);
    EXPECT_LT(quality.model.grid.log2_table_size, 19u);
}

TEST(Presets, RenderConfigMatchesResolution)
{
    auto preset = ExperimentPreset::quality();
    scene::SceneInfo info = scene::sceneInfo("Fox"); // portrait aspect
    RenderConfig cfg = preset.renderConfigFor(info);
    EXPECT_GT(cfg.height, cfg.width); // aspect preserved
    EXPECT_EQ(cfg.samples_per_ray, preset.samples_per_ray);
}

TEST(FieldCache, SecondLookupIsMemoized)
{
    ExperimentPreset preset = ExperimentPreset::quality();
    preset.train.steps = 20; // tiny fit; this test exercises the cache
    preset.train.batch = 8;
    preset.name = "testcache";
    auto a = core::fittedField("Mic", preset);
    auto b = core::fittedField("Mic", preset);
    EXPECT_EQ(a.get(), b.get()); // same shared instance
    std::remove(nerf::fieldCachePath("Mic", preset.name).c_str());
}

TEST(FieldCache, DiskRoundTrip)
{
    ExperimentPreset preset = ExperimentPreset::quality();
    preset.train.steps = 20;
    preset.train.batch = 8;
    preset.name = "testdisk";
    std::string path = nerf::fieldCachePath("Chair", preset.name);
    std::remove(path.c_str());

    auto field = core::fittedField("Chair", preset);
    // The trainer wrote a cache file.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    // A fresh field with the same config can load it.
    nerf::InstantNgpField fresh(preset.model, 0xF1E1D);
    EXPECT_TRUE(nerf::loadField(fresh, path));
    std::remove(path.c_str());
}
