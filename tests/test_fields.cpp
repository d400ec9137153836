/**
 * @file
 * Tests for the radiance-field implementations: InstantNgpField
 * (structure, training step, costs), ProceduralField (bit for bit the
 * analytic scene on every path, lookup parity with the NGP field),
 * TensorfField (structure, training), field
 * serialization, and the distillation trainer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "nerf/serialize.hpp"
#include "nerf/tensorf.hpp"
#include "nerf/trainer.hpp"
#include "scene/scene_library.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::nerf;

namespace {

NgpModelConfig
tinyModel()
{
    NgpModelConfig cfg;
    cfg.grid.levels = 4;
    cfg.grid.log2_table_size = 10;
    cfg.grid.base_resolution = 4;
    cfg.grid.max_resolution = 32;
    cfg.density_hidden = {16};
    cfg.color_hidden = {16};
    return cfg;
}

/** Collects every lookup for comparisons. */
class CollectSink : public LookupSink
{
  public:
    std::vector<VertexLookup> lookups;
    void
    onPointLookups(const VertexLookup *lu, size_t count) override
    {
        lookups.assign(lu, lu + count);
    }
};

} // namespace

TEST(NgpField, DensityOutputsFinite)
{
    InstantNgpField field(tinyModel(), 1);
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        DensityOutput den = field.density(rng.nextVec3());
        EXPECT_TRUE(std::isfinite(den.sigma));
        EXPECT_GE(den.sigma, 0.0f); // softplus output
    }
}

TEST(NgpField, ColorInUnitCube)
{
    InstantNgpField field(tinyModel(), 3);
    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        Vec3 pos = rng.nextVec3();
        Vec3 dir = rng.nextDirection();
        Vec3 c = field.color(pos, dir, field.density(pos));
        for (int ch = 0; ch < 3; ++ch) {
            EXPECT_GT(c[ch], 0.0f); // sigmoid never saturates exactly
            EXPECT_LT(c[ch], 1.0f);
        }
    }
}

TEST(NgpField, LookupCountMatchesCosts)
{
    InstantNgpField field(tinyModel(), 5);
    CollectSink sink;
    field.traceLookups({0.3f, 0.4f, 0.5f}, sink);
    EXPECT_EQ(int(sink.lookups.size()), field.costs().lookups_per_point);
    EXPECT_EQ(sink.lookups.size(), size_t(4 * 8)); // levels x vertices
}

TEST(NgpField, TraceIndicesMatchGeometry)
{
    InstantNgpField field(tinyModel(), 6);
    CollectSink sink;
    Vec3 pos{0.21f, 0.77f, 0.46f};
    field.traceLookups(pos, sink);
    const GridGeometry &geom = field.gridGeometry();
    for (const auto &lu : sink.lookups) {
        EXPECT_EQ(lu.index, geom.index(lu.level, lu.vertex));
        EXPECT_LT(lu.index, geom.level(lu.level).table_entries);
    }
}

TEST(NgpField, ReferenceCostsMatchPaperRatios)
{
    InstantNgpField field(NgpModelConfig::reference(), 7);
    FieldCosts costs = field.costs();
    double density_share =
        costs.density_flops / (costs.density_flops + costs.color_flops);
    EXPECT_GT(density_share, 0.05); // paper: ~8%
    EXPECT_LT(density_share, 0.11);
    EXPECT_EQ(costs.lookups_per_point, 16 * 8);
    ASSERT_EQ(costs.density_layers.size(), 2u);
    EXPECT_EQ(costs.density_layers[0].in, 32);
    ASSERT_EQ(costs.color_layers.size(), 4u);
    EXPECT_EQ(costs.color_layers[0].in, 31);
}

TEST(NgpField, TrainStepReducesLossOnRepeatedSample)
{
    InstantNgpField field(tinyModel(), 8);
    InstantNgpField::TrainSample s;
    s.pos = {0.5f, 0.5f, 0.5f};
    s.dir = {0, 0, 1};
    s.sigma_target = 20.0f;
    s.color_target = {0.9f, 0.2f, 0.1f};

    float first = 0.0f, last = 0.0f;
    for (int i = 0; i < 200; ++i) {
        field.zeroGrads();
        float loss = field.trainStep(s);
        field.applyAdam(1e-2f);
        if (i == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first * 0.05f);
}

TEST(NgpField, SigmaActivationShape)
{
    EXPECT_NEAR(InstantNgpField::sigmaActivation(-20.0f), 0.0f, 1e-6f);
    EXPECT_GT(InstantNgpField::sigmaActivation(1.0f), 0.0f);
    EXPECT_NEAR(InstantNgpField::sigmaActivation(50.0f), 49.0f, 1e-3f);
}

namespace {

/** Points where a procedural field's terms matter: random ones inside
 *  and just outside the unit cube, each primitive's center, and the
 *  points its shape parameters reach along each axis (a box's face
 *  centers). */
std::vector<Vec3>
fieldProbePoints(const scene::AnalyticScene &scene, Rng &rng)
{
    std::vector<Vec3> pts;
    for (int i = 0; i < 150; ++i)
        pts.push_back(rng.nextVec3());
    for (int i = 0; i < 50; ++i)
        pts.push_back(rng.nextVec3() * 1.2f - Vec3(0.1f));
    for (const scene::Primitive &prim : scene.primitives()) {
        pts.push_back(prim.center);
        for (int axis = 0; axis < 3; ++axis) {
            for (float sign : {-1.0f, 1.0f}) {
                Vec3 p = prim.center;
                float &c = axis == 0 ? p.x : axis == 1 ? p.y : p.z;
                c += sign * (axis == 0   ? prim.params.x
                             : axis == 1 ? prim.params.y
                                         : prim.params.z);
                pts.push_back(p);
            }
        }
    }
    return pts;
}

bool
sameBits(const DensityOutput &a, const DensityOutput &b)
{
    return std::memcmp(&a, &b, sizeof(DensityOutput)) == 0;
}

bool
sameBits(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

} // namespace

TEST(ProceduralField, BitIdenticalToAnalyticSceneOnEveryScene)
{
    // The field carries each primitive's falloff term from density to
    // color in DensityOutput::geo and runs its batch primitive-major;
    // every path must still give the analytic scene's bits. Ficus (38
    // primitives) has more than geo holds terms for (31), and Fountain
    // (30) nearly fills it.
    for (const std::string &name : scene::allSceneNames()) {
        SCOPED_TRACE(name);
        auto scene = scene::createScene(name);
        ProceduralField field(*scene);
        Rng rng(9);
        const std::vector<Vec3> pts = fieldProbePoints(*scene, rng);

        std::vector<DensityOutput> den(pts.size());
        std::vector<Vec3> dirs(pts.size());
        for (size_t i = 0; i < pts.size(); ++i) {
            den[i] = field.density(pts[i]);
            dirs[i] = rng.nextDirection();
            ASSERT_TRUE(sameBits(den[i].sigma, scene->density(pts[i])))
                << "point " << i;
            ASSERT_TRUE(sameBits(field.color(pts[i], dirs[i], den[i]),
                                 scene->sample(pts[i], dirs[i]).color))
                << "point " << i;
        }

        for (int count : {1, 2, 63, 64, 65, 300}) {
            SCOPED_TRACE(count);
            const size_t n = size_t(count);
            std::vector<Vec3> pos(n);
            for (int p = 0; p < count; ++p)
                pos[size_t(p)] = pts[size_t(p) % pts.size()];
            // Stale outputs: the batch must write every slot.
            std::vector<DensityOutput> batch(n);
            for (DensityOutput &o : batch) {
                o.sigma = -1.0f;
                o.geo.fill(-1.0f);
            }
            field.densityBatch(pos.data(), count, batch.data());
            for (int p = 0; p < count; ++p)
                ASSERT_TRUE(sameBits(batch[size_t(p)],
                                     field.density(pos[size_t(p)])))
                    << "point " << p;

            const Vec3 dir = dirs[n % dirs.size()];
            std::vector<Vec3> colors(n);
            field.colorBatch(pos.data(), dir, batch.data(), count,
                             colors.data());
            for (int p = 0; p < count; ++p)
                ASSERT_TRUE(sameBits(colors[size_t(p)],
                                     field.color(pos[size_t(p)], dir,
                                                 batch[size_t(p)])))
                    << "point " << p;
        }
    }
}

TEST(ProceduralField, LookupParityWithNgpField)
{
    // Both field types must emit identical lookup traces for the same
    // grid config -- that is the contract that lets performance sweeps
    // use the procedural field.
    auto scene = scene::createScene("Lego");
    NgpModelConfig model = tinyModel();
    ProceduralField proc(*scene, model);
    InstantNgpField ngp(model, 10);

    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        Vec3 pos = rng.nextVec3();
        CollectSink a, b;
        proc.traceLookups(pos, a);
        ngp.traceLookups(pos, b);
        ASSERT_EQ(a.lookups.size(), b.lookups.size());
        for (size_t j = 0; j < a.lookups.size(); ++j) {
            EXPECT_EQ(a.lookups[j].level, b.lookups[j].level);
            EXPECT_EQ(a.lookups[j].index, b.lookups[j].index);
            EXPECT_EQ(a.lookups[j].vertex, b.lookups[j].vertex);
        }
    }
}

TEST(ProceduralField, SchemaMatchesNgp)
{
    auto scene = scene::createScene("Lego");
    NgpModelConfig model = tinyModel();
    ProceduralField proc(*scene, model);
    InstantNgpField ngp(model, 12);
    TableSchema sa = proc.tableSchema();
    TableSchema sb = ngp.tableSchema();
    ASSERT_EQ(sa.tables.size(), sb.tables.size());
    for (size_t t = 0; t < sa.tables.size(); ++t) {
        EXPECT_EQ(sa.tables[t].entries, sb.tables[t].entries);
        EXPECT_EQ(sa.tables[t].dense, sb.tables[t].dense);
    }
}

TEST(Trainer, LossDecreasesOnScene)
{
    auto scene = scene::createScene("Lego");
    InstantNgpField field(tinyModel(), 13);
    TrainConfig cfg;
    cfg.steps = 400;
    cfg.batch = 48;
    TrainReport report = fitField(field, *scene, cfg);
    EXPECT_LT(report.final_loss, report.initial_loss * 0.7);
}

TEST(Trainer, DrawSampleTargetsMatchScene)
{
    auto scene = scene::createScene("Chair");
    Rng rng(14);
    for (int i = 0; i < 100; ++i) {
        auto s = drawSample(*scene, rng, 0.5f);
        scene::SceneSample ref = scene->sample(s.pos, s.dir);
        EXPECT_FLOAT_EQ(s.sigma_target, ref.sigma);
        EXPECT_EQ(s.color_target, ref.color);
        EXPECT_GE(s.pos.x, 0.0f);
        EXPECT_LE(s.pos.x, 1.0f);
    }
}

TEST(Serialize, RoundTripRestoresOutputs)
{
    NgpModelConfig model = tinyModel();
    InstantNgpField a(model, 15);
    // Perturb from init so the round trip is non-trivial.
    auto scene = scene::createScene("Mic");
    TrainConfig tc;
    tc.steps = 30;
    tc.batch = 16;
    fitField(a, *scene, tc);

    std::string path = dataDir() + "/test_field_roundtrip.bin";
    ASSERT_TRUE(saveField(a, path));

    InstantNgpField b(model, 999); // different init
    ASSERT_TRUE(loadField(b, path));

    Rng rng(16);
    for (int i = 0; i < 50; ++i) {
        Vec3 pos = rng.nextVec3();
        Vec3 dir = rng.nextDirection();
        DensityOutput da = a.density(pos), db = b.density(pos);
        EXPECT_FLOAT_EQ(da.sigma, db.sigma);
        EXPECT_EQ(a.color(pos, dir, da), b.color(pos, dir, db));
    }
    std::remove(path.c_str());
}

TEST(Serialize, RejectsMismatchedConfig)
{
    InstantNgpField a(tinyModel(), 17);
    std::string path = dataDir() + "/test_field_mismatch.bin";
    ASSERT_TRUE(saveField(a, path));

    NgpModelConfig other = tinyModel();
    other.grid.log2_table_size = 11;
    InstantNgpField b(other, 18);
    EXPECT_FALSE(loadField(b, path));
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileFailsGracefully)
{
    InstantNgpField field(tinyModel(), 19);
    EXPECT_FALSE(loadField(field, "/nonexistent/path/field.bin"));
}

// --------------------------------------------------------------- TensoRF

namespace {

TensorfConfig
tinyTensorf()
{
    TensorfConfig cfg;
    cfg.resolution = 16;
    cfg.density_components = 2;
    cfg.appearance_components = 4;
    cfg.color_hidden = {16};
    return cfg;
}

} // namespace

TEST(Tensorf, OutputsFiniteAndBounded)
{
    TensorfField field(tinyTensorf(), 20);
    Rng rng(21);
    for (int i = 0; i < 100; ++i) {
        Vec3 pos = rng.nextVec3();
        DensityOutput den = field.density(pos);
        EXPECT_TRUE(std::isfinite(den.sigma));
        EXPECT_GE(den.sigma, 0.0f);
        Vec3 c = field.color(pos, rng.nextDirection(), den);
        for (int ch = 0; ch < 3; ++ch) {
            EXPECT_GT(c[ch], 0.0f);
            EXPECT_LT(c[ch], 1.0f);
        }
    }
}

TEST(Tensorf, LookupStructure)
{
    TensorfField field(tinyTensorf(), 22);
    CollectSink sink;
    field.traceLookups({0.4f, 0.5f, 0.6f}, sink);
    // 2 sets x 3 orientations x (4 plane + 2 line) texels.
    EXPECT_EQ(sink.lookups.size(), 36u);
    TableSchema schema = field.tableSchema();
    EXPECT_EQ(schema.tables.size(), 12u);
    for (const auto &lu : sink.lookups)
        EXPECT_LT(lu.index, schema.tables[lu.level].entries);
}

TEST(Tensorf, SchemaShapes)
{
    TensorfField field(tinyTensorf(), 23);
    TableSchema schema = field.tableSchema();
    int planes = 0, lines = 0;
    for (const auto &t : schema.tables) {
        EXPECT_TRUE(t.dense);
        if (t.dims == 2) {
            ++planes;
            EXPECT_EQ(t.entries, 16u * 16u);
        } else {
            ++lines;
            EXPECT_EQ(t.entries, 16u);
        }
    }
    EXPECT_EQ(planes, 6);
    EXPECT_EQ(lines, 6);
}

TEST(Tensorf, TrainStepConvergesOnPoint)
{
    TensorfField field(tinyTensorf(), 24);
    InstantNgpField::TrainSample s;
    s.pos = {0.3f, 0.6f, 0.4f};
    s.dir = {0, 1, 0};
    s.sigma_target = 15.0f;
    s.color_target = {0.1f, 0.8f, 0.3f};
    float first = 0.0f, last = 0.0f;
    for (int i = 0; i < 300; ++i) {
        field.zeroGrads();
        float loss = field.trainStep(s);
        field.applyAdam(1e-2f);
        if (i == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first * 0.1f);
}

TEST(Tensorf, FitReducesLoss)
{
    auto scene = scene::createScene("Mic");
    TensorfField field(tinyTensorf(), 25);
    auto report = fitTensorf(field, *scene, 500, 32, 5e-3f);
    EXPECT_TRUE(std::isfinite(report.final_loss));
    EXPECT_LT(report.final_loss, 1.2);
}
