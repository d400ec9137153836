/**
 * @file
 * Host rendering throughput: rays/sec and Msamples/sec of the scalar
 * (point-at-a-time) oracle vs. the batched Morton-tile march vs.
 * batched + tile-parallel, at several resolutions, plus a hash-encode
 * microbenchmark (scalar vs two-pass SIMD vs SIMD over Morton-ordered
 * input), an MLP microbenchmark per kernel build (baseline vs the
 * CPU-dispatched one), a procedural-field microbenchmark (batched vs
 * per-point density and color), a batched-exp microbenchmark (std::exp
 * vs expBatch), multi-frame pipelining through the
 * streaming engine, the quality ladder's shed-vs-degrade trade under an
 * over-backlog burst, and fault recovery (time to resume, circuit
 * breaker on vs. off).
 * Serving throughput and latency are servebench's job (servebench/),
 * which measures them net of host steal. Frames are bit-identical
 * across all render modes, so every row measures the same workload.
 * Each row is emitted as a JSON line to stdout *and* appended to
 * BENCH_throughput.json in the working directory, so the perf
 * trajectory accumulates across PRs. The InstantNGP field runs
 * the real hash-grid + MLP network -- this is the path batching
 * accelerates (the paper's CIM arrays amortize exactly this
 * weight/table streaming in hardware).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/analysis.hpp"
#include "engine/frame_engine.hpp"
#include "net/client.hpp"
#include "net/render_service.hpp"
#include "nerf/kernels.hpp"
#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "server/frame_server.hpp"
#include "server/workload.hpp"
#include "util/exp_batch.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::bench;

namespace {

struct Mode
{
    const char *name;
    int eval_batch;
    int num_threads; // 0 = auto
};

struct Measured
{
    double wall_s = 0.0;
    double rays_per_s = 0.0;
    double msamples_per_s = 0.0;
};

Measured
measure(const nerf::RadianceField &field, const nerf::Camera &camera,
        core::RenderConfig cfg, const Mode &mode)
{
    cfg.eval_batch = mode.eval_batch;
    cfg.num_threads = mode.num_threads;
    core::AsdrRenderer renderer(field, cfg);
    core::RenderStats stats;
    renderer.render(camera, &stats);

    Measured m;
    m.wall_s = stats.wall_seconds;
    m.rays_per_s = double(stats.profile.rays) / stats.wall_seconds;
    m.msamples_per_s =
        double(stats.profile.points) / stats.wall_seconds / 1e6;
    return m;
}

/** Emit a JSON line to stdout and the BENCH_throughput.json artifact. */
void
emitBoth(const JsonLine &line, std::ofstream &artifact)
{
    line.emit(std::cout);
    if (artifact.is_open())
        line.emit(artifact);
}

/**
 * Sample positions of a w x h frame's rays (ns points each), with rays
 * walked row-major or in the renderer's 8x8-tile Z-curve order.
 */
std::vector<Vec3>
frameSamples(const nerf::Camera &camera, int ns, bool morton)
{
    std::vector<Vec3> samples;
    for (const auto &[x, y] :
         core::frameRayOrder(camera.width(), camera.height(), morton)) {
        nerf::Ray ray = camera.ray(float(x) + 0.5f, float(y) + 0.5f);
        bool hit = false;
        auto positions = core::rayPositions(ray, ns, hit);
        samples.insert(samples.end(), positions.begin(), positions.end());
    }
    return samples;
}

/**
 * A render_reuse row: the per-batch hash-table reuse factor of one
 * single-threaded 48x48x32 frame, measured through the field's
 * reuse-stats hook on the renderer's own densityBatch stream.
 */
JsonLine
renderReuseRow(const nerf::InstantNgpField &field,
               const scene::AnalyticScene &scene)
{
    core::RenderConfig cfg = core::RenderConfig::baseline(48, 48, 32);
    cfg.early_termination = true;
    cfg.num_threads = 1;
    const core::AsdrRenderer renderer(field, cfg);
    const nerf::Camera camera = nerf::cameraForScene(scene.info(), 48, 48);
    renderer.render(camera); // builds the occupancy grid, unhooked
    nerf::EncodeReuseStats stats;
    field.setEncodeReuseStats(&stats);
    renderer.render(camera);
    field.setEncodeReuseStats(nullptr);
    uint64_t lookups = 0, unique = 0;
    for (size_t l = 0; l < stats.lookups.size(); ++l) {
        lookups += stats.lookups[l];
        unique += stats.unique[l];
    }
    JsonLine row("render_reuse");
    row.field("order", "morton")
        .field("lookups", double(lookups))
        .field("reuse_factor",
               double(lookups) / double(std::max<uint64_t>(1, unique)));
    return row;
}

/** A tenant whose field always throws: the circuit-breaker bench's
 *  poisoned scene. */
struct PoisonField : nerf::ProceduralField
{
    using ProceduralField::ProceduralField;
    nerf::DensityOutput density(const Vec3 &) const override
    {
        throw std::runtime_error("poisoned tenant");
    }
    void densityBatch(const Vec3 *, int,
                      nerf::DensityOutput *) const override
    {
        throw std::runtime_error("poisoned tenant");
    }
};

double
secondsOf(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    // --smoke: a minutes-to-seconds variant registered in ctest, so
    // every JSON row kind is exercised on every CI run.
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;

    benchHeader(
        "Throughput: scalar vs batched (Morton tiles) vs "
        "batched+threaded host pipeline, the hash-encode kernel, and "
        "multi-frame pipelining through the streaming engine",
        "Same frame, bit-identical output in all modes; speedups come "
        "from weight/table streaming amortization, cache-coherent ray "
        "ordering, tile parallelism, and frame-level pipelining.");

    // The perf-trajectory artifact accumulates where ASDR_ARTIFACT_DIR
    // points (the repo root, where it is committed), else the cwd.
    const char *artifact_dir = std::getenv("ASDR_ARTIFACT_DIR");
    std::ofstream artifact(std::string(artifact_dir ? artifact_dir : ".") +
                               "/BENCH_throughput.json",
                           std::ios::app);

    // The batched modes keep their "+morton" names so their rows line
    // up with the committed trajectory, which also holds rows of a
    // since-removed row-order batched mode.
    const Mode modes[] = {
        {"scalar", 1, 1},
        {"batched+morton", 32, 1},
        {"batched+morton+threads", 32, 0},
    };

    struct Shape
    {
        int w, h, ns;
    };
    const std::vector<Shape> shapes =
        smoke ? std::vector<Shape>{{32, 32, 32}}
              : std::vector<Shape>{{48, 48, 64}, {64, 64, 96},
                                   {96, 96, 128}};

    nerf::InstantNgpField field(nerf::NgpModelConfig::fast(), 1234);
    auto scene = scene::createScene("Lego");

    // Warm up allocators, thread-locals, and the page cache.
    {
        nerf::Camera cam = nerf::cameraForScene(scene->info(), 16, 16);
        core::RenderConfig warm = core::RenderConfig::baseline(16, 16, 16);
        core::AsdrRenderer(field, warm).render(cam);
    }

    TextTable table({"resolution", "mode", "wall (s)", "rays/s",
                     "Msamples/s", "speedup"});
    for (const Shape &shape : shapes) {
        nerf::Camera camera =
            nerf::cameraForScene(scene->info(), shape.w, shape.h);
        core::RenderConfig cfg =
            core::RenderConfig::baseline(shape.w, shape.h, shape.ns);
        cfg.early_termination = true;

        double scalar_rays = 0.0;
        for (const Mode &mode : modes) {
            Measured m = measure(field, camera, cfg, mode);
            if (std::string(mode.name) == "scalar")
                scalar_rays = m.rays_per_s;
            double speedup =
                scalar_rays > 0.0 ? m.rays_per_s / scalar_rays : 1.0;

            std::string res = std::to_string(shape.w) + "x" +
                              std::to_string(shape.h) + "x" +
                              std::to_string(shape.ns);
            table.addRow({res, mode.name, fmt(m.wall_s, 3),
                          fmt(m.rays_per_s, 0), fmt(m.msamples_per_s, 2),
                          fmtTimes(speedup)});

            emitBoth(JsonLine("throughput")
                         .field("scene", "Lego")
                         .field("field", field.describe())
                         .field("width", shape.w)
                         .field("height", shape.h)
                         .field("samples_per_ray", shape.ns)
                         .field("mode", mode.name)
                         .field("eval_batch", mode.eval_batch)
                         .field("num_threads", mode.num_threads)
                         .field("wall_s", m.wall_s)
                         .field("rays_per_s", m.rays_per_s)
                         .field("msamples_per_s", m.msamples_per_s)
                         .field("speedup_vs_scalar", speedup),
                     artifact);
        }
        table.addRule();
    }
    table.print(std::cout);

    // ---- hash-encode microbenchmark: the kernel the two-pass SIMD
    // restructure targets, isolated from the MLP. "morton" feeds the
    // same points in the renderer's tile-Z-curve ray order, measuring
    // what cache-coherent ordering buys the gather pass.
    {
        const nerf::HashGrid &grid = field.grid();
        const int fd = grid.featureDim();
        nerf::Camera camera = nerf::cameraForScene(scene->info(), 64, 64);
        std::vector<Vec3> rows = frameSamples(camera, 32, /*morton=*/false);
        std::vector<Vec3> morton = frameSamples(camera, 32, /*morton=*/true);
        const int count = int(rows.size());
        std::vector<float> feat(size_t(count) * size_t(fd));
        const int reps = smoke ? 2 : 5;

        struct EncMode
        {
            const char *name;
            std::function<void()> run;
        };
        const EncMode enc_modes[] = {
            {"scalar", [&] {
                 for (int p = 0; p < count; ++p)
                     grid.encode(rows[size_t(p)],
                                 feat.data() + size_t(p) * size_t(fd));
             }},
            {"simd", [&] {
                 grid.encodeBatch(rows.data(), count, feat.data(), fd);
             }},
            {"simd+morton", [&] {
                 grid.encodeBatch(morton.data(), count, feat.data(), fd);
             }},
        };

        TextTable enc_table({"encode mode", "points", "wall (s)",
                             "Msamples/s", "speedup"});
        double scalar_s = 0.0;
        for (const EncMode &mode : enc_modes) {
            mode.run(); // warm caches and thread-local workspaces
            // Min-of-reps: the kernel is deterministic, so the fastest
            // pass is the least-perturbed measurement.
            double per_pass = 1e30;
            for (int r = 0; r < reps; ++r)
                per_pass = std::min(per_pass, secondsOf(mode.run));
            if (std::string(mode.name) == "scalar")
                scalar_s = per_pass;
            double msps = double(count) / per_pass / 1e6;
            double speedup = per_pass > 0.0 ? scalar_s / per_pass : 1.0;
            enc_table.addRow({mode.name, std::to_string(count),
                              fmt(per_pass, 4), fmt(msps, 2),
                              fmtTimes(speedup)});
            const bool simd = std::string(mode.name) != "scalar";
            emitBoth(JsonLine("encode_micro")
                         .field("field", field.describe())
                         .field("mode", mode.name)
                         .field("kernel_isa",
                                simd ? nerf::kernels::dispatched().isa
                                     : "none")
                         .field("points", count)
                         .field("wall_s", per_pass)
                         .field("msamples_per_s", msps)
                         .field("speedup_vs_scalar", speedup),
                     artifact);
        }
        enc_table.print(std::cout);

        // Measured host-side reuse (Fig. 15 tie-in), two ways: the raw
        // sample streams above in both orders, and the renderer's actual
        // densityBatch stream (depth-major Morton tiles) via the field's
        // reuse-stats hook (single-threaded, as the hook requires).
        for (bool use_morton : {false, true}) {
            core::EncodeReuseReport reuse = core::measureEncodeReuse(
                field, camera, 32, 64 * 64, use_morton);
            double coherent = 0.0;
            for (double c : reuse.coherent_fraction)
                coherent += c;
            coherent /= double(reuse.coherent_fraction.size());
            emitBoth(
                JsonLine("encode_reuse")
                    .field("order", use_morton ? "morton" : "rows")
                    .field("mean_coherent_fraction", coherent)
                    .field("reuse_factor",
                           double(reuse.total_lookups) /
                               double(std::max<uint64_t>(1,
                                                         reuse.total_unique))),
                artifact);
        }
        emitBoth(renderReuseRow(field, *scene), artifact);
    }

    // ---- MLP microbenchmark: the fast NGP density network at 40 points
    // per call and the color network at 8 and 16, the call widths
    // servebench's serve_shared traces (nerf.density_batch_points 40.0,
    // nerf.color_batch_points 7.9), run on the baseline kernel build and
    // on the one the CPU dispatches to.
    {
        struct MlpCase
        {
            const char *net;
            const nerf::Mlp &mlp;
            int points;
        };
        const MlpCase cases[] = {{"density", field.densityMlp(), 40},
                                 {"color", field.colorMlp(), 8},
                                 {"color", field.colorMlp(), 16}};
        const int calls = smoke ? 20 : 2000; // per timed pass
        const int reps = smoke ? 2 : 7;
        Rng rng(0x3170);
        TextTable mtable({"MLP", "points/call", "kernel", "us/call",
                          "ns/point", "speedup"});
        for (const MlpCase &c : cases) {
            const int in_dim = c.mlp.inputDim();
            const int out_dim = c.mlp.outputDim();
            std::vector<float> in(size_t(c.points) * size_t(in_dim));
            for (auto &x : in)
                x = rng.nextGaussian();
            std::vector<float> out(size_t(c.points) * size_t(out_dim));
            std::vector<const nerf::kernels::Variant *> builds{
                &nerf::kernels::baseline()};
            if (&nerf::kernels::dispatched() != builds[0])
                builds.push_back(&nerf::kernels::dispatched());
            double baseline_s = 0.0;
            for (const nerf::kernels::Variant *v : builds) {
                nerf::kernels::ScopedVariant use(*v);
                auto run = [&] {
                    for (int k = 0; k < calls; ++k)
                        c.mlp.forwardBatch(in.data(), c.points, in_dim,
                                           out.data(), out_dim);
                };
                run(); // warm the thread-local lanes
                double per_pass = 1e30;
                for (int r = 0; r < reps; ++r)
                    per_pass = std::min(per_pass, secondsOf(run));
                const double per_call = per_pass / double(calls);
                if (v == builds[0])
                    baseline_s = per_call;
                const double speedup =
                    per_call > 0.0 ? baseline_s / per_call : 1.0;
                mtable.addRow({c.net, std::to_string(c.points), v->isa,
                               fmt(per_call * 1e6, 2),
                               fmt(per_call / c.points * 1e9, 1),
                               fmtTimes(speedup)});
                emitBoth(JsonLine("mlp_micro")
                             .field("field", field.describe())
                             .field("net", c.net)
                             .field("kernel_isa", v->isa)
                             .field("points_per_call", c.points)
                             .field("calls", calls)
                             .field("reps", reps)
                             .field("us_per_call", per_call * 1e6)
                             .field("ns_per_point",
                                    per_call / c.points * 1e9)
                             .field("speedup_vs_baseline", speedup),
                         artifact);
            }
        }
        mtable.print(std::cout);
    }

    // ---- Procedural field microbenchmark: ProceduralField on the two
    // scenes serve_distinct serves, densityBatch at 40 points per call
    // and colorBatch at 8 over its outputs (about the call widths the
    // batched march makes), beside the per-point density() and color()
    // loops they must equal bit for bit. Points are drawn from the box
    // around the scene's primitives, where the march spends its samples.
    {
        const int calls = smoke ? 20 : 2000; // per timed pass
        const int reps = smoke ? 2 : 7;
        TextTable ftable({"field", "call", "points/call", "us/call",
                          "ns/point", "speedup"});
        for (const char *name : {"Lego", "Chair"}) {
            auto fscene = scene::createScene(name);
            nerf::ProceduralField pfield(*fscene);
            const nerf::RadianceField &rf = pfield;
            Vec3 lo(1.0f), hi(0.0f);
            for (const scene::Primitive &prim : fscene->primitives()) {
                lo = vmin(lo, prim.center - prim.params);
                hi = vmax(hi, prim.center + prim.params);
            }
            Rng rng(0x3171);
            std::vector<Vec3> pos(40);
            for (Vec3 &p : pos)
                p = lo + (hi - lo) * rng.nextVec3();
            const Vec3 dir = rng.nextDirection();
            std::vector<nerf::DensityOutput> den(pos.size());
            std::vector<Vec3> rgb(pos.size());
            pfield.densityBatch(pos.data(), int(pos.size()), den.data());

            struct FieldCase
            {
                const char *call;
                int points;
                bool batched;
                std::function<void()> once;
            };
            // Each per-point reference precedes the batch call it checks.
            const FieldCase cases[] = {
                {"density", 40, false,
                 [&] {
                     for (int p = 0; p < 40; ++p)
                         den[size_t(p)] = rf.density(pos[size_t(p)]);
                 }},
                {"densityBatch", 40, true,
                 [&] { rf.densityBatch(pos.data(), 40, den.data()); }},
                {"color", 8, false,
                 [&] {
                     for (int p = 0; p < 8; ++p)
                         rgb[size_t(p)] = rf.color(pos[size_t(p)], dir,
                                                   den[size_t(p)]);
                 }},
                {"colorBatch", 8, true,
                 [&] {
                     rf.colorBatch(pos.data(), dir, den.data(), 8,
                                   rgb.data());
                 }},
            };
            double per_point_s = 0.0;
            for (const FieldCase &c : cases) {
                auto run = [&] {
                    for (int k = 0; k < calls; ++k)
                        c.once();
                };
                run();
                double per_pass = 1e30;
                for (int r = 0; r < reps; ++r)
                    per_pass = std::min(per_pass, secondsOf(run));
                const double per_call = per_pass / double(calls);
                if (!c.batched)
                    per_point_s = per_call;
                const double speedup =
                    per_call > 0.0 ? per_point_s / per_call : 1.0;
                ftable.addRow({pfield.describe(), c.call,
                               std::to_string(c.points),
                               fmt(per_call * 1e6, 3),
                               fmt(per_call / c.points * 1e9, 1),
                               fmtTimes(speedup)});
                emitBoth(JsonLine("field_micro")
                             .field("field", pfield.describe())
                             .field("call", c.call)
                             .field("points_per_call", c.points)
                             .field("calls", calls)
                             .field("reps", reps)
                             .field("us_per_call", per_call * 1e6)
                             .field("ns_per_point",
                                    per_call / c.points * 1e9)
                             .field("speedup_vs_per_point", speedup),
                         artifact);
            }
        }
        ftable.print(std::cout);
    }

    // ---- Batched exp microbenchmark: std::exp per element against
    // expBatch (the build picked for this process) over 64-float chunks
    // in [-30, 30], the width of the analytic field's falloff pass.
    {
        const int calls = smoke ? 20 : 2000; // per timed pass
        const int reps = smoke ? 2 : 7;
        constexpr int kChunk = 64;
        Rng rng(0xE4B);
        std::vector<float> in(kChunk), out(kChunk);
        for (float &x : in)
            x = rng.nextRange(-30.0f, 30.0f);
        TextTable etable({"call", "isa", "elements/call", "ns/element",
                          "speedup"});
        const struct
        {
            const char *call;
            const char *isa;
            std::function<void()> once;
        } cases[] = {
            {"std::exp", "libm",
             [&] {
                 for (int i = 0; i < kChunk; ++i)
                     out[size_t(i)] = std::exp(in[size_t(i)]);
             }},
            {"expBatch", expBatchIsa(),
             [&] { expBatch(in.data(), kChunk, out.data()); }},
        };
        double libm_s = 0.0;
        for (const auto &c : cases) {
            auto run = [&] {
                for (int k = 0; k < calls; ++k)
                    c.once();
            };
            run();
            double per_pass = 1e30;
            for (int r = 0; r < reps; ++r)
                per_pass = std::min(per_pass, secondsOf(run));
            const double per_elem = per_pass / double(calls) / kChunk;
            if (libm_s == 0.0)
                libm_s = per_elem;
            const double speedup = per_elem > 0.0 ? libm_s / per_elem : 1.0;
            etable.addRow({c.call, c.isa, std::to_string(kChunk),
                           fmt(per_elem * 1e9, 2), fmtTimes(speedup)});
            emitBoth(JsonLine("exp_micro")
                         .field("call", c.call)
                         .field("isa", c.isa)
                         .field("elements_per_call", kChunk)
                         .field("calls", calls)
                         .field("reps", reps)
                         .field("ns_per_element", per_elem * 1e9)
                         .field("speedup_vs_libm", speedup),
                     artifact);
        }
        etable.print(std::cout);
    }

    // ---- Morton reuse at paper-scale tables: the default bench field
    // runs T=2^15 (scaled down); at the paper's T=2^19 most levels stop
    // aliasing and per-lookup cache locality -- not table collisions --
    // carries the Morton win. Re-measure the encode kernel and the
    // rendered reuse factor at 2^19 so the artifact tracks both scales.
    {
        nerf::NgpModelConfig big = nerf::NgpModelConfig::fast();
        big.grid.log2_table_size = 19;
        nerf::InstantNgpField big_field(big, 1234);
        const nerf::HashGrid &grid = big_field.grid();
        const int fd = grid.featureDim();
        nerf::Camera camera = nerf::cameraForScene(scene->info(), 64, 64);
        std::vector<Vec3> rows = frameSamples(camera, 32, /*morton=*/false);
        std::vector<Vec3> morton = frameSamples(camera, 32, /*morton=*/true);
        const int count = int(rows.size());
        std::vector<float> feat(size_t(count) * size_t(fd));
        const int reps = smoke ? 2 : 5;

        TextTable btable({"T=2^19 encode", "points", "wall (s)",
                          "Msamples/s", "morton speedup"});
        double rows_s = 0.0;
        for (const bool use_morton : {false, true}) {
            const std::vector<Vec3> &pts = use_morton ? morton : rows;
            auto run = [&] {
                grid.encodeBatch(pts.data(), count, feat.data(), fd);
            };
            run();
            double per_pass = 1e30;
            for (int r = 0; r < reps; ++r)
                per_pass = std::min(per_pass, secondsOf(run));
            if (!use_morton)
                rows_s = per_pass;
            const double msps = double(count) / per_pass / 1e6;
            const double speedup =
                per_pass > 0.0 ? rows_s / per_pass : 1.0;
            btable.addRow({use_morton ? "simd+morton" : "simd",
                           std::to_string(count), fmt(per_pass, 4),
                           fmt(msps, 2), fmtTimes(speedup)});
            emitBoth(JsonLine("encode_micro")
                         .field("field", big_field.describe())
                         .field("log2_table_size", 19)
                         .field("mode",
                                use_morton ? "simd+morton" : "simd")
                         .field("kernel_isa",
                                nerf::kernels::dispatched().isa)
                         .field("points", count)
                         .field("wall_s", per_pass)
                         .field("msamples_per_s", msps)
                         .field("speedup_vs_rows", speedup),
                     artifact);
        }
        btable.print(std::cout);

        emitBoth(renderReuseRow(big_field, *scene)
                     .field("log2_table_size", 19),
                 artifact);
    }

    // ---- multi-frame pipelining: a camera path served through the
    // streaming FrameEngine vs. blocking sequential render() calls,
    // same thread count, frames verified bit-identical. Sequential
    // frames stall their workers at every stage barrier (probe join,
    // serial planning, tile-straggler tails, serial finalize);
    // pipelining covers those gaps with neighboring frames' stages.
    {
        const int pf = smoke ? 8 : 16;          // frames on the path
        const int pw = smoke ? 32 : 48;
        const int pns = smoke ? 32 : 96;
        const int threads =
            std::max(2, std::min(4, core::resolveThreadCount(0)));
        core::RenderConfig pcfg = core::RenderConfig::asdr(pw, pw, pns);
        pcfg.num_threads = threads;
        auto path = nerf::orbitCameraPath(scene->info(), pw, pw, pf,
                                          smoke ? 0.08f : 0.04f);

        // Sequential baseline: one renderer, blocking render() per
        // frame (its internal engine persists, so no thread churn --
        // this measures pipelining, not pool construction).
        core::AsdrRenderer seq_renderer(field, pcfg);
        seq_renderer.render(path[0]); // warm pool + workspaces
        std::vector<Image> seq_frames;
        seq_frames.reserve(path.size());
        const double seq_s = secondsOf([&] {
            for (const auto &cam : path)
                seq_frames.push_back(seq_renderer.render(cam));
        });
        const double seq_fps = double(pf) / seq_s;

        TextTable ptable({"mode", "frames", "threads", "wall (s)",
                          "frames/s", "speedup", "identical"});
        ptable.addRow({"sequential render()", std::to_string(pf),
                       std::to_string(threads), fmt(seq_s, 3),
                       fmt(seq_fps, 2), fmtTimes(1.0), "ref"});

        for (int in_flight : {2, 4}) {
            engine::EngineConfig ec;
            ec.num_threads = threads;
            ec.max_frames_in_flight = in_flight;
            engine::FrameEngine eng(ec);
            { // warm the engine's pool and thread-local workspaces
                engine::FrameRequest warm(path[0]);
                warm.renderer = &seq_renderer;
                eng.submit(std::move(warm)).get();
            }
            std::vector<Image> pipe_frames(path.size());
            const double pipe_s = secondsOf([&] {
                std::vector<std::future<engine::Frame>> futs;
                futs.reserve(path.size());
                for (const auto &cam : path) {
                    engine::FrameRequest req(cam);
                    req.renderer = &seq_renderer;
                    futs.push_back(eng.submit(std::move(req)));
                }
                for (size_t f = 0; f < futs.size(); ++f)
                    pipe_frames[f] = futs[f].get().image;
            });
            const double pipe_fps = double(pf) / pipe_s;

            bool identical = true;
            for (size_t f = 0; f < pipe_frames.size(); ++f)
                if (pipe_frames[f].data() != seq_frames[f].data())
                    identical = false;
            if (!identical)
                std::cerr << "WARNING: pipelined frames diverged from "
                             "sequential render()\n";

            ptable.addRow({"pipelined x" + std::to_string(in_flight),
                           std::to_string(pf), std::to_string(threads),
                           fmt(pipe_s, 3), fmt(pipe_fps, 2),
                           fmtTimes(pipe_fps / seq_fps),
                           identical ? "yes" : "NO"});
            emitBoth(JsonLine("frames_pipelined")
                         .field("scene", "Lego")
                         .field("field", field.describe())
                         .field("width", pw)
                         .field("height", pw)
                         .field("samples_per_ray", pns)
                         .field("frames", pf)
                         .field("threads", threads)
                         .field("max_frames_in_flight", in_flight)
                         .field("seq_wall_s", seq_s)
                         .field("seq_frames_per_s", seq_fps)
                         .field("wall_s", pipe_s)
                         .field("frames_per_s", pipe_fps)
                         .field("speedup_vs_sequential",
                                pipe_fps / seq_fps)
                         .field("identical", identical ? 1 : 0),
                     artifact);
        }
        ptable.print(std::cout);
    }

    // ---- quality ladder: a closed-loop workload (N viewers x M scenes
    // x mixed QoS) whose interactive burst exceeds the class backlog,
    // with the brownout controller + demote-before-drop stretch off vs.
    // on. Off, the interactive burst sheds frames (drop-oldest); on, the
    // would-be-dropped frames are served degraded instead, so the shed
    // rate collapses while the degraded fraction and mean rung report
    // what the graceful path cost in fidelity.
    {
        const int qw = smoke ? 16 : 32;     // frame edge
        const int qns = smoke ? 24 : 48;    // samples per ray
        const int qframes = smoke ? 8 : 16; // submissions per viewer
        core::RenderConfig qcfg_render =
            core::RenderConfig::asdr(qw, qw, qns);
        qcfg_render.probe_stride = 4;

        TextTable qtable({"ladder", "class", "submitted", "served",
                          "dropped", "shed rate", "degraded", "mean rung",
                          "p99 (ms)"});
        for (int ladder_on : {0, 1}) {
            server::SceneRegistry registry;
            registry.addProcedural("Lego", "Lego",
                                   nerf::NgpModelConfig::fast(),
                                   qcfg_render);
            registry.addProcedural("Chair", "Chair",
                                   nerf::NgpModelConfig::fast(),
                                   qcfg_render);
            server::ServerConfig scfg;
            scfg.threads_per_shard =
                2 * std::max(1, std::min(2, core::resolveThreadCount(0)));
            scfg.frames_in_flight_per_shard = 4;
            if (ladder_on) {
                scfg.ladder.enabled = true;
                // Stretch the interactive backlog to cover the burst:
                // overflow frames admit at the ladder floor, not drop.
                scfg.qos.cls[int(server::QosClass::Interactive)]
                    .degraded_backlog = 4;
            }
            server::FrameServer srv(registry, scfg);

            server::WorkloadSpec spec;
            spec.scenes = {"Lego", "Chair"};
            spec.clients[int(server::QosClass::Interactive)] =
                smoke ? 2 : 3;
            spec.clients[int(server::QosClass::Standard)] = smoke ? 1 : 2;
            spec.clients[int(server::QosClass::Batch)] = smoke ? 1 : 2;
            spec.frames_per_client = qframes;
            spec.width = qw;
            spec.height = qw;
            spec.burst = 6; // above the interactive backlog of 4
            server::WorkloadReport report =
                server::runWorkload(srv, registry, spec);

            for (int c = 0; c < server::kQosClasses; ++c) {
                const server::QosClassStats &s = report.stats.cls[c];
                const char *cls =
                    server::qosClassName(server::QosClass(c));
                qtable.addRow({ladder_on ? "on" : "off", cls,
                               std::to_string(s.submitted),
                               std::to_string(s.served),
                               std::to_string(s.dropped),
                               fmt(s.dropRate(), 3),
                               fmt(report.degraded_fraction[c], 3),
                               fmt(report.mean_rung[c], 2),
                               fmt(s.p99_ms, 2)});
                emitBoth(JsonLine("quality_ladder")
                             .field("ladder", ladder_on ? "on" : "off")
                             .field("qos", cls)
                             .field("viewers", int(report.viewers))
                             .field("frames_per_viewer", qframes)
                             .field("burst", spec.burst)
                             .field("width", qw)
                             .field("samples_per_ray", qns)
                             .field("submitted", int(s.submitted))
                             .field("served", int(s.served))
                             .field("dropped", int(s.dropped))
                             .field("shed_rate", s.dropRate())
                             .field("degraded_fraction",
                                    report.degraded_fraction[c])
                             .field("mean_rung", report.mean_rung[c])
                             .field("p50_ms", s.p50_ms)
                             .field("p99_ms", s.p99_ms)
                             .field("wall_s", report.wall_s)
                             .field("served_frames_per_s",
                                    report.frames_per_s),
                         artifact);
            }
            qtable.addRule();
        }
        qtable.print(std::cout);
    }

    // ---- fault tolerance: (a) time-to-resume after a connection kill
    // (the reconnect-and-resume path end to end), and (b) what the
    // per-scene circuit breaker buys a healthy tenant sharing the
    // server with a poisoned one (p99 with the breaker open vs. the
    // bad scene burning pipeline slots on every doomed render).
    {
        const int fw = smoke ? 16 : 32;  // frame edge
        const int fns = smoke ? 24 : 48; // samples per ray
        core::RenderConfig fcfg = core::RenderConfig::asdr(fw, fw, fns);
        fcfg.probe_stride = 4;

        // (a) reconnect-and-resume over the wire: stream, kill the
        // connection, measure redial+resume and the first frame after.
        {
            server::SceneRegistry registry;
            registry.addProcedural("Lego", "Lego",
                                   nerf::NgpModelConfig::fast(), fcfg);
            server::ServerConfig scfg;
            scfg.threads_per_shard =
                std::max(1, std::min(2, core::resolveThreadCount(0)));
            server::FrameServer srv(registry, scfg);
            net::ServiceConfig ncfg;
            ncfg.resume_grace_s = 10.0;
            net::RenderService service(srv, ncfg);
            std::string nerr;
            if (!service.start(&nerr)) {
                std::cerr << "fault bench: service start failed: " << nerr
                          << "\n";
                return 1;
            }
            const scene::SceneInfo &info = registry.find("Lego")->info;
            auto spec_at = [&](float angle) {
                net::CameraSpec cs;
                cs.pos = nerf::orbitPosition(info, angle);
                cs.look_at = info.look_at;
                cs.fov_deg = info.fov_deg;
                cs.width = uint16_t(fw);
                cs.height = uint16_t(fw);
                return cs;
            };

            const int reps = smoke ? 3 : 5;
            double resume_sum = 0.0, resume_min = 1e30;
            double first_sum = 0.0;
            for (int rep = 0; rep < reps; ++rep) {
                net::Client client;
                std::string err;
                if (!client.connect("127.0.0.1", service.port(), &err)) {
                    std::cerr << "fault bench: " << err << "\n";
                    return 1;
                }
                const uint64_t session = client.openSession(
                    "Lego", server::QosClass::Standard,
                    net::FrameEncoding::DeltaPrev, &err);
                net::ClientFrame frame;
                for (int f = 0; f < 3; ++f) {
                    client.submitFrame(session, spec_at(0.08f * float(f)),
                                       &err);
                    client.nextFrame(frame, &err);
                }
                client.dropConnection();
                const double resume_s =
                    secondsOf([&] { client.reconnect(&err); });
                const double first_s = secondsOf([&] {
                    client.submitFrame(session, spec_at(0.24f), &err);
                    client.nextFrame(frame, &err);
                });
                client.closeSession(session, &err);
                resume_sum += resume_s;
                resume_min = std::min(resume_min, resume_s);
                first_sum += first_s;
            }
            const double resume_ms = resume_sum / double(reps) * 1e3;
            const double first_ms = first_sum / double(reps) * 1e3;
            std::cout << "reconnect-and-resume: " << fmt(resume_ms, 2)
                      << " ms to resume (min " << fmt(resume_min * 1e3, 2)
                      << "), " << fmt(first_ms, 2)
                      << " ms to the first post-resume frame ("
                      << service.counters().sessions_resumed
                      << " resumes)\n";
            emitBoth(JsonLine("fault_recovery")
                         .field("metric", "resume")
                         .field("width", fw)
                         .field("samples_per_ray", fns)
                         .field("reps", reps)
                         .field("time_to_resume_ms", resume_ms)
                         .field("time_to_resume_min_ms", resume_min * 1e3)
                         .field("first_frame_after_resume_ms", first_ms),
                     artifact);
        }

        // (b) breaker off vs. on: one healthy viewer and one poisoned
        // viewer share the server; the breaker quarantines the poisoned
        // scene after 3 failures, so its frames fail fast at admission
        // instead of occupying pipeline slots.
        TextTable ftable({"breaker", "good p99 (ms)", "good served",
                          "bad failed", "fast fails", "wall (s)"});
        for (int breaker_on : {0, 1}) {
            server::SceneRegistry registry;
            registry.addProcedural("good", "Lego",
                                   nerf::NgpModelConfig::fast(), fcfg);
            auto bad_scene = scene::createScene("Chair");
            PoisonField bad(*bad_scene, nerf::NgpModelConfig::fast());
            registry.addShared("bad", bad, fcfg, bad_scene->info());

            server::ServerConfig scfg;
            scfg.threads_per_shard =
                std::max(1, std::min(2, core::resolveThreadCount(0)));
            scfg.frames_in_flight_per_shard = 2;
            if (breaker_on) {
                scfg.breaker.failure_threshold = 3;
                scfg.breaker.open_s = 30.0; // stays open for the run
            }
            server::FrameServer srv(registry, scfg);

            server::WorkloadSpec spec;
            spec.scenes = {"good", "bad"};
            spec.clients[int(server::QosClass::Interactive)] = 0;
            spec.clients[int(server::QosClass::Standard)] = 2;
            spec.clients[int(server::QosClass::Batch)] = 0;
            spec.frames_per_client = smoke ? 10 : 40;
            spec.width = fw;
            spec.height = fw;
            spec.burst = 2;
            server::WorkloadReport report =
                server::runWorkload(srv, registry, spec);

            // Only served (good-scene) frames carry latency samples,
            // so the class p99 is the healthy tenant's.
            const server::QosClassStats &s =
                report.stats.cls[int(server::QosClass::Standard)];
            uint64_t fast_fails = 0, opens = 0;
            for (const auto &sc : report.stats.scenes)
                if (sc.name == "bad") {
                    fast_fails = sc.breaker_fast_fails;
                    opens = sc.breaker_opens;
                }
            ftable.addRow({breaker_on ? "on" : "off", fmt(s.p99_ms, 2),
                           std::to_string(s.served),
                           std::to_string(s.failed),
                           std::to_string(fast_fails),
                           fmt(report.wall_s, 3)});
            emitBoth(JsonLine("fault_recovery")
                         .field("metric", "breaker")
                         .field("breaker", breaker_on ? "on" : "off")
                         .field("width", fw)
                         .field("samples_per_ray", fns)
                         .field("frames_per_viewer",
                                spec.frames_per_client)
                         .field("good_p99_ms", s.p99_ms)
                         .field("good_p50_ms", s.p50_ms)
                         .field("good_served", int(s.served))
                         .field("bad_failed", int(s.failed))
                         .field("breaker_opens", double(opens))
                         .field("breaker_fast_fails", double(fast_fails))
                         .field("wall_s", report.wall_s),
                     artifact);
        }
        ftable.print(std::cout);
    }
    return 0;
}
