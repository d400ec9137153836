/**
 * @file
 * Reproduces Fig. 24 (software-level optimizations without hardware
 * acceleration): speedup of adaptive sampling (AS) and AS + rendering
 * approximation (AS+RA) over the original implementation, across all
 * ten scenes. Two estimates are reported: the GPU roofline priced on
 * the measured workloads (the paper's CUDA-on-RTX-3070 setting) and
 * the *actually measured* wall-clock ratio of our CPU renderer.
 * Paper averages: AS 1.84x, AS+RA 2.75x.
 */

#include <iostream>

#include "bench/harness.hpp"

using namespace asdr;
using namespace asdr::bench;

int
main()
{
    benchHeader(
        "Fig. 24: GPU performance of software-level optimizations",
        "Paper averages: AS 1.84x, AS+RA 2.75x over the original GPU "
        "implementation (Mic peaks at 2.21x/3.30x).");

    TextTable table({"scene", "original", "AS (model)", "AS+RA (model)",
                     "AS+RA (measured wall)"});
    std::vector<double> as_model, asra_model, asra_wall;
    for (const auto &name : scene::allSceneNames()) {
        auto scene = scene::createScene(name);
        nerf::ProceduralField field(*scene, platformModel(false));
        core::ExperimentPreset preset = core::ExperimentPreset::perf();
        int w, h;
        preset.resolutionFor(scene->info(), w, h);
        nerf::Camera camera = nerf::cameraForScene(scene->info(), w, h);
        baseline::GpuModel gpu(baseline::GpuSpec::rtx3070());
        nerf::FieldCosts costs = field.costs();

        const int ns = preset.samples_per_ray;
        core::RenderConfig original =
            core::RenderConfig::baseline(w, h, ns);
        original.early_termination = true;
        core::RenderConfig as = original;
        as.adaptive_sampling = true;
        as.delta = 1.0f / 2048.0f;
        core::RenderConfig asra = as;
        asra.color_approx = true;
        asra.approx_group = 2;

        // Each renderer draws the frame once untimed, so the measured
        // render excludes its first-frame occupancy-grid build.
        core::RenderStats s0, s1, s2;
        auto warmRender = [&](const core::RenderConfig &cfg,
                              core::RenderStats &stats) {
            const core::AsdrRenderer renderer(field, cfg);
            renderer.render(camera);
            renderer.render(camera, &stats);
        };
        warmRender(original, s0);
        warmRender(as, s1);
        warmRender(asra, s2);

        double t0 = gpu.run(s0.profile, costs).seconds;
        double t1 = gpu.run(s1.profile, costs).seconds;
        double t2 = gpu.run(s2.profile, costs).seconds;
        as_model.push_back(t0 / t1);
        asra_model.push_back(t0 / t2);
        asra_wall.push_back(s0.wall_seconds / s2.wall_seconds);
        table.addRow({name, "1x", fmtTimes(t0 / t1), fmtTimes(t0 / t2),
                      fmtTimes(s0.wall_seconds / s2.wall_seconds)});
    }
    table.addRule();
    table.addRow({"Average", "1x", fmtTimes(geomean(as_model)),
                  fmtTimes(geomean(asra_model)),
                  fmtTimes(geomean(asra_wall))});
    table.print(std::cout);
    return 0;
}
