/**
 * @file
 * Scene renderer CLI: pick any Table-1 scene and render it through the
 * configurable ASDR pipeline, writing the image, the ground truth and
 * the sample-budget heatmap, and reporting quality + workload.
 *
 * Usage:
 *   render_scene [scene] [options]
 *     --scale <f>     resolution scale vs the paper frame (default from
 *                     quality preset)
 *     --samples <n>   samples per ray (default 128)
 *     --no-as         disable adaptive sampling
 *     --delta <f>     adaptive-sampling threshold (default 1/2048)
 *     --stride <d>    probe stride d (default 5)
 *     --no-ra         disable the rendering approximation
 *     --group <n>     approximation group size (default 2)
 *     --no-et         disable early termination
 *     --out <prefix>  output file prefix (default "render")
 */

#include <cstring>
#include <iostream>
#include <string>

#include "core/field_cache.hpp"
#include "core/ground_truth.hpp"
#include "core/renderer.hpp"
#include "image/metrics.hpp"
#include "scene/scene_library.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace asdr;

int
main(int argc, char **argv)
{
    std::string scene_name = "Lego";
    std::string prefix = "render";
    float scale = -1.0f;
    core::RenderConfig cfg = core::RenderConfig::asdr(64, 64, 128);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--scale")
            scale = std::stof(next());
        else if (arg == "--samples")
            cfg.samples_per_ray = std::stoi(next());
        else if (arg == "--no-as")
            cfg.adaptive_sampling = false;
        else if (arg == "--delta")
            cfg.delta = std::stof(next());
        else if (arg == "--stride")
            cfg.probe_stride = std::stoi(next());
        else if (arg == "--no-ra")
            cfg.color_approx = false;
        else if (arg == "--group")
            cfg.approx_group = std::stoi(next());
        else if (arg == "--no-et")
            cfg.early_termination = false;
        else if (arg == "--out")
            prefix = next();
        else if (arg.rfind("--", 0) == 0)
            fatal("unknown option ", arg, " (see the file header)");
        else
            scene_name = arg;
    }

    auto preset = core::ExperimentPreset::quality();
    auto scene = scene::createScene(scene_name);
    int w, h;
    if (scale > 0.0f)
        nerf::scaledResolution(scene->info(), scale, w, h);
    else
        preset.resolutionFor(scene->info(), w, h);
    cfg.width = w;
    cfg.height = h;

    inform("rendering ", scene_name, " at ", w, "x", h, " with ",
           cfg.samples_per_ray, " samples/ray");
    auto field = core::fittedField(scene_name, preset);
    nerf::Camera camera = nerf::cameraForScene(scene->info(), w, h);

    Image gt = core::renderGroundTruth(*scene, camera);
    core::RenderStats stats;
    Image img = core::AsdrRenderer(*field, cfg).render(camera, &stats);

    TextTable table({"metric", "value"});
    table.addRow({"PSNR vs ground truth", fmt(psnr(img, gt), 2) + " dB"});
    table.addRow({"SSIM", fmt(ssim(img, gt), 4)});
    table.addRow({"avg points/pixel (marched)",
                  fmt(stats.avg_actual_points_per_pixel, 1)});
    table.addRow({"avg budget/pixel", fmt(stats.avg_points_per_pixel, 1)});
    table.addRow({"density execs",
                  std::to_string(stats.profile.density_execs)});
    table.addRow({"color execs",
                  std::to_string(stats.profile.color_execs)});
    table.addRow({"interpolated colors",
                  std::to_string(stats.profile.approx_colors)});
    table.addRow({"table lookups", std::to_string(stats.profile.lookups)});
    table.addRow({"render wall time", fmt(stats.wall_seconds, 2) + " s"});
    table.print(std::cout);

    img.writePpm(prefix + ".ppm");
    gt.writePpm(prefix + "_gt.ppm");
    if (cfg.adaptive_sampling) {
        heatmap(stats.sample_count_map, w, h, 0.0f,
                float(cfg.samples_per_ray))
            .writePpm(prefix + "_budget.ppm");
        std::cout << "\nwrote " << prefix << ".ppm, " << prefix
                  << "_gt.ppm, " << prefix << "_budget.ppm\n";
    } else {
        std::cout << "\nwrote " << prefix << ".ppm and " << prefix
                  << "_gt.ppm\n";
    }
    return 0;
}
