/**
 * @file
 * Streaming frame serving: drive a camera path through the pipelined
 * FrameEngine the way a viewer session would -- submit every frame of
 * the path up front, keep `max_frames_in_flight` frames executing
 * concurrently over one persistent worker pool, and consume finished
 * frames through the engine's non-blocking poll/drain API (the serving
 * loop never blocks in a future get()). Compares against blocking
 * sequential render() calls (bit-identical frames).
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/frame_engine.hpp"
#include "nerf/procedural_field.hpp"
#include "scene/scene_library.hpp"
#include "util/table.hpp"

using namespace asdr;

namespace {

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

void
usage(const char *argv0)
{
    std::cout << "Usage: " << argv0
              << " [scene] [options]\n"
                 "Stream a camera path through the pipelined FrameEngine "
                 "(async consumption)\nand compare against blocking "
                 "sequential render() calls.\n\n"
                 "  [scene]          scene name (default Lego)\n"
                 "  --frames <n>     camera-path length (default 12)\n"
                 "  --width <px>     frame edge (default 48)\n"
                 "  --samples <n>    samples per ray (default 96)\n"
                 "  --threads <n>    engine workers (default: auto)\n"
                 "  --in-flight <n>  frames pipelined concurrently "
                 "(default 4)\n"
                 "  --help           this message\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scene_name = "Lego";
    int frames = 12;
    int width = 48;
    int samples = 96;
    int threads = 0;
    int in_flight = 4;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&] { return std::atoi(argv[++i]); };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--frames" && i + 1 < argc)
            frames = next();
        else if (arg == "--width" && i + 1 < argc)
            width = next();
        else if (arg == "--samples" && i + 1 < argc)
            samples = next();
        else if (arg == "--threads" && i + 1 < argc)
            threads = next();
        else if (arg == "--in-flight" && i + 1 < argc)
            in_flight = next();
        else if (arg[0] != '-')
            scene_name = arg;
        else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 1;
        }
    }

    auto scene = scene::createScene(scene_name);
    nerf::ProceduralField field(*scene, nerf::NgpModelConfig::fast());
    core::RenderConfig cfg = core::RenderConfig::asdr(width, width, samples);
    cfg.num_threads = threads;
    auto path =
        nerf::orbitCameraPath(scene->info(), width, width, frames, 0.05f);

    std::cout << "Serving a " << frames << "-frame camera path of '"
              << scene_name << "' at " << width << "x" << width << "x"
              << samples << "\n\n";

    // ---- sequential baseline: blocking render() per frame ----
    core::AsdrRenderer renderer(field, cfg);
    renderer.render(path[0]); // warm pool + workspaces
    std::vector<Image> seq;
    auto t0 = std::chrono::steady_clock::now();
    for (const auto &cam : path)
        seq.push_back(renderer.render(cam));
    const double seq_s = seconds(t0);

    // ---- pipelined: all frames queued at once, up to `in_flight`
    // executing; the consumer loop drains outcomes as they complete
    // (poll/drain API -- no future get() anywhere) ----
    engine::EngineConfig ec;
    ec.num_threads = threads;
    ec.max_frames_in_flight = in_flight;
    engine::FrameEngine eng(ec);
    {
        engine::FrameRequest warm(path[0]);
        warm.field = &field;
        warm.config = cfg;
        warm.collect = true;
        eng.submitAsync(std::move(warm));
        eng.drain();
        engine::FrameOutcome unused;
        eng.poll(unused);
    }
    std::vector<engine::Frame> served(path.size());
    t0 = std::chrono::steady_clock::now();
    {
        std::map<uint64_t, size_t> id_to_frame;
        for (size_t f = 0; f < path.size(); ++f) {
            engine::FrameRequest req(path[f]);
            req.field = &field;
            req.config = cfg;
            req.collect = true;
            id_to_frame[eng.submitAsync(std::move(req))] = f;
        }
        // The serving loop: non-blocking poll, then whatever other
        // work the server has (here: yield). Outcomes arrive in
        // completion order; the ids returned at submission map them
        // back to the path.
        size_t got = 0;
        std::vector<engine::FrameOutcome> batch;
        while (got < path.size()) {
            batch.clear();
            if (eng.drainCompleted(batch) == 0) {
                std::this_thread::yield();
                continue;
            }
            for (auto &out : batch) {
                if (out.error)
                    std::rethrow_exception(out.error);
                served[id_to_frame.at(out.frame.id)] =
                    std::move(out.frame);
                ++got;
            }
        }
    }
    const double pipe_s = seconds(t0);

    bool identical = true;
    for (size_t f = 0; f < served.size(); ++f)
        if (served[f].image.data() != seq[f].data())
            identical = false;

    TextTable table({"mode", "wall (s)", "frames/s", "speedup"});
    table.addRow({"sequential render()", fmt(seq_s, 3),
                  fmt(double(frames) / seq_s, 2), fmtTimes(1.0)});
    table.addRow({"pipelined x" + std::to_string(in_flight), fmt(pipe_s, 3),
                  fmt(double(frames) / pipe_s, 2),
                  fmtTimes(seq_s / pipe_s)});
    table.print(std::cout);
    std::cout << "frames bit-identical to sequential: "
              << (identical ? "yes" : "NO") << "\n";

    return 0;
}
