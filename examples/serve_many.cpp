/**
 * @file
 * Multi-tenant serving demo: a SceneRegistry of shared fields, a
 * FrameServer whose one FrameEngine renders every viewer's frames, and
 * a closed-loop workload of N viewers orbiting M scenes at mixed QoS --
 * every frame delivered through the async callback path (no blocking
 * future gets anywhere). Prints per-class served/dropped counts and
 * exact (nearest-rank) latency percentiles of the served frames, then
 * the flight recorder's JSON (the slow, failed, expired and shed frames
 * it retained) and the server's Prometheus text exposition, the scrape
 * a dashboard would ingest.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "nerf/ngp_field.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"
#include "server/workload.hpp"
#include "util/table.hpp"

using namespace asdr;

namespace {

void
usage(const char *argv0)
{
    std::cout
        << "Usage: " << argv0 << " [options]\n"
           "Serve a closed-loop multi-tenant workload (N viewers x M\n"
           "scenes x mixed QoS) through one FrameServer.\n\n"
           "  --scenes <n>        registry scenes to serve (default 2)\n"
           "  --interactive <n>   interactive viewers (default 3)\n"
           "  --standard <n>      standard viewers (default 2)\n"
           "  --batch <n>         batch viewers (default 2)\n"
           "  --frames <n>        submissions per viewer (default 8)\n"
           "  --width <px>        frame edge (default 32)\n"
           "  --samples <n>       samples per ray (default 48)\n"
           "  --threads <n>       render workers (default 2)\n"
           "  --in-flight <n>     pipeline slots (default 2)\n"
           "  --burst <n>         outstanding frames per viewer "
           "(default 2;\n"
           "                      above the class backlog forces drops)\n"
           "  --ladder            enable the quality ladder: brownout\n"
           "                      controller + interactive stretch slots\n"
           "                      (degrade under burst instead of drop)\n"
           "  --slow-ms <n>       slow-frame flight recorder threshold,\n"
           "                      ms: frames over it (or failed/expired/\n"
           "                      shed) are retained in the recorder's\n"
           "                      JSON with their render's stage times;\n"
           "                      each slow render is dumped once\n"
           "  --metrics-out <f>   write the server's Prometheus text\n"
           "                      exposition to <f> instead of stdout\n"
           "                      (default -, stdout)\n"
           "  --slo-p99-ms <n>    per-class latency SLO: frames over\n"
           "                      <n> ms burn the 1% latency budget;\n"
           "                      sustained burn over both windows\n"
           "                      raises the breach gauge; each frame\n"
           "                      over <n> lands in the flight recorder\n"
           "  --slo-errors <f>    availability SLO: tolerated error\n"
           "                      fraction (failed/expired/shed), e.g.\n"
           "                      0.01\n"
           "  --slo-windows <f,s> fast,slow burn windows in seconds\n"
           "                      (default 60,3600)\n"
           "  --help              this message\n"
           "Set ASDR_TRACE_OUT=<file> to record stage spans and write a\n"
           "Chrome/Perfetto trace_event JSON file at exit (open at\n"
           "ui.perfetto.dev).\n";
}

/** Nearest-rank percentile `q` in (0, 1] of `seconds`, in ms; 0 when
 *  empty. */
double
percentileMs(std::vector<double> seconds, double q)
{
    if (seconds.empty())
        return 0.0;
    std::sort(seconds.begin(), seconds.end());
    const size_t rank = size_t(std::ceil(q * double(seconds.size())));
    return seconds[std::max<size_t>(rank, 1) - 1] * 1e3;
}

} // namespace

int
main(int argc, char **argv)
{
    int scenes = 2, interactive = 3, standard = 2, batch = 2;
    int frames = 8, width = 32, samples = 48;
    int threads = 2, in_flight = 2, burst = 2;
    bool ladder = false;
    std::string metrics_out = "-";
    double slow_ms = 0.0;
    double slo_p99_ms = 0.0, slo_errors = 0.0;
    double slo_fast_s = 60.0, slo_slow_s = 3600.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&] { return std::atoi(argv[++i]); };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--scenes" && i + 1 < argc)
            scenes = next();
        else if (arg == "--interactive" && i + 1 < argc)
            interactive = next();
        else if (arg == "--standard" && i + 1 < argc)
            standard = next();
        else if (arg == "--batch" && i + 1 < argc)
            batch = next();
        else if (arg == "--frames" && i + 1 < argc)
            frames = next();
        else if (arg == "--width" && i + 1 < argc)
            width = next();
        else if (arg == "--samples" && i + 1 < argc)
            samples = next();
        else if (arg == "--threads" && i + 1 < argc)
            threads = next();
        else if (arg == "--in-flight" && i + 1 < argc)
            in_flight = next();
        else if (arg == "--burst" && i + 1 < argc)
            burst = next();
        else if (arg == "--ladder")
            ladder = true;
        else if (arg == "--slow-ms" && i + 1 < argc)
            slow_ms = std::atof(argv[++i]);
        else if (arg == "--metrics-out" && i + 1 < argc)
            metrics_out = argv[++i];
        else if (arg == "--slo-p99-ms" && i + 1 < argc)
            slo_p99_ms = std::atof(argv[++i]);
        else if (arg == "--slo-errors" && i + 1 < argc)
            slo_errors = std::atof(argv[++i]);
        else if (arg == "--slo-windows" && i + 1 < argc) {
            const std::string w = argv[++i];
            const size_t comma = w.find(',');
            slo_fast_s = std::atof(w.c_str());
            if (comma != std::string::npos)
                slo_slow_s = std::atof(w.c_str() + comma + 1);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 1;
        }
    }

    // ---- registry: each scene's field loaded once, shared by every
    // viewer of that scene ----
    const char *library[] = {"Lego", "Chair", "Hotdog", "Ficus", "Mic",
                             "Ship"};
    const int library_n = int(sizeof(library) / sizeof(library[0]));
    server::SceneRegistry registry;
    server::WorkloadSpec spec;
    for (int s = 0; s < scenes; ++s) {
        const std::string name = library[s % library_n];
        core::RenderConfig cfg =
            core::RenderConfig::asdr(width, width, samples);
        cfg.probe_stride = 4;
        if (registry.addProcedural(name, name, nerf::NgpModelConfig::fast(),
                                   cfg))
            spec.scenes.push_back(name);
    }

    spec.clients[int(server::QosClass::Interactive)] = interactive;
    spec.clients[int(server::QosClass::Standard)] = standard;
    spec.clients[int(server::QosClass::Batch)] = batch;
    spec.frames_per_client = frames;
    spec.width = width;
    spec.height = width;
    spec.burst = burst;

    server::ServerConfig scfg;
    scfg.threads_per_shard = threads;
    scfg.frames_in_flight_per_shard = in_flight;
    if (ladder) {
        scfg.ladder.enabled = true;
        // Let the interactive class stretch past its backlog at the
        // ladder floor instead of dropping its oldest pose.
        scfg.qos.cls[int(server::QosClass::Interactive)].degraded_backlog =
            2 * burst;
    }
    scfg.slow_frame_ms = slow_ms;
    if (slo_p99_ms > 0.0 || slo_errors > 0.0) {
        for (int c = 0; c < server::kQosClasses; ++c) {
            scfg.slo.cls[c].target_p99_ms = slo_p99_ms;
            scfg.slo.cls[c].max_error_fraction = slo_errors;
        }
        scfg.slo.fast_window_s = slo_fast_s;
        scfg.slo.slow_window_s = slo_slow_s;
    }
    const int viewers = interactive + standard + batch;
    std::cout << "Serving " << viewers << " viewers over "
              << spec.scenes.size() << " scenes on " << threads
              << " worker(s) and " << in_flight << " pipeline slot(s), "
              << frames << " frames per viewer at " << width << "x"
              << width << "x" << samples << ", burst " << burst << "\n\n";

    server::FrameServer srv(registry, scfg);
    server::WorkloadReport report = server::runWorkload(srv, registry, spec);

    TextTable table({"class", "submitted", "served", "dropped", "failed",
                     "p50 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)",
                     "queue (ms)"});
    for (int c = 0; c < server::kQosClasses; ++c) {
        const server::QosClassStats &s = report.stats.cls[c];
        const std::vector<double> &lat = report.latency_s[c];
        table.addRow({server::qosClassName(server::QosClass(c)),
                      std::to_string(s.submitted), std::to_string(s.served),
                      std::to_string(s.dropped), std::to_string(s.failed),
                      fmt(percentileMs(lat, 0.50), 2),
                      fmt(percentileMs(lat, 0.95), 2),
                      fmt(percentileMs(lat, 0.99), 2),
                      fmt(percentileMs(lat, 1.0), 2),
                      fmt(s.mean_queue_ms, 1)});
    }
    table.print(std::cout);
    if (slo_p99_ms > 0.0 || slo_errors > 0.0) {
        std::cout << "\nSLO burn rates (burn 1 = consuming the budget "
                     "exactly at the sustainable rate):\n";
        const server::ServerStatsSnapshot slo_snap = srv.stats();
        for (int c = 0; c < server::kQosClasses; ++c) {
            const server::QosClassStats &s = slo_snap.cls[c];
            if (!s.submitted)
                continue;
            std::cout << "  " << server::qosClassName(server::QosClass(c))
                      << ": latency burn " << fmt(s.slo_latency_fast_burn, 2)
                      << "/" << fmt(s.slo_latency_slow_burn, 2)
                      << " (fast/slow), error burn "
                      << fmt(s.slo_error_fast_burn, 2) << "/"
                      << fmt(s.slo_error_slow_burn, 2) << ", breaches "
                      << s.slo_breach_events
                      << (s.slo_latency_breached || s.slo_error_breached
                              ? " [BREACHED]"
                              : "")
                      << "\n";
        }
    }

    std::cout << "\n"
              << report.results << " results in " << fmt(report.wall_s, 3)
              << " s (" << fmt(report.frames_per_s, 2)
              << " served frames/s aggregate)\n\nFlight recorder JSON: "
              << report.stats.toJson() << "\n";

    const std::string text = srv.metricsText();
    if (metrics_out == "-") {
        std::cout << "\nMetrics exposition:\n" << text;
    } else {
        std::ofstream f(metrics_out, std::ios::binary);
        f << text;
        if (!f) {
            std::cerr << "metrics write failed: " << metrics_out << "\n";
            return 1;
        }
        std::cout << "\nwrote metrics exposition to " << metrics_out
                  << "\n";
    }
    return 0;
}
