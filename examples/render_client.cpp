/**
 * @file
 * Wire-protocol render client: streams an orbit of frames from a
 * RenderService over TCP through net::Client, decoding raw, quantized,
 * or delta-compressed payloads, and reports per-frame latency plus the
 * bytes the chosen encoding saved versus raw float transport.
 *
 * With --port it connects to an already-running service; without it,
 * the example is self-contained -- it stands up a SceneRegistry +
 * FrameServer + RenderService on an ephemeral loopback port in-process
 * and talks to itself over a real socket, so the full wire path
 * (framing, encode, TCP, decode) is exercised with zero setup.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/render_service.hpp"
#include "nerf/ngp_field.hpp"
#include "scene/scene_library.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"
#include "util/table.hpp"

using namespace asdr;

namespace {

void
usage(const char *argv0)
{
    std::cout
        << "Usage: " << argv0 << " [options]\n"
           "Stream an orbit from a wire render service and report\n"
           "latency + bytes per encoding.\n\n"
           "  --host <addr>       service address (default 127.0.0.1)\n"
           "  --port <port>       service port; omit to self-host an\n"
           "                      in-process service on loopback\n"
           "  --scene <name>      scene to stream (default Lego)\n"
           "  --frames <n>        orbit length (default 12)\n"
           "  --width <px>        frame edge (default 48)\n"
           "  --samples <n>       samples per ray (default 48)\n"
           "  --encoding <e>      raw | quantized8 | delta (default delta)\n"
           "  --qos <q>           interactive | standard | batch\n"
           "                      (default interactive)\n"
           "  --step <rad>        orbit step (default 0.05)\n"
           "  --ppm <prefix>      write every decoded frame as\n"
           "                      <prefix>NNN.ppm\n"
           "  --trace-fetch <f>   turn the service's span recording on\n"
           "                      for the orbit, then fetch the spans\n"
           "                      its rings hold into <f> (Perfetto\n"
           "                      JSON) and restore the recording\n"
           "                      state -- works against a remote\n"
           "                      service, no restart\n"
           "  --slow-ms <n>       self-hosted service only: slow-frame\n"
           "                      flight recorder threshold, ms (each\n"
           "                      slow render's stage times are dumped\n"
           "                      once)\n"
           "  --metrics-out <f>   scrape the service's Prometheus text\n"
           "                      exposition over the wire after the\n"
           "                      orbit (- for stdout)\n"
           "  --help              this message\n"
           "Set ASDR_TRACE_OUT=<file> to record the self-hosted service's\n"
           "stage spans and write a Chrome/Perfetto trace JSON at exit.\n";
}

net::FrameEncoding
parseEncoding(const std::string &name)
{
    if (name == "raw")
        return net::FrameEncoding::Raw;
    if (name == "quantized8")
        return net::FrameEncoding::Quantized8;
    if (name == "delta")
        return net::FrameEncoding::DeltaPrev;
    std::cerr << "unknown encoding: " << name << "\n";
    std::exit(1);
}

server::QosClass
parseQos(const std::string &name)
{
    if (name == "interactive")
        return server::QosClass::Interactive;
    if (name == "standard")
        return server::QosClass::Standard;
    if (name == "batch")
        return server::QosClass::Batch;
    std::cerr << "unknown qos class: " << name << "\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1", scene = "Lego", ppm;
    std::string trace_fetch, metrics_out;
    int port = 0, frames = 12, width = 48, samples = 48;
    float step = 0.05f;
    double slow_ms = 0.0;
    net::FrameEncoding encoding = net::FrameEncoding::DeltaPrev;
    server::QosClass qos = server::QosClass::Interactive;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&] { return std::string(argv[++i]); };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--host" && i + 1 < argc)
            host = next();
        else if (arg == "--port" && i + 1 < argc)
            port = std::atoi(argv[++i]);
        else if (arg == "--scene" && i + 1 < argc)
            scene = next();
        else if (arg == "--frames" && i + 1 < argc)
            frames = std::atoi(argv[++i]);
        else if (arg == "--width" && i + 1 < argc)
            width = std::atoi(argv[++i]);
        else if (arg == "--samples" && i + 1 < argc)
            samples = std::atoi(argv[++i]);
        else if (arg == "--encoding" && i + 1 < argc)
            encoding = parseEncoding(next());
        else if (arg == "--qos" && i + 1 < argc)
            qos = parseQos(next());
        else if (arg == "--step" && i + 1 < argc)
            step = float(std::atof(argv[++i]));
        else if (arg == "--ppm" && i + 1 < argc)
            ppm = next();
        else if (arg == "--trace-fetch" && i + 1 < argc)
            trace_fetch = next();
        else if (arg == "--slow-ms" && i + 1 < argc)
            slow_ms = std::atof(argv[++i]);
        else if (arg == "--metrics-out" && i + 1 < argc)
            metrics_out = next();
        else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 1;
        }
    }

    // ---- optional self-hosted service (no --port given) ----
    std::unique_ptr<server::SceneRegistry> registry;
    std::unique_ptr<server::FrameServer> srv;
    std::unique_ptr<net::RenderService> service;
    scene::SceneInfo info;
    if (port == 0) {
        registry = std::make_unique<server::SceneRegistry>();
        core::RenderConfig cfg =
            core::RenderConfig::asdr(width, width, samples);
        cfg.probe_stride = 4;
        const server::SceneEntry *entry = registry->addProcedural(
            scene, scene, nerf::NgpModelConfig::fast(), cfg);
        if (!entry) {
            std::cerr << "unknown library scene: " << scene << "\n";
            return 1;
        }
        info = entry->info;
        server::ServerConfig scfg;
        scfg.threads_per_shard = 1;
        scfg.slow_frame_ms = slow_ms;
        srv = std::make_unique<server::FrameServer>(*registry, scfg);
        service = std::make_unique<net::RenderService>(*srv);
        std::string err;
        if (!service->start(&err)) {
            std::cerr << "service start failed: " << err << "\n";
            return 1;
        }
        port = service->port();
        std::cout << "self-hosted render service on " << host << ":"
                  << port << "\n";
    } else {
        // Remote service: frame the orbit off the library defaults.
        info = scene::createScene(scene)->info();
    }

    net::Client client;
    std::string err;
    if (!client.connect(host, uint16_t(port), &err)) {
        std::cerr << "connect failed: " << err << "\n";
        return 1;
    }
    // Recording on for the orbit, so this works against a running
    // service with tracing off; the second fetch restores the state
    // this one replaced.
    net::FetchedTrace before;
    if (!trace_fetch.empty() && !client.fetchTrace(true, before, &err)) {
        std::cerr << "trace fetch failed: " << err << "\n";
        return 1;
    }
    const uint64_t session = client.openSession(scene, qos, encoding, &err);
    if (session == 0) {
        std::cerr << "openSession failed: " << err << "\n";
        return 1;
    }
    std::cout << "session " << session << " on '" << scene << "' ("
              << server::qosClassName(qos) << ", "
              << net::encodingName(encoding) << ")\n\n";

    // Submit the whole orbit up front (the service pipelines; results
    // stream back in completion order), then drain.
    std::vector<net::CameraSpec> path;
    for (int f = 0; f < frames; ++f) {
        net::CameraSpec cs;
        cs.pos = nerf::orbitPosition(info, step * float(f));
        cs.look_at = info.look_at;
        cs.fov_deg = info.fov_deg;
        cs.width = uint16_t(width);
        cs.height = uint16_t(width);
        path.push_back(cs);
    }
    for (const net::CameraSpec &cs : path)
        if (client.submitFrame(session, cs, &err) == 0) {
            std::cerr << "submit failed: " << err << "\n";
            return 1;
        }

    TextTable table({"ticket", "status", "latency (ms)", "payload (B)",
                     "vs raw"});
    const size_t raw_bytes = net::rawFrameBytes(width, width);
    int received = 0, saved = 0;
    while (received < frames) {
        net::ClientFrame frame;
        if (!client.nextFrame(frame, &err)) {
            std::cerr << "stream broke: " << err << "\n";
            return 1;
        }
        ++received;
        const double ratio =
            frame.payload_bytes
                ? double(raw_bytes) / double(frame.payload_bytes)
                : 0.0;
        table.addRow({std::to_string(frame.ticket),
                      frame.ok() ? "ok"
                                 : (frame.status == net::FrameStatus::Dropped
                                        ? "dropped"
                                        : "failed"),
                      fmt(frame.latency_ms, 2),
                      std::to_string(frame.payload_bytes),
                      frame.ok() ? fmtTimes(ratio) : "-"});
        if (frame.ok() && !ppm.empty()) {
            char name[16];
            std::snprintf(name, sizeof name, "%03d.ppm", saved++);
            frame.image.writePpm(ppm + name);
        }
    }
    table.print(std::cout);

    const net::ClientTransferStats &t = client.transfer();
    std::cout << "\n"
              << t.frames << " frames, " << t.payload_bytes
              << " payload bytes vs " << t.raw_bytes << " raw ("
              << fmtTimes(t.payload_bytes
                              ? double(t.raw_bytes) /
                                    double(t.payload_bytes)
                              : 0.0)
              << " smaller with " << net::encodingName(encoding) << ")\n";

    if (!trace_fetch.empty()) {
        net::FetchedTrace trace;
        if (!client.fetchTrace(before.was_recording, trace, &err) ||
            !telemetry::writeJson(trace_fetch, trace.spans, &err)) {
            std::cerr << "trace fetch failed: " << err << "\n";
            return 1;
        }
        std::cout << "fetched " << trace.spans.size() << " spans ("
                  << trace.overwritten << " overwritten) into "
                  << trace_fetch << " (open at ui.perfetto.dev)\n";
    }

    // The server's metrics travel the wire too (GetStats answers with
    // the exposition), so this works against a remote service as well.
    if (!metrics_out.empty()) {
        std::string text;
        if (!client.fetchMetricsText(text, &err)) {
            std::cerr << "metrics scrape failed: " << err << "\n";
            return 1;
        }
        if (metrics_out == "-") {
            std::cout << "\n" << text;
        } else {
            std::ofstream f(metrics_out, std::ios::binary);
            f << text;
            if (!f) {
                std::cerr << "metrics write failed: " << metrics_out
                          << "\n";
                return 1;
            }
            std::cout << "wrote metrics exposition to " << metrics_out
                      << "\n";
        }
    }

    client.closeSession(session, &err);
    client.disconnect();
    return 0;
}
