/**
 * @file
 * Fault-soak smoke: the closed-loop wire workload with fault sites
 * armed at LOW probability from the environment -- ctest registers this
 * binary with ASDR_FAULTS arming socket.recv, socket.send, and
 * engine.stage.throw (see CMakeLists.txt), plus a fixed
 * ASDR_FAULT_SEED so the firing stream replays.
 *
 * Unlike tests/test_fault.cpp (one site, one surgical scenario each),
 * the soak drives everything at once: several viewers streaming over
 * real sockets while connections tear mid-read/mid-write and renders
 * throw. The assertions are the serving stack's global invariants, the
 * ones that must hold under ANY fault interleaving:
 *
 *  - clean exit: every viewer's closed loop terminates, transient
 *    connection faults heal through reconnect-and-resume, and no
 *    client ever sees a FATAL (protocol/refusal) error;
 *  - exact ticket accounting: every result a client receives carries a
 *    ticket it submitted, and on the authoritative (server) side every
 *    submitted frame resolves exactly once --
 *    submitted == served + dropped + failed + expired, per class.
 *
 * Run directly (no ASDR_FAULTS), the same workload exercises the
 * fault-free path; the test does not require faults to fire.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/render_service.hpp"
#include "nerf/camera.hpp"
#include "nerf/ngp_field.hpp"
#include "scene/scene_library.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"

using namespace asdr;
using namespace asdr::net;

namespace {

core::RenderConfig
soakConfig()
{
    core::RenderConfig cfg = core::RenderConfig::asdr(16, 16, 24);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;
    return cfg;
}

std::vector<CameraSpec>
orbitSpecs(const scene::SceneInfo &info, int frames, float phase)
{
    std::vector<CameraSpec> path;
    for (int f = 0; f < frames; ++f) {
        CameraSpec cs;
        cs.pos = nerf::orbitPosition(info, phase + 0.07f * float(f));
        cs.look_at = info.look_at;
        cs.fov_deg = info.fov_deg;
        cs.width = 16;
        cs.height = 16;
        path.push_back(cs);
    }
    return path;
}

/** Every nonzero "ticket":N value in a trace_event JSON document. */
std::set<uint64_t>
ticketsInTraceJson(const std::string &json)
{
    std::set<uint64_t> out;
    const std::string needle = "\"ticket\":";
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
        const uint64_t t = std::stoull(json.substr(pos + needle.size()));
        if (t != 0)
            out.insert(t);
    }
    return out;
}

} // namespace

TEST(FaultSoak, ClosedLoopSurvivesArmedSitesWithExactAccounting)
{
    server::SceneRegistry registry;
    ASSERT_NE(registry.addProcedural("Lego", "Lego",
                                     nerf::NgpModelConfig::fast(),
                                     soakConfig()),
              nullptr);
    ASSERT_NE(registry.addProcedural("Chair", "Chair",
                                     nerf::NgpModelConfig::fast(),
                                     soakConfig()),
              nullptr);

    server::ServerConfig scfg;
    scfg.threads_per_shard = 2;
    scfg.frames_in_flight_per_shard = 4;
    server::FrameServer srv(registry, scfg);

    ServiceConfig ncfg;
    ncfg.resume_grace_s = 10.0; // torn connections resume, not close
    RenderService service(srv, ncfg);
    std::string start_err;
    ASSERT_TRUE(service.start(&start_err)) << start_err;

    struct ViewerOutcome
    {
        bool fatal = false;
        std::string reason;
        uint64_t issued = 0;
        uint64_t received = 0;
        /** Results whose ticket the client never learned: a submit
         *  whose ACK was lost still created a ticket server-side, and
         *  resume replays its result -- legitimate under at-least-once
         *  retries, so counted, not failed. */
        uint64_t unacked_tickets = 0;
    };

    const int kViewers = 3; // one per QoS class
    const int kFrames = 8;
    std::vector<ViewerOutcome> outcomes(kViewers);

    // One lock-step closed loop per viewer: submit (with transparent
    // retry), then try to collect one result. A result lost inside a
    // torn connection surfaces as a receive timeout -- the loop
    // reconnects and moves on rather than waiting forever, because
    // delivery into a dying socket is the one gap resume cannot cover.
    auto drive = [&](int v) {
        ViewerOutcome &o = outcomes[size_t(v)];
        Client client;
        std::string err;
        RetryPolicy retry;
        retry.max_attempts = 8;
        if (!client.connectWithRetry("127.0.0.1", service.port(), retry,
                                     &err, /*recv_timeout_s=*/2.0)) {
            o.fatal = true;
            o.reason = "connect: " + err;
            return;
        }
        const char *scene = (v % 2) ? "Chair" : "Lego";
        // Session open is a plain request/reply with no built-in retry:
        // under injected socket faults the reply can tear away, so heal
        // and reissue just like any other transient loss. (A lost reply
        // may leave an orphan session server-side; it never submits, so
        // it cannot perturb ticket accounting.)
        uint64_t session = 0;
        for (int attempt = 0; attempt < retry.max_attempts && session == 0;
             ++attempt) {
            session = client.openSession(scene, server::QosClass(v % 3),
                                         FrameEncoding::DeltaPrev, &err);
            if (session == 0) {
                if (!isTransient(client.lastError())) {
                    o.fatal = true;
                    o.reason = "openSession: " + err;
                    return;
                }
                client.reconnect(&err);
            }
        }
        if (session == 0) {
            o.fatal = true;
            o.reason = "openSession retries exhausted: " + err;
            return;
        }
        const auto path = orbitSpecs(registry.find(scene)->info, kFrames,
                                     0.3f * float(v));
        std::set<uint64_t> tickets;
        for (const auto &cs : path) {
            const uint64_t t =
                client.submitFrameRetry(session, cs, retry, &err);
            if (t == 0) {
                // Exhausted transient retries is a soak loss we
                // tolerate; a FATAL classification is not.
                if (!isTransient(client.lastError())) {
                    o.fatal = true;
                    o.reason = "submit: " + err;
                    return;
                }
                continue;
            }
            tickets.insert(t);
            ++o.issued;

            ClientFrame frame;
            if (!client.nextFrame(frame, &err)) {
                if (!isTransient(client.lastError())) {
                    o.fatal = true;
                    o.reason = "nextFrame: " + err;
                    return;
                }
                client.reconnect(&err); // heal and move on
                continue;
            }
            ++o.received;
            if (!tickets.count(frame.ticket))
                ++o.unacked_tickets;
        }
        client.closeSession(session, &err); // best effort under faults
    };

    // Optional trace fetches (CI's trace-soak job sets
    // ASDR_SOAK_FETCH_OUT): a fetcher asks for the service's retained
    // trace over and over WHILE the soak's socket faults tear
    // connections around it. A torn fetch is tolerated and retried on
    // a fresh connection.
    const char *fetch_out_env = std::getenv("ASDR_SOAK_FETCH_OUT");
    const std::string fetch_out = fetch_out_env ? fetch_out_env : "";
    std::atomic<bool> fetch_stop{false};
    int fetches_during = 0;
    std::thread fetcher;
    if (!fetch_out.empty()) {
        fetcher = std::thread([&] {
            while (!fetch_stop.load()) {
                Client fc;
                std::string ferr;
                FetchedTrace trace;
                if (fc.connect("127.0.0.1", service.port(), &ferr,
                               /*recv_timeout_s=*/2.0) &&
                    fc.fetchTrace(true, trace, &ferr))
                    fetches_during++;
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
        });
    }

    std::vector<std::thread> threads;
    for (int v = 0; v < kViewers; ++v)
        threads.emplace_back(drive, v);
    for (auto &t : threads)
        t.join();

    // Clean exit: every viewer terminated without a fatal error and
    // made real progress.
    for (int v = 0; v < kViewers; ++v) {
        const ViewerOutcome &o = outcomes[size_t(v)];
        EXPECT_FALSE(o.fatal) << "viewer " << v << ": " << o.reason;
        EXPECT_GT(o.issued, 0u) << "viewer " << v;
        if (o.unacked_tickets)
            std::cout << "viewer " << v << ": " << o.unacked_tickets
                      << " results for lost-ack tickets (at-least-once "
                         "retry)\n";
    }

    // Exact ticket accounting at the authoritative end: once the
    // server is idle, every submitted frame resolved exactly once.
    srv.waitIdle();
    const auto snap = srv.stats();
    uint64_t submitted = 0, resolved = 0;
    for (int c = 0; c < server::kQosClasses; ++c) {
        const auto &s = snap.cls[c];
        submitted += s.submitted;
        resolved += s.served + s.dropped + s.failed + s.expired;
        EXPECT_EQ(s.submitted,
                  s.served + s.dropped + s.failed + s.expired)
            << "class " << c << " leaked or double-counted a ticket";
    }
    EXPECT_GT(submitted, 0u);
    EXPECT_EQ(submitted, resolved);

    if (!fetch_out.empty()) {
        fetch_stop = true;
        fetcher.join();
        // The final fetch, on a clean connection, retried past any
        // still-armed socket faults: the server is idle, so it holds
        // everything the soak recorded.
        bool fetched = false;
        std::string ferr;
        FetchedTrace trace;
        for (int attempt = 0; attempt < 8 && !fetched; ++attempt) {
            Client fc;
            fetched = fc.connect("127.0.0.1", service.port(), &ferr) &&
                      fc.fetchTrace(true, trace, &ferr);
        }
        ASSERT_TRUE(fetched) << ferr;
        EXPECT_EQ(trace.overwritten, 0u) << "the soak outgrew the rings";
        std::string werr;
        ASSERT_TRUE(telemetry::writeJson(fetch_out, trace.spans, &werr))
            << werr;

        // The exit dump beside it, for CI's ticket-set comparison.
        ASSERT_TRUE(telemetry::writeJson(fetch_out + ".exit.json",
                                         telemetry::snapshot(), &werr))
            << werr;

        // And the same comparison here: the fetch lost nothing.
        const std::set<uint64_t> fetched_tickets =
            ticketsInTraceJson(telemetry::toJsonString(trace.spans));
        const std::set<uint64_t> dumped = ticketsInTraceJson(
            telemetry::toJsonString(telemetry::snapshot()));
        EXPECT_EQ(fetched_tickets, dumped);
        std::cout << "trace fetch: " << fetched_tickets.size()
                  << " tickets, " << trace.spans.size() << " spans; "
                  << fetches_during << " fetches during the soak\n";
    }

    // When ctest armed the sites, record that the soak actually soaked
    // (direct runs without ASDR_FAULTS legitimately skip this).
    if (fault::enabled()) {
        const uint64_t fired = fault::fireCount(fault::kSocketRecv) +
                               fault::fireCount(fault::kSocketSend) +
                               fault::fireCount(fault::kEngineStageThrow);
        std::cout << "fault soak: " << fired << " injected faults\n";
    }
}
