/**
 * @file
 * End-to-end guarantees of the wire render service (src/net):
 *
 *  - Bit-exactness over TCP: frames fetched through net::Client --
 *    raw AND delta encodings, >= 2 concurrent connections x mixed QoS
 *    classes -- are bitwise identical to sequential
 *    AsdrRenderer::render() calls of the same cameras.
 *  - Quantized frames stay within the codec's published error bound.
 *  - Ticket accounting survives the wire: every submission produces
 *    exactly one FrameResult, including under backpressure shedding;
 *    past the same bound a GetTrace is refused, not queued.
 *  - Closing: CloseSessionOk follows every result of the session, a
 *    session with nothing in flight closes at once, and stop() returns
 *    only after a closing session's last result.
 *  - Protocol hardening at the socket level: garbage bytes, wrong
 *    versions, pre-handshake traffic and connections past
 *    max_connections get an Error and a close, and the service keeps
 *    serving everyone else.
 *  - Wire counters and the stats roundtrip.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/render_service.hpp"
#include "net/socket.hpp"
#include "nerf/camera.hpp"
#include "nerf/ngp_field.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"
#include "server/workload.hpp"

#include "engine_pause.hpp"
#include "exposition.hpp"

using namespace asdr;
using namespace asdr::net;

namespace {

core::RenderConfig
smallConfig()
{
    core::RenderConfig cfg = core::RenderConfig::asdr(16, 16, 32);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;
    return cfg;
}

void
expectFramesIdentical(const Image &a, const Image &b, const char *what)
{
    ASSERT_EQ(a.pixels(), b.pixels()) << what;
    ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                             a.pixels() * sizeof(Vec3)))
        << what;
}

/** Registry + FrameServer + RenderService on an ephemeral loopback
 *  port, with the Lego and Chair library scenes registered. */
struct Harness
{
    server::SceneRegistry registry;
    std::unique_ptr<server::FrameServer> srv;
    std::unique_ptr<RenderService> service;

    explicit Harness(const ServiceConfig &ncfg = {},
                     const server::ServerConfig &scfg_in = {})
    {
        EXPECT_NE(registry.addProcedural("Lego", "Lego",
                                         nerf::NgpModelConfig::fast(),
                                         smallConfig()),
                  nullptr);
        EXPECT_NE(registry.addProcedural("Chair", "Chair",
                                         nerf::NgpModelConfig::fast(),
                                         smallConfig()),
                  nullptr);
        server::ServerConfig scfg = scfg_in;
        if (scfg.threads_per_shard == 0)
            scfg.threads_per_shard = 1;
        srv = std::make_unique<server::FrameServer>(registry, scfg);
        service = std::make_unique<RenderService>(*srv, ncfg);
        std::string err;
        EXPECT_TRUE(service->start(&err)) << err;
    }

    ~Harness()
    {
        // Quiesce the socket side before the server dies.
        service.reset();
        srv.reset();
    }

    uint16_t port() const { return service->port(); }
};

/** An orbit as CameraSpecs (constructor parameters travel, so both
 *  endpoints build bit-identical cameras). */
std::vector<CameraSpec>
orbitSpecs(const scene::SceneInfo &info, int frames, float step, int w,
           int h)
{
    std::vector<CameraSpec> path;
    for (int f = 0; f < frames; ++f) {
        CameraSpec cs;
        cs.pos = nerf::orbitPosition(info, step * float(f));
        cs.look_at = info.look_at;
        cs.fov_deg = info.fov_deg;
        cs.width = uint16_t(w);
        cs.height = uint16_t(h);
        path.push_back(cs);
    }
    return path;
}

} // namespace

// ------------------------------------------------------- bit-exactness

TEST(NetService, LoopbackBitExactAcrossConnectionsQosAndEncodings)
{
    Harness h;

    // Two concurrent connections, two sessions each: all four QoS/
    // encoding mixes, two scenes, submitted and drained in parallel.
    struct SessionPlan
    {
        const char *scene;
        server::QosClass qos;
        FrameEncoding encoding;
    };
    struct ConnPlan
    {
        std::vector<SessionPlan> sessions;
    };
    const std::vector<ConnPlan> plans = {
        {{{"Lego", server::QosClass::Interactive, FrameEncoding::Raw},
          {"Chair", server::QosClass::Batch, FrameEncoding::DeltaPrev}}},
        {{{"Chair", server::QosClass::Standard, FrameEncoding::Raw},
          {"Lego", server::QosClass::Interactive,
           FrameEncoding::DeltaPrev}}},
    };
    const int FRAMES = 3;

    struct Fetched
    {
        const char *scene;
        CameraSpec camera;
        Image image;
    };
    std::vector<std::vector<Fetched>> fetched(plans.size());
    std::vector<std::thread> threads;
    for (size_t ci = 0; ci < plans.size(); ++ci) {
        threads.emplace_back([&, ci] {
            Client client;
            std::string err;
            ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;

            struct Live
            {
                SessionPlan plan;
                uint64_t id;
                std::vector<CameraSpec> path;
                std::map<uint64_t, int> ticket_to_frame;
            };
            std::vector<Live> live;
            int expected = 0;
            for (const SessionPlan &sp : plans[ci].sessions) {
                Live s;
                s.plan = sp;
                s.id = client.openSession(sp.scene, sp.qos, sp.encoding,
                                          &err);
                ASSERT_NE(s.id, 0u) << err;
                s.path = orbitSpecs(h.registry.find(sp.scene)->info,
                                    FRAMES, 0.06f + 0.02f * float(ci), 16,
                                    16);
                live.push_back(std::move(s));
            }
            for (auto &s : live)
                for (int f = 0; f < FRAMES; ++f) {
                    const uint64_t t =
                        client.submitFrame(s.id, s.path[size_t(f)], &err);
                    ASSERT_NE(t, 0u) << err;
                    s.ticket_to_frame[t] = f;
                    ++expected;
                }
            for (int k = 0; k < expected; ++k) {
                ClientFrame frame;
                ASSERT_TRUE(client.nextFrame(frame, &err)) << err;
                ASSERT_TRUE(frame.ok())
                    << "unexpected non-ok result " << int(frame.status);
                auto s = std::find_if(live.begin(), live.end(),
                                      [&](const Live &l) {
                                          return l.id == frame.session;
                                      });
                ASSERT_NE(s, live.end());
                const int f = s->ticket_to_frame.at(frame.ticket);
                fetched[ci].push_back(Fetched{s->plan.scene,
                                              s->path[size_t(f)],
                                              std::move(frame.image)});
            }
            for (auto &s : live)
                EXPECT_TRUE(client.closeSession(s.id, &err)) << err;
        });
    }
    for (auto &t : threads)
        t.join();

    // Reference: plain sequential renders of the same cameras.
    int checked = 0;
    for (const auto &conn_results : fetched)
        for (const Fetched &f : conn_results) {
            const server::SceneEntry *entry = h.registry.find(f.scene);
            core::AsdrRenderer ref(*entry->field, entry->config);
            const Image want = ref.render(f.camera.toCamera());
            expectFramesIdentical(want, f.image, f.scene);
            ++checked;
        }
    EXPECT_EQ(checked, int(plans.size()) * 2 * FRAMES);
}

TEST(NetService, QuantizedFramesStayWithinCodecBound)
{
    Harness h;
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t id =
        client.openSession("Lego", server::QosClass::Standard,
                           FrameEncoding::Quantized8, &err);
    ASSERT_NE(id, 0u) << err;

    const server::SceneEntry *entry = h.registry.find("Lego");
    const auto path = orbitSpecs(entry->info, 2, 0.05f, 16, 16);
    std::map<uint64_t, int> tickets;
    for (int f = 0; f < 2; ++f)
        tickets[client.submitFrame(id, path[size_t(f)], &err)] = f;

    for (int k = 0; k < 2; ++k) {
        ClientFrame frame;
        ASSERT_TRUE(client.nextFrame(frame, &err)) << err;
        ASSERT_TRUE(frame.ok());
        const int f = tickets.at(frame.ticket);
        core::AsdrRenderer ref(*entry->field, entry->config);
        const Image want = ref.render(path[size_t(f)].toCamera());
        float lo = want.data()[0].x, hi = lo;
        for (size_t i = 0; i < want.pixels(); ++i)
            for (int ch = 0; ch < 3; ++ch) {
                const float v = (&want.data()[i].x)[ch];
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        const float bound = (hi - lo) / 255.0f + 1e-6f;
        ASSERT_EQ(want.pixels(), frame.image.pixels());
        for (size_t i = 0; i < want.pixels(); ++i)
            for (int ch = 0; ch < 3; ++ch)
                ASSERT_NEAR((&want.data()[i].x)[ch],
                            (&frame.image.data()[i].x)[ch], bound)
                    << "pixel " << i;
        // ~4x smaller than raw on the wire.
        EXPECT_LT(frame.payload_bytes, rawFrameBytes(16, 16) / 3);
    }
    client.closeSession(id, &err);
}

// ------------------------------------------------------------ robustness

TEST(NetService, GarbageBytesGetErrorAndClose)
{
    Harness h;

    Socket raw = Socket::connectTo("127.0.0.1", h.port(), nullptr);
    ASSERT_TRUE(raw.valid());
    raw.setRecvTimeout(10.0);
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(raw.sendAll(junk, sizeof junk - 1));

    // The service must answer with a framed Error, then close.
    std::vector<uint8_t> got(4096);
    size_t n = 0;
    for (;;) {
        const ssize_t k = raw.recvSome(got.data() + n, got.size() - n);
        if (k <= 0)
            break;
        n += size_t(k);
    }
    ASSERT_GE(n, kHeaderSize);
    MsgHeader hdr;
    ASSERT_EQ(decodeHeader(got.data(), kHeaderSize, hdr), WireError::None);
    EXPECT_EQ(hdr.type, MsgType::Error);
    ErrorMsg msg;
    ASSERT_TRUE(decodePayload(got.data() + kHeaderSize, hdr.length, msg));
    EXPECT_EQ(msg.code, uint32_t(WireError::BadMagic));

    // ... and keeps serving well-behaved clients afterwards.
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t id = client.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
    EXPECT_NE(id, 0u) << err;
    client.closeSession(id, &err);
}

TEST(NetService, PreHandshakeAndWrongVersionRejected)
{
    Harness h;

    { // A well-formed message before Hello: NeedHello + close.
        Socket raw = Socket::connectTo("127.0.0.1", h.port(), nullptr);
        ASSERT_TRUE(raw.valid());
        raw.setRecvTimeout(10.0);
        GetStatsMsg msg;
        auto buf = packMessage(MsgType::GetStats, msg);
        ASSERT_TRUE(raw.sendAll(buf.data(), buf.size()));
        uint8_t reply[1024];
        size_t n = 0;
        for (;;) {
            const ssize_t k = raw.recvSome(reply + n, sizeof reply - n);
            if (k <= 0)
                break;
            n += size_t(k);
        }
        ASSERT_GE(n, kHeaderSize);
        MsgHeader hdr;
        ASSERT_EQ(decodeHeader(reply, kHeaderSize, hdr), WireError::None);
        EXPECT_EQ(hdr.type, MsgType::Error);
        ErrorMsg err_msg;
        ASSERT_TRUE(decodePayload(reply + kHeaderSize, hdr.length, err_msg));
        EXPECT_EQ(err_msg.code, uint32_t(WireError::NeedHello));
    }

    { // A wrong header version: BadVersion + close.
        Socket raw = Socket::connectTo("127.0.0.1", h.port(), nullptr);
        ASSERT_TRUE(raw.valid());
        raw.setRecvTimeout(10.0);
        HelloMsg msg;
        auto buf = packMessage(MsgType::Hello, msg);
        buf[4] = 0x42; // header version field (LE lo byte)
        ASSERT_TRUE(raw.sendAll(buf.data(), buf.size()));
        uint8_t reply[1024];
        size_t n = 0;
        for (;;) {
            const ssize_t k = raw.recvSome(reply + n, sizeof reply - n);
            if (k <= 0)
                break;
            n += size_t(k);
        }
        ASSERT_GE(n, kHeaderSize);
        MsgHeader hdr;
        ASSERT_EQ(decodeHeader(reply, kHeaderSize, hdr), WireError::None);
        EXPECT_EQ(hdr.type, MsgType::Error);
        ErrorMsg err_msg;
        ASSERT_TRUE(decodePayload(reply + kHeaderSize, hdr.length, err_msg));
        EXPECT_EQ(err_msg.code, uint32_t(WireError::BadVersion));
    }
}

TEST(NetService, OversizedRequestsAndFramesRejected)
{
    Harness h;

    { // A header claiming a huge (but < kMaxPayload) request payload
      // must be refused BEFORE the service buffers it.
        Socket raw = Socket::connectTo("127.0.0.1", h.port(), nullptr);
        ASSERT_TRUE(raw.valid());
        raw.setRecvTimeout(10.0);
        MsgHeader hdr;
        hdr.type = MsgType::Hello;
        hdr.length = kMaxRequestPayload + 1;
        WireWriter w;
        encodeHeader(hdr, w);
        ASSERT_TRUE(raw.sendAll(w.data().data(), w.data().size()));
        uint8_t reply[1024];
        size_t n = 0;
        for (;;) {
            const ssize_t k = raw.recvSome(reply + n, sizeof reply - n);
            if (k <= 0)
                break;
            n += size_t(k);
        }
        ASSERT_GE(n, kHeaderSize);
        MsgHeader got;
        ASSERT_EQ(decodeHeader(reply, kHeaderSize, got), WireError::None);
        EXPECT_EQ(got.type, MsgType::Error);
        ErrorMsg msg;
        ASSERT_TRUE(decodePayload(reply + kHeaderSize, got.length, msg));
        EXPECT_EQ(msg.code, uint32_t(WireError::Oversized));
    }

    { // A frame whose raw bytes exceed kMaxFrameBytes is refused at
      // submit (it could never be delivered in one message).
        Client client;
        std::string err;
        ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;
        const uint64_t id = client.openSession(
            "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
        ASSERT_NE(id, 0u) << err;
        CameraSpec huge;
        huge.width = 4096;
        huge.height = 4096; // 201 MB raw > kMaxFrameBytes
        EXPECT_EQ(client.submitFrame(id, huge, &err), 0u);
        EXPECT_NE(err.find("frame too large"), std::string::npos) << err;
        // The connection survives; normal submits still work.
        const auto path =
            orbitSpecs(h.registry.find("Lego")->info, 1, 0.0f, 16, 16);
        ASSERT_NE(client.submitFrame(id, path[0], &err), 0u) << err;
        ClientFrame frame;
        ASSERT_TRUE(client.nextFrame(frame, &err)) << err;
        EXPECT_TRUE(frame.ok());
        client.closeSession(id, &err);
    }
}

TEST(NetService, ConnectionLimitRejectsTheExtraConnection)
{
    ServiceConfig ncfg;
    ncfg.max_connections = 2;
    Harness h(ncfg);
    Client clients[2];
    std::string err;
    for (Client &c : clients) // each returns after its Hello round trip
        ASSERT_TRUE(c.connect("127.0.0.1", h.port(), &err)) << err;

    // A third connection reads one framed Error{Rejected}, then EOF.
    Socket raw = Socket::connectTo("127.0.0.1", h.port(), nullptr);
    ASSERT_TRUE(raw.valid());
    raw.setRecvTimeout(10.0);
    uint8_t reply[1024];
    size_t n = 0;
    ssize_t k = 0;
    while ((k = raw.recvSome(reply + n, sizeof reply - n)) > 0)
        n += size_t(k);
    EXPECT_EQ(k, kRecvClosed);
    ASSERT_GE(n, kHeaderSize);
    MsgHeader hdr;
    ASSERT_EQ(decodeHeader(reply, kHeaderSize, hdr), WireError::None);
    EXPECT_EQ(hdr.type, MsgType::Error);
    EXPECT_EQ(n, kHeaderSize + hdr.length);
    ErrorMsg msg;
    ASSERT_TRUE(decodePayload(reply + kHeaderSize, hdr.length, msg));
    EXPECT_EQ(msg.code, uint32_t(WireError::Rejected));
    EXPECT_EQ(h.service->counters().connections_accepted, 2u);

    // The two admitted connections still serve render()'s frames.
    const server::SceneEntry *entry = h.registry.find("Lego");
    const auto path = orbitSpecs(entry->info, 1, 0.0f, 16, 16);
    const Image want = core::AsdrRenderer(*entry->field, entry->config)
                           .render(path[0].toCamera());
    for (Client &c : clients) {
        const uint64_t id = c.openSession(
            "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
        ASSERT_NE(id, 0u) << err;
        ASSERT_NE(c.submitFrame(id, path[0], &err), 0u) << err;
        ClientFrame frame;
        ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
        ASSERT_TRUE(frame.ok());
        expectFramesIdentical(want, frame.image, "frame past the limit");
        c.closeSession(id, &err);
    }
}

TEST(NetService, UnknownSceneAndSessionAreClientErrorsNotDisconnects)
{
    Harness h;
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;

    EXPECT_EQ(client.openSession("Nope", server::QosClass::Standard,
                                 FrameEncoding::Raw, &err),
              0u);
    EXPECT_NE(err.find("scene"), std::string::npos) << err;

    // The connection survives the failed open.
    EXPECT_EQ(client.submitFrame(424242, CameraSpec{}, &err), 0u);
    const uint64_t id = client.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
    EXPECT_NE(id, 0u) << err;
    EXPECT_TRUE(client.closeSession(id, &err)) << err;
    EXPECT_FALSE(client.closeSession(id + 17, &err));
}

TEST(NetService, BackpressureShedsPayloadsButKeepsTicketAccounting)
{
    // max_outbound_bytes = 0: every frame payload sheds (the queue is
    // always "at least 0 bytes full"), making the policy deterministic.
    ServiceConfig ncfg;
    ncfg.max_outbound_bytes = 0;
    Harness h(ncfg);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t id =
        client.openSession("Lego", server::QosClass::Standard,
                           FrameEncoding::DeltaPrev, &err);
    ASSERT_NE(id, 0u) << err;

    const auto path =
        orbitSpecs(h.registry.find("Lego")->info, 4, 0.05f, 16, 16);
    std::vector<uint64_t> tickets;
    for (const auto &cs : path) {
        const uint64_t t = client.submitFrame(id, cs, &err);
        ASSERT_NE(t, 0u) << err;
        tickets.push_back(t);
    }
    // Exactly one result per ticket, every payload shed.
    std::map<uint64_t, int> seen;
    for (size_t k = 0; k < tickets.size(); ++k) {
        ClientFrame frame;
        ASSERT_TRUE(client.nextFrame(frame, &err)) << err;
        EXPECT_EQ(frame.status, FrameStatus::Shed);
        EXPECT_EQ(frame.payload_bytes, 0u);
        seen[frame.ticket]++;
    }
    for (uint64_t t : tickets)
        EXPECT_EQ(seen[t], 1) << "ticket " << t;
    EXPECT_TRUE(client.closeSession(id, &err)) << err;

    const WireCounters counters = h.service->counters();
    EXPECT_EQ(counters.results_shed, tickets.size());
    EXPECT_EQ(counters.frame_payload_bytes, 0u);
}

TEST(NetService, GetTraceRefusedPastTheOutboundBound)
{
    // Past the bound frame payloads obey (here: always), GetTrace's
    // reply is refused rather than queued; the refusal changes nothing
    // and the connection stays open.
    ServiceConfig ncfg;
    ncfg.max_outbound_bytes = 0;
    Harness h(ncfg);

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;
    const bool recording = telemetry::enabled();
    FetchedTrace trace;
    EXPECT_FALSE(client.fetchTrace(!recording, trace, &err));
    EXPECT_EQ(client.lastError(), ClientError::Refused);
    EXPECT_NE(err.find("service error " +
                       std::to_string(uint32_t(WireError::Rejected))),
              std::string::npos)
        << err;
    EXPECT_EQ(telemetry::enabled(), recording);

    ASSERT_TRUE(client.connected());
    const uint64_t id = client.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
    EXPECT_NE(id, 0u) << err;
    EXPECT_TRUE(client.closeSession(id, &err)) << err;
}

TEST(NetService, AbruptDisconnectMidStreamCleansUpSessions)
{
    Harness h;
    {
        Client client;
        std::string err;
        ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;
        const uint64_t id = client.openSession(
            "Lego", server::QosClass::Interactive, FrameEncoding::Raw,
            &err);
        ASSERT_NE(id, 0u) << err;
        const auto path =
            orbitSpecs(h.registry.find("Lego")->info, 6, 0.05f, 16, 16);
        for (const auto &cs : path)
            client.submitFrame(id, cs, &err);
        // Vanish without closing the session.
        client.disconnect();
    }
    // The service notices, closes the FrameServer session, and the
    // server drains; a fresh client still gets served.
    for (int tries = 0; tries < 200; ++tries) {
        if (h.service->counters().connections_open == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(h.service->counters().connections_open, 0u);
    h.srv->waitIdle();

    Client again;
    std::string err;
    ASSERT_TRUE(again.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t id = again.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
    ASSERT_NE(id, 0u) << err;
    const auto path =
        orbitSpecs(h.registry.find("Lego")->info, 1, 0.0f, 16, 16);
    ASSERT_NE(again.submitFrame(id, path[0], &err), 0u) << err;
    ClientFrame frame;
    ASSERT_TRUE(again.nextFrame(frame, &err)) << err;
    EXPECT_TRUE(frame.ok());
    again.closeSession(id, &err);
}

// ------------------------------------------------------- session close

TEST(NetService, CloseSessionOkFollowsEveryResultOfTheSession)
{
    server::ServerConfig scfg;
    scfg.frames_in_flight_per_shard = 2;
    Harness h({}, scfg);
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err, 5.0)) << err;
    const uint64_t idle = client.openSession(
        "Chair", server::QosClass::Standard, FrameEncoding::Raw, &err);
    ASSERT_NE(idle, 0u) << err;
    const uint64_t id = client.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
    ASSERT_NE(id, 0u) << err;

    const auto path =
        orbitSpecs(h.registry.find("Lego")->info, 3, 0.05f, 16, 16);
    std::vector<uint64_t> tickets;
    {
        // The first two frames take the pipeline slots and stay there;
        // the third waits in the queue until the close sheds it.
        EnginePause pause(h.srv->engine());
        for (const auto &cs : path) {
            const uint64_t t = client.submitFrame(id, cs, &err);
            ASSERT_NE(t, 0u) << err;
            tickets.push_back(t);
        }
        // A session with nothing in flight closes at once, though the
        // engine holds the other session's frames.
        EXPECT_TRUE(client.closeSession(idle, &err)) << err;
        std::thread resume([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            pause.release();
        });
        EXPECT_TRUE(client.closeSession(id, &err)) << err;
        resume.join();
    }

    // Every result arrived before the Ok: with the connection gone, the
    // client still returns each ticket from its buffer, then nothing.
    client.dropConnection();
    std::map<uint64_t, FrameStatus> got;
    for (size_t k = 0; k < tickets.size(); ++k) {
        ClientFrame frame;
        ASSERT_TRUE(client.nextFrame(frame, &err)) << err;
        EXPECT_EQ(frame.session, id);
        EXPECT_TRUE(got.emplace(frame.ticket, frame.status).second)
            << "ticket " << frame.ticket << " twice";
    }
    ClientFrame extra;
    EXPECT_FALSE(client.nextFrame(extra, &err));
    EXPECT_EQ(got[tickets[0]], FrameStatus::Ok);
    EXPECT_EQ(got[tickets[1]], FrameStatus::Ok);
    EXPECT_EQ(got[tickets[2]], FrameStatus::Dropped);
}

TEST(NetService, StopReturnsAfterAClosingSessionsLastResult)
{
    ServiceConfig ncfg;
    ncfg.resume_grace_s = 5.0;
    Harness h(ncfg);
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err, 5.0)) << err;
    const uint64_t id = client.openSession(
        "Lego", server::QosClass::Standard, FrameEncoding::Raw, &err);
    ASSERT_NE(id, 0u) << err;
    const auto path =
        orbitSpecs(h.registry.find("Lego")->info, 1, 0.0f, 16, 16);

    // The session detaches with its frame in flight; stop() closes it
    // and must not return before the frame's outcome is in.
    EnginePause pause(h.srv->engine());
    ASSERT_NE(client.submitFrame(id, path[0], &err), 0u) << err;
    client.dropConnection();
    for (int tries = 0;
         tries < 200 && h.service->counters().connections_open != 0;
         ++tries)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(h.service->counters().connections_open, 0u);
    std::thread resume([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        pause.release();
    });
    h.service->stop();
    const server::QosClassStats st =
        h.srv->stats().cls[int(server::QosClass::Standard)];
    resume.join();
    EXPECT_EQ(st.submitted, 1u);
    EXPECT_EQ(st.served, 1u);
    h.service.reset();
}

// ------------------------------------------------------ stats + counters

TEST(NetService, StatsRoundTripMatchesClientObservations)
{
    Harness h;
    Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", h.port(), &err)) << err;
    const uint64_t id = client.openSession(
        "Chair", server::QosClass::Interactive, FrameEncoding::Raw, &err);
    ASSERT_NE(id, 0u) << err;

    const int FRAMES = 3;
    const auto path =
        orbitSpecs(h.registry.find("Chair")->info, FRAMES, 0.05f, 16, 16);
    for (const auto &cs : path)
        ASSERT_NE(client.submitFrame(id, cs, &err), 0u) << err;
    for (int k = 0; k < FRAMES; ++k) {
        ClientFrame frame;
        ASSERT_TRUE(client.nextFrame(frame, &err)) << err;
        ASSERT_TRUE(frame.ok());
        EXPECT_GT(frame.latency_ms, 0.0);
    }

    // The scrape and the in-process typed reads see the same series.
    std::string text;
    ASSERT_TRUE(client.fetchMetricsText(text, &err)) << err;
    const server::ServerStatsSnapshot snap = h.srv->stats();
    const auto &cls = snap.cls[int(server::QosClass::Interactive)];
    EXPECT_EQ(cls.submitted, uint64_t(FRAMES));
    EXPECT_EQ(cls.served, uint64_t(FRAMES));
    EXPECT_GT(cls.p50_ms, 0.0);
    const std::string q = "{qos=\"interactive\"}";
    EXPECT_EQ(expositionValue(text, "asdr_frames_submitted_total" + q),
              double(cls.submitted));
    EXPECT_EQ(expositionValue(text, "asdr_frames_admitted_total" + q),
              double(cls.admitted));
    EXPECT_EQ(expositionValue(text, "asdr_frames_coalesced_total" + q),
              double(cls.coalesced));
    EXPECT_EQ(expositionValue(text, "asdr_frames_dropped_total" + q),
              double(cls.dropped));
    EXPECT_EQ(expositionValue(text, "asdr_frames_failed_total" + q),
              double(cls.failed));
    EXPECT_EQ(expositionValue(text, "asdr_frames_expired_total" + q),
              double(cls.expired));
    EXPECT_EQ(expositionValue(text, "asdr_frames_served_total{qos=\""
                                    "interactive\",rung=\"full\"}"),
              double(cls.served));
    EXPECT_EQ(expositionValue(text, "asdr_frame_latency_seconds_count" + q),
              double(cls.served));
    EXPECT_EQ(
        expositionValue(text, "asdr_frame_queue_wait_seconds_count" + q),
        double(cls.admitted + cls.coalesced));

    // Per-scene series.
    const server::SceneServeStats *chair = nullptr;
    for (const auto &scene : snap.scenes)
        if (scene.name == "Chair")
            chair = &scene;
    ASSERT_NE(chair, nullptr);
    EXPECT_EQ(chair->submitted, uint64_t(FRAMES));
    EXPECT_EQ(chair->served, uint64_t(FRAMES));
    EXPECT_GE(chair->peak_in_flight, 1);
    const std::string sc = "{scene=\"Chair\"}";
    EXPECT_EQ(expositionValue(text, "asdr_scene_frames_submitted_total" + sc),
              double(chair->submitted));
    EXPECT_EQ(expositionValue(text, "asdr_scene_frames_served_total{scene="
                                    "\"Chair\",rung=\"full\"}"),
              double(chair->served));
    EXPECT_EQ(expositionValue(text, "asdr_scene_peak_in_flight" + sc),
              double(chair->peak_in_flight));

    // Every wire counter. The scrape's own reply is flushed (and
    // counted) after its text was rendered, and the count lands just
    // after the send: wait for it.
    const double sent_before_reply =
        expositionValue(text, "asdr_wire_bytes_tx_total");
    const double reply_bytes = double(kHeaderSize + 4 + text.size());
    WireCounters wc = h.service->counters();
    for (int spin = 0;
         spin < 400 && double(wc.bytes_tx) < sent_before_reply + reply_bytes;
         ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        wc = h.service->counters();
    }
    EXPECT_EQ(double(wc.bytes_tx), sent_before_reply + reply_bytes);
    const std::pair<const char *, uint64_t> wire[] = {
        {"asdr_wire_connections_accepted_total", wc.connections_accepted},
        {"asdr_wire_connections_open", wc.connections_open},
        {"asdr_wire_sessions_opened_total", wc.sessions_opened},
        {"asdr_wire_frames_sent_total", wc.frames_sent},
        {"asdr_wire_results_shed_total", wc.results_shed},
        {"asdr_wire_results_parked_total", wc.results_parked},
        {"asdr_wire_sessions_resumed_total", wc.sessions_resumed},
        {"asdr_wire_sessions_expired_total", wc.sessions_expired},
        {"asdr_wire_bytes_rx_total", wc.bytes_rx},
        {"asdr_wire_frame_payload_bytes_total", wc.frame_payload_bytes},
        {"asdr_wire_frame_raw_bytes_total", wc.frame_raw_bytes},
    };
    for (const auto &w : wire)
        EXPECT_EQ(expositionValue(text, w.first), double(w.second))
            << w.first;
    EXPECT_EQ(wc.frames_sent, uint64_t(FRAMES));
    EXPECT_EQ(wc.frame_raw_bytes, uint64_t(FRAMES) * rawFrameBytes(16, 16));
    EXPECT_EQ(wc.frame_payload_bytes, client.transfer().payload_bytes);
    EXPECT_EQ(wc.sessions_opened, 1u);
    EXPECT_EQ(wc.connections_open, 1u);

    client.closeSession(id, &err);
}

// --------------------------------------------------------- wire workload

TEST(NetService, WireWorkloadDrivesIdenticalTrafficShape)
{
    server::ServerConfig scfg;
    scfg.threads_per_shard = 2;
    scfg.frames_in_flight_per_shard = 4;
    Harness h({}, scfg);

    server::WorkloadSpec spec;
    spec.scenes = {"Lego", "Chair"};
    spec.clients[int(server::QosClass::Interactive)] = 2;
    spec.clients[int(server::QosClass::Standard)] = 1;
    spec.clients[int(server::QosClass::Batch)] = 1;
    spec.frames_per_client = 3;
    spec.width = 16;
    spec.height = 16;
    spec.burst = 2;

    server::WireWorkloadOptions wire;
    wire.port = h.port();
    wire.encoding = FrameEncoding::DeltaPrev;
    const server::WorkloadReport report =
        server::runWorkloadOverWire(h.registry, spec, wire);

    EXPECT_TRUE(report.over_wire);
    EXPECT_EQ(report.viewers, 4u);
    EXPECT_EQ(report.results, 12u);
    uint64_t submitted = 0, accounted = 0;
    for (int c = 0; c < server::kQosClasses; ++c) {
        submitted += report.stats.cls[c].submitted;
        accounted += report.stats.cls[c].served +
                     report.stats.cls[c].dropped +
                     report.stats.cls[c].failed;
    }
    EXPECT_EQ(submitted, 12u);
    EXPECT_EQ(accounted, 12u);
    // The viewers count what they receive; the server must have
    // accounted for every wire-submitted ticket exactly once, and the
    // two views must agree per class and per scene. Outcomes are
    // recorded before delivery, so the counts are final here.
    const server::ServerStatsSnapshot snap = h.srv->stats();
    const std::string text = h.srv->metricsText();
    uint64_t server_submitted = 0, server_terminal = 0;
    for (int c = 0; c < server::kQosClasses; ++c) {
        const server::QosClassStats &s = snap.cls[c];
        const server::QosClassStats &r = report.stats.cls[c];
        const uint64_t want =
            uint64_t(spec.clients[c]) * uint64_t(spec.frames_per_client);
        EXPECT_EQ(s.submitted, want) << c;
        EXPECT_EQ(s.served + s.dropped + s.failed + s.expired, want) << c;
        EXPECT_EQ(r.submitted, s.submitted) << c;
        EXPECT_EQ(r.served, s.served) << c;
        EXPECT_EQ(r.dropped, s.dropped) << c;
        EXPECT_EQ(r.failed, s.failed) << c;
        EXPECT_EQ(r.expired, s.expired) << c;
        const std::string q = std::string("{qos=\"") +
                              server::qosClassName(server::QosClass(c)) +
                              "\"}";
        EXPECT_EQ(expositionValue(text, "asdr_frames_submitted_total" + q),
                  double(want))
            << c;
        server_submitted += s.submitted;
        server_terminal += s.served + s.dropped + s.failed + s.expired;
    }
    EXPECT_EQ(server_submitted, 12u);
    EXPECT_EQ(server_terminal, 12u);
    ASSERT_EQ(report.stats.scenes.size(), snap.scenes.size());
    for (const server::SceneServeStats &s : snap.scenes) {
        EXPECT_EQ(s.submitted, 6u) << s.name;
        EXPECT_EQ(s.served + s.dropped + s.failed + s.expired, 6u) << s.name;
        bool seen = false;
        for (const server::SceneServeStats &r : report.stats.scenes)
            if (r.name == s.name) {
                seen = true;
                EXPECT_EQ(r.submitted, s.submitted) << s.name;
                EXPECT_EQ(r.served, s.served) << s.name;
                EXPECT_EQ(r.dropped, s.dropped) << s.name;
                EXPECT_EQ(r.failed, s.failed) << s.name;
                EXPECT_EQ(r.expired, s.expired) << s.name;
            }
        EXPECT_TRUE(seen) << s.name;
    }
    EXPECT_GT(report.wire_frames, 0u);
    EXPECT_GT(report.wire_raw_bytes, report.wire_payload_bytes);
}
