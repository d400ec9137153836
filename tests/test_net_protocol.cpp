/**
 * @file
 * Hardening guarantees of the wire protocol and the frame codec
 * (src/net/protocol, src/net/frame_codec):
 *
 *  - every message roundtrips bit-exactly through its codec;
 *  - every decoder rejects truncated, oversized, bad-magic,
 *    wrong-version, out-of-range, and trailing-garbage buffers
 *    cleanly (false, no crash, no out-of-bounds read);
 *  - random-byte fuzzing of every payload decoder never crashes;
 *  - frame encodings: raw and delta roundtrip byte-exactly (delta
 *    both with and without a reference), quantized8 stays within its
 *    published error bound, and the zero-RLE back end survives
 *    corrupt streams;
 *  - on a rendered small-step orbit, quantized8 and delta each stream
 *    at least 2x fewer bytes than raw.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/renderer.hpp"
#include "image/image.hpp"
#include "nerf/camera.hpp"
#include "nerf/procedural_field.hpp"
#include "net/frame_codec.hpp"
#include "net/protocol.hpp"
#include "scene/scene_library.hpp"

using namespace asdr;
using namespace asdr::net;

namespace {

/** Deterministic pseudo-random image (values roughly in [0, 1.2] with
 *  exact-zero background runs, like a real render). */
Image
testImage(int w, int h, uint32_t seed, float background_fraction = 0.4f)
{
    Image img(w, h);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> value(0.0f, 1.2f);
    std::uniform_real_distribution<float> coin(0.0f, 1.0f);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            if (coin(rng) < background_fraction)
                img.at(x, y) = Vec3(0.0f);
            else
                img.at(x, y) = Vec3(value(rng), value(rng), value(rng));
        }
    return img;
}

void
expectImagesBitExact(const Image &a, const Image &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                             a.pixels() * sizeof(Vec3)));
}

/** Decode helper: the full wire path (header + payload) for a packed
 *  buffer, as the client/service read loops run it. */
template <typename Msg>
bool
unpack(const std::vector<uint8_t> &buf, MsgType want, Msg &out)
{
    if (buf.size() < kHeaderSize)
        return false;
    MsgHeader hdr;
    if (decodeHeader(buf.data(), kHeaderSize, hdr) != WireError::None)
        return false;
    if (hdr.type != want || buf.size() != kHeaderSize + hdr.length)
        return false;
    return decodePayload(buf.data() + kHeaderSize, hdr.length, out);
}

/** Every truncation of a packed message must fail cleanly. */
template <typename Msg>
void
expectTruncationsRejected(const std::vector<uint8_t> &buf, MsgType type)
{
    for (size_t n = 0; n < buf.size(); ++n) {
        std::vector<uint8_t> cut(buf.begin(),
                                 buf.begin() + std::ptrdiff_t(n));
        Msg out;
        EXPECT_FALSE(unpack(cut, type, out)) << "prefix length " << n;
    }
    // ... and so must trailing garbage.
    std::vector<uint8_t> extra = buf;
    extra.push_back(0xAB);
    Msg out;
    EXPECT_FALSE(unpack(extra, type, out));
}

CameraSpec
testCamera()
{
    CameraSpec cs;
    cs.pos = Vec3(0.5f, 0.6f, -0.9f);
    cs.look_at = Vec3(0.5f, 0.5f, 0.5f);
    cs.up = Vec3(0.0f, 1.0f, 0.0f);
    cs.fov_deg = 45.0f;
    cs.width = 32;
    cs.height = 24;
    return cs;
}

} // namespace

// ------------------------------------------------------------ primitives

TEST(WireFormat, LittleEndianOnTheWire)
{
    WireWriter w;
    w.u32(0x01020304u);
    ASSERT_EQ(w.data().size(), 4u);
    EXPECT_EQ(w.data()[0], 0x04);
    EXPECT_EQ(w.data()[1], 0x03);
    EXPECT_EQ(w.data()[2], 0x02);
    EXPECT_EQ(w.data()[3], 0x01);

    WireWriter w2;
    w2.u16(0xBEEF);
    EXPECT_EQ(w2.data()[0], 0xEF);
    EXPECT_EQ(w2.data()[1], 0xBE);

    // f32 travels as its IEEE bits, LE: 1.0f = 0x3F800000.
    WireWriter w3;
    w3.f32(1.0f);
    EXPECT_EQ(w3.data()[0], 0x00);
    EXPECT_EQ(w3.data()[3], 0x3F);
}

TEST(WireFormat, ReaderIsFailStickAndBounded)
{
    const uint8_t bytes[] = {1, 2, 3};
    WireReader r(bytes, sizeof bytes);
    uint32_t v;
    EXPECT_FALSE(r.u32(v)); // needs 4, has 3
    EXPECT_FALSE(r.ok());
    uint8_t b;
    EXPECT_FALSE(r.u8(b)); // poisoned: even in-range reads fail now
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireFormat, StringCapEnforced)
{
    WireWriter w;
    w.u32(kMaxString + 1); // length prefix beyond the cap
    std::vector<uint8_t> buf = w.take();
    buf.resize(buf.size() + kMaxString + 1, 'x');
    WireReader r(buf.data(), buf.size());
    std::string s;
    EXPECT_FALSE(r.str(s));
}

// --------------------------------------------------------------- framing

TEST(Framing, HeaderRoundTripAndRejections)
{
    MsgHeader h;
    h.type = MsgType::SubmitFrame;
    h.length = 1234;
    WireWriter w;
    encodeHeader(h, w);
    ASSERT_EQ(w.data().size(), kHeaderSize);

    MsgHeader got;
    EXPECT_EQ(decodeHeader(w.data().data(), kHeaderSize, got),
              WireError::None);
    EXPECT_EQ(got.type, MsgType::SubmitFrame);
    EXPECT_EQ(got.length, 1234u);
    EXPECT_EQ(got.version, kProtocolVersion);

    // Truncated header.
    EXPECT_EQ(decodeHeader(w.data().data(), kHeaderSize - 1, got),
              WireError::BadMessage);

    // Bad magic.
    std::vector<uint8_t> bad = w.data();
    bad[0] ^= 0xFF;
    EXPECT_EQ(decodeHeader(bad.data(), bad.size(), got),
              WireError::BadMagic);

    // Oversized length field (a memory-exhaustion probe).
    MsgHeader big;
    big.type = MsgType::FrameResult;
    big.length = kMaxPayload + 1;
    WireWriter wb;
    encodeHeader(big, wb);
    EXPECT_EQ(decodeHeader(wb.data().data(), kHeaderSize, got),
              WireError::Oversized);
}

// ----------------------------------------------------- message roundtrips

TEST(Messages, HelloRoundTrip)
{
    HelloMsg msg;
    msg.version = kProtocolVersion;
    auto buf = packMessage(MsgType::Hello, msg);
    HelloMsg got;
    ASSERT_TRUE(unpack(buf, MsgType::Hello, got));
    EXPECT_EQ(got.version, kProtocolVersion);
    expectTruncationsRejected<HelloMsg>(buf, MsgType::Hello);
}

TEST(Messages, HelloOkRoundTrip)
{
    HelloOkMsg msg;
    msg.server = "asdr-render-service";
    auto buf = packMessage(MsgType::HelloOk, msg);
    HelloOkMsg got;
    ASSERT_TRUE(unpack(buf, MsgType::HelloOk, got));
    EXPECT_EQ(got.server, msg.server);
    expectTruncationsRejected<HelloOkMsg>(buf, MsgType::HelloOk);
}

TEST(Messages, OpenSessionRoundTripAndRangeChecks)
{
    OpenSessionMsg msg;
    msg.scene = "Lego";
    msg.qos = 2;
    msg.encoding = uint8_t(FrameEncoding::DeltaPrev);
    auto buf = packMessage(MsgType::OpenSession, msg);
    OpenSessionMsg got;
    ASSERT_TRUE(unpack(buf, MsgType::OpenSession, got));
    EXPECT_EQ(got.scene, "Lego");
    EXPECT_EQ(got.qos, 2);
    EXPECT_EQ(got.encoding, uint8_t(FrameEncoding::DeltaPrev));
    expectTruncationsRejected<OpenSessionMsg>(buf, MsgType::OpenSession);

    // Out-of-range enums and empty scene names are rejected.
    OpenSessionMsg bad = msg;
    bad.qos = 3;
    auto bbuf = packMessage(MsgType::OpenSession, bad);
    EXPECT_FALSE(unpack(bbuf, MsgType::OpenSession, got));
    bad = msg;
    bad.encoding = 200;
    bbuf = packMessage(MsgType::OpenSession, bad);
    EXPECT_FALSE(unpack(bbuf, MsgType::OpenSession, got));
    bad = msg;
    bad.scene.clear();
    bbuf = packMessage(MsgType::OpenSession, bad);
    EXPECT_FALSE(unpack(bbuf, MsgType::OpenSession, got));
}

TEST(Messages, CameraSpecRoundTripAndValidation)
{
    SubmitFrameMsg msg;
    msg.session = 77;
    msg.camera = testCamera();
    auto buf = packMessage(MsgType::SubmitFrame, msg);
    SubmitFrameMsg got;
    ASSERT_TRUE(unpack(buf, MsgType::SubmitFrame, got));
    EXPECT_EQ(got.session, 77u);
    EXPECT_EQ(got.camera.pos, msg.camera.pos);
    EXPECT_EQ(got.camera.look_at, msg.camera.look_at);
    EXPECT_EQ(got.camera.fov_deg, msg.camera.fov_deg);
    EXPECT_EQ(got.camera.width, msg.camera.width);
    EXPECT_EQ(got.camera.height, msg.camera.height);
    expectTruncationsRejected<SubmitFrameMsg>(buf, MsgType::SubmitFrame);

    // Degenerate geometry and non-finite poses are rejected.
    SubmitFrameMsg bad = msg;
    bad.camera.width = 0;
    EXPECT_FALSE(unpack(packMessage(MsgType::SubmitFrame, bad),
                        MsgType::SubmitFrame, got));
    bad = msg;
    bad.camera.fov_deg = 0.0f;
    EXPECT_FALSE(unpack(packMessage(MsgType::SubmitFrame, bad),
                        MsgType::SubmitFrame, got));
    bad = msg;
    bad.camera.fov_deg = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(unpack(packMessage(MsgType::SubmitFrame, bad),
                        MsgType::SubmitFrame, got));
    bad = msg;
    bad.camera.pos.x = std::numeric_limits<float>::infinity();
    EXPECT_FALSE(unpack(packMessage(MsgType::SubmitFrame, bad),
                        MsgType::SubmitFrame, got));
}

TEST(Messages, FrameResultRoundTripAndRangeChecks)
{
    FrameResultMsg msg;
    msg.session = 5;
    msg.ticket = 99;
    msg.status = uint8_t(FrameStatus::Ok);
    msg.encoding = uint8_t(FrameEncoding::Quantized8);
    msg.width = 32;
    msg.height = 32;
    msg.latency_ms = 12.5;
    msg.payload = {1, 2, 3, 4, 5};
    auto buf = packMessage(MsgType::FrameResult, msg);
    FrameResultMsg got;
    ASSERT_TRUE(unpack(buf, MsgType::FrameResult, got));
    EXPECT_EQ(got.ticket, 99u);
    EXPECT_EQ(got.payload, msg.payload);
    EXPECT_EQ(got.latency_ms, 12.5);
    expectTruncationsRejected<FrameResultMsg>(buf, MsgType::FrameResult);

    // DeadlineExceeded (v2) is a valid status; past it is not.
    FrameResultMsg expired = msg;
    expired.status = uint8_t(FrameStatus::DeadlineExceeded);
    expired.payload.clear();
    EXPECT_TRUE(unpack(packMessage(MsgType::FrameResult, expired),
                       MsgType::FrameResult, got));
    EXPECT_EQ(got.status, uint8_t(FrameStatus::DeadlineExceeded));

    FrameResultMsg bad = msg;
    bad.status = uint8_t(FrameStatus::DeadlineExceeded) + 1;
    EXPECT_FALSE(unpack(packMessage(MsgType::FrameResult, bad),
                        MsgType::FrameResult, got));
    bad = msg;
    bad.status = 17;
    EXPECT_FALSE(unpack(packMessage(MsgType::FrameResult, bad),
                        MsgType::FrameResult, got));
    bad = msg;
    bad.encoding = 9;
    EXPECT_FALSE(unpack(packMessage(MsgType::FrameResult, bad),
                        MsgType::FrameResult, got));

    // Geometry past kMaxFrameBytes is refused, payload or requested
    // size alike: a 1x1 Raw payload claiming a 65535^2 upscale target
    // would otherwise make the client allocate ~51 GB.
    bad = msg;
    bad.encoding = uint8_t(FrameEncoding::Raw);
    bad.width = bad.height = 1;
    bad.full_width = bad.full_height = 65535;
    bad.payload.assign(rawFrameBytes(1, 1), 0);
    EXPECT_FALSE(unpack(packMessage(MsgType::FrameResult, bad),
                        MsgType::FrameResult, got));
    bad.full_width = bad.full_height = 1;
    bad.width = bad.height = 65535;
    EXPECT_FALSE(unpack(packMessage(MsgType::FrameResult, bad),
                        MsgType::FrameResult, got));
}

TEST(Messages, ResumeMessagesRoundTrip)
{
    {
        ResumeSessionMsg msg;
        msg.session = 77;
        msg.token = 0xDEADBEEFCAFEF00Dull;
        auto buf = packMessage(MsgType::ResumeSession, msg);
        ResumeSessionMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::ResumeSession, got));
        EXPECT_EQ(got.session, 77u);
        EXPECT_EQ(got.token, 0xDEADBEEFCAFEF00Dull);
        expectTruncationsRejected<ResumeSessionMsg>(buf,
                                                    MsgType::ResumeSession);
    }
    {
        ResumeSessionOkMsg msg;
        msg.session = 77;
        msg.parked = 12;
        auto buf = packMessage(MsgType::ResumeSessionOk, msg);
        ResumeSessionOkMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::ResumeSessionOk, got));
        EXPECT_EQ(got.session, 77u);
        EXPECT_EQ(got.parked, 12u);
        expectTruncationsRejected<ResumeSessionOkMsg>(
            buf, MsgType::ResumeSessionOk);
    }
}

TEST(Messages, TelemetrySubscriptionRoundTrips)
{
    {
        SubscribeTelemetryMsg msg;
        msg.enable = 0;
        auto buf = packMessage(MsgType::SubscribeTelemetry, msg);
        SubscribeTelemetryMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::SubscribeTelemetry, got));
        EXPECT_EQ(got.enable, 0);
        expectTruncationsRejected<SubscribeTelemetryMsg>(
            buf, MsgType::SubscribeTelemetry);
    }
    {
        SubscribeTelemetryOkMsg msg;
        msg.enabled = 1;
        auto buf = packMessage(MsgType::SubscribeTelemetryOk, msg);
        SubscribeTelemetryOkMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::SubscribeTelemetryOk, got));
        EXPECT_EQ(got.enabled, 1);
        expectTruncationsRejected<SubscribeTelemetryOkMsg>(
            buf, MsgType::SubscribeTelemetryOk);
    }

    SpanBatchMsg msg;
    msg.seq = 7;
    msg.dropped = 2;
    WireSpan s;
    s.name = "engine.phase2_tiles";
    s.frame = 11;
    s.ticket = 42;
    s.lane = 3;
    s.t_start_us = 1000;
    s.t_end_us = 1500;
    msg.spans.push_back(s);
    s.name = "net.encode";
    s.t_start_us = 1500;
    s.t_end_us = 1501;
    msg.spans.push_back(s);
    auto buf = packMessage(MsgType::SpanBatch, msg);
    SpanBatchMsg got;
    ASSERT_TRUE(unpack(buf, MsgType::SpanBatch, got));
    EXPECT_EQ(got.seq, 7u);
    EXPECT_EQ(got.dropped, 2u);
    ASSERT_EQ(got.spans.size(), 2u);
    EXPECT_EQ(got.spans[0].name, "engine.phase2_tiles");
    EXPECT_EQ(got.spans[0].ticket, 42u);
    EXPECT_EQ(got.spans[0].lane, 3u);
    EXPECT_EQ(got.spans[0].t_start_us, 1000u);
    EXPECT_EQ(got.spans[0].t_end_us, 1500u);
    EXPECT_EQ(got.spans[1].name, "net.encode");
    expectTruncationsRejected<SpanBatchMsg>(buf, MsgType::SpanBatch);

    // Validation: a span with an empty name or a backwards interval is
    // a protocol violation, not a silently accepted record.
    SpanBatchMsg bad = msg;
    bad.spans[0].name.clear();
    buf = packMessage(MsgType::SpanBatch, bad);
    EXPECT_FALSE(unpack(buf, MsgType::SpanBatch, got));
    bad = msg;
    bad.spans[1].t_end_us = bad.spans[1].t_start_us - 1;
    buf = packMessage(MsgType::SpanBatch, bad);
    EXPECT_FALSE(unpack(buf, MsgType::SpanBatch, got));
}

TEST(Messages, RemainingControlRoundTrips)
{
    {
        OpenSessionOkMsg msg;
        msg.session = 31337;
        msg.token = 0x1234567890ABCDEFull;
        auto buf = packMessage(MsgType::OpenSessionOk, msg);
        OpenSessionOkMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::OpenSessionOk, got));
        EXPECT_EQ(got.session, 31337u);
        EXPECT_EQ(got.token, 0x1234567890ABCDEFull);
        expectTruncationsRejected<OpenSessionOkMsg>(buf,
                                                    MsgType::OpenSessionOk);
    }
    {
        CloseSessionMsg msg;
        msg.session = 9;
        auto buf = packMessage(MsgType::CloseSession, msg);
        CloseSessionMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::CloseSession, got));
        EXPECT_EQ(got.session, 9u);
        expectTruncationsRejected<CloseSessionMsg>(buf,
                                                   MsgType::CloseSession);
    }
    {
        SubmitFrameOkMsg msg;
        msg.session = 3;
        msg.ticket = 4;
        auto buf = packMessage(MsgType::SubmitFrameOk, msg);
        SubmitFrameOkMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::SubmitFrameOk, got));
        EXPECT_EQ(got.ticket, 4u);
        expectTruncationsRejected<SubmitFrameOkMsg>(buf,
                                                    MsgType::SubmitFrameOk);
    }
    {
        ErrorMsg msg;
        msg.code = uint32_t(WireError::UnknownScene);
        msg.message = "scene not registered: nope";
        auto buf = packMessage(MsgType::Error, msg);
        ErrorMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::Error, got));
        EXPECT_EQ(got.code, uint32_t(WireError::UnknownScene));
        EXPECT_EQ(got.message, msg.message);
        expectTruncationsRejected<ErrorMsg>(buf, MsgType::Error);
    }
    {
        // GetStats is a bare header: any payload byte is a decode error.
        auto buf = packMessage(MsgType::GetStats, GetStatsMsg{});
        EXPECT_EQ(buf.size(), kHeaderSize);
        GetStatsMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::GetStats, got));
        expectTruncationsRejected<GetStatsMsg>(buf, MsgType::GetStats);
        const uint8_t stray = 1; // e.g. a v7 format selector
        EXPECT_FALSE(decodePayload(&stray, 1, got));
    }
    {
        MetricsReplyMsg msg;
        const std::string text =
            "# TYPE asdr_frames_served_total counter\n"
            "asdr_frames_served_total 42\n";
        msg.text.assign(text.begin(), text.end());
        auto buf = packMessage(MsgType::MetricsReply, msg);
        MetricsReplyMsg got;
        ASSERT_TRUE(unpack(buf, MsgType::MetricsReply, got));
        EXPECT_EQ(std::string(got.text.begin(), got.text.end()), text);
        expectTruncationsRejected<MetricsReplyMsg>(buf,
                                                   MsgType::MetricsReply);
    }
}

// ------------------------------------------------------------------ fuzz

TEST(Fuzz, RandomBuffersNeverCrashAnyDecoder)
{
    std::mt19937 rng(0xA5D12u);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<size_t> len(0, 300);
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<uint8_t> buf(len(rng));
        for (auto &b : buf)
            b = uint8_t(byte(rng));

        MsgHeader hdr;
        (void)decodeHeader(buf.data(), buf.size(), hdr);

        // Every payload decoder must survive arbitrary bytes.
        const uint8_t *p = buf.data();
        const size_t n = buf.size();
        {
            HelloMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            HelloOkMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            OpenSessionMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            OpenSessionOkMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            CloseSessionMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            SubmitFrameMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            FrameResultMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            ErrorMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            GetStatsMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            MetricsReplyMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            SubscribeTelemetryMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            SubscribeTelemetryOkMsg m;
            (void)decodePayload(p, n, m);
        }
        {
            SpanBatchMsg m;
            (void)decodePayload(p, n, m);
        }
    }
}

TEST(Fuzz, BitFlippedRealMessagesNeverCrash)
{
    SubmitFrameMsg msg;
    msg.session = 12;
    msg.camera = testCamera();
    const auto base = packMessage(MsgType::SubmitFrame, msg);
    std::mt19937 rng(1234);
    std::uniform_int_distribution<size_t> pos(0, base.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<uint8_t> buf = base;
        buf[pos(rng)] ^= uint8_t(1 << bit(rng));
        MsgHeader hdr;
        if (decodeHeader(buf.data(), kHeaderSize, hdr) != WireError::None)
            continue;
        if (hdr.length != buf.size() - kHeaderSize)
            continue; // framing would resync/close; not a payload case
        SubmitFrameMsg got;
        (void)decodePayload(buf.data() + kHeaderSize, hdr.length, got);
    }
}

// ------------------------------------------------------------------- RLE

TEST(Rle, RoundTripsEveryShape)
{
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> byte(0, 255);

    std::vector<std::vector<uint8_t>> cases;
    cases.push_back({});                        // empty
    cases.push_back(std::vector<uint8_t>(1000, 0)); // all zeros
    {
        std::vector<uint8_t> v(1000);
        for (auto &b : v)
            b = uint8_t(1 + byte(rng) % 255); // no zeros
        cases.push_back(v);
    }
    {
        std::vector<uint8_t> v(999);
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = i % 2 ? 0 : 0xCD; // alternating (worst case)
        cases.push_back(v);
    }
    {
        std::vector<uint8_t> v(4096);
        for (auto &b : v)
            b = byte(rng) < 150 ? 0 : uint8_t(byte(rng)); // zero-heavy
        cases.push_back(v);
    }
    for (const auto &in : cases) {
        std::vector<uint8_t> packed, back;
        rleCompress(in.data(), in.size(), packed);
        std::string err;
        ASSERT_TRUE(rleDecompress(packed.data(), packed.size(), in.size(),
                                  back, &err))
            << err;
        EXPECT_EQ(back, in);
    }
}

TEST(Rle, CorruptStreamsRejected)
{
    std::vector<uint8_t> in(256, 0);
    in[10] = 5;
    in[200] = 9;
    std::vector<uint8_t> packed;
    rleCompress(in.data(), in.size(), packed);
    std::string err;
    std::vector<uint8_t> back;

    // Truncations of a valid stream.
    for (size_t n = 0; n < packed.size(); ++n)
        EXPECT_FALSE(
            rleDecompress(packed.data(), n, in.size(), back, &err));

    // A stream that produces too many bytes.
    std::vector<uint8_t> over = packed;
    over.push_back(0xFF); // +128 zeros beyond `expected`
    EXPECT_FALSE(rleDecompress(over.data(), over.size(), in.size(), back,
                               &err));

    // A literal token promising bytes the stream does not carry.
    const uint8_t bad[] = {0x7F, 1, 2, 3}; // 128 literals, 3 present
    EXPECT_FALSE(rleDecompress(bad, sizeof bad, 128, back, &err));
}

// ----------------------------------------------------------- frame codec

TEST(FrameCodec, RawRoundTripIsByteExact)
{
    const Image img = testImage(24, 16, 42);
    const auto payload = encodeFramePayload(img, FrameEncoding::Raw, nullptr);
    EXPECT_EQ(payload.size(), rawFrameBytes(24, 16));
    Image back;
    std::string err;
    ASSERT_TRUE(decodeFramePayload(payload.data(), payload.size(),
                                   FrameEncoding::Raw, 24, 16, nullptr,
                                   back, &err))
        << err;
    expectImagesBitExact(img, back);

    // Wrong payload size is rejected, not misinterpreted.
    ASSERT_FALSE(decodeFramePayload(payload.data(), payload.size() - 1,
                                    FrameEncoding::Raw, 24, 16, nullptr,
                                    back, &err));
    ASSERT_FALSE(decodeFramePayload(payload.data(), payload.size(),
                                    FrameEncoding::Raw, 25, 16, nullptr,
                                    back, &err));
}

TEST(FrameCodec, Quantized8StaysWithinBound)
{
    const Image img = testImage(32, 32, 7);
    const auto payload =
        encodeFramePayload(img, FrameEncoding::Quantized8, nullptr);
    EXPECT_EQ(payload.size(), 8 + 32 * 32 * 3);
    Image back;
    std::string err;
    ASSERT_TRUE(decodeFramePayload(payload.data(), payload.size(),
                                   FrameEncoding::Quantized8, 32, 32,
                                   nullptr, back, &err))
        << err;
    // Published bound: each channel within (hi - lo) / 255.
    float lo = img.data()[0].x, hi = lo;
    for (size_t i = 0; i < img.pixels(); ++i)
        for (int ch = 0; ch < 3; ++ch) {
            const float v = (&img.data()[i].x)[ch];
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    const float bound = (hi - lo) / 255.0f + 1e-6f;
    for (size_t i = 0; i < img.pixels(); ++i)
        for (int ch = 0; ch < 3; ++ch)
            EXPECT_NEAR((&img.data()[i].x)[ch], (&back.data()[i].x)[ch],
                        bound);

    // Corrupt range header (NaN lo) is rejected.
    std::vector<uint8_t> bad = payload;
    bad[0] = bad[1] = bad[2] = bad[3] = 0xFF;
    EXPECT_FALSE(decodeFramePayload(bad.data(), bad.size(),
                                    FrameEncoding::Quantized8, 32, 32,
                                    nullptr, back, &err));
}

TEST(FrameCodec, DeltaRoundTripsByteExactWithAndWithoutReference)
{
    const Image ref = testImage(20, 20, 1);
    Image next = ref;
    // Perturb a minority of pixels, as an orbit step would.
    std::mt19937 rng(3);
    std::uniform_int_distribution<int> pick(0, 19);
    for (int k = 0; k < 60; ++k)
        next.at(pick(rng), pick(rng)) += Vec3(1e-3f, -2e-3f, 5e-4f);

    // No reference: in-band absolute, still byte-exact.
    const auto abs_payload =
        encodeFramePayload(next, FrameEncoding::DeltaPrev, nullptr);
    Image back;
    std::string err;
    ASSERT_TRUE(decodeFramePayload(abs_payload.data(), abs_payload.size(),
                                   FrameEncoding::DeltaPrev, 20, 20,
                                   nullptr, back, &err))
        << err;
    expectImagesBitExact(next, back);

    // With the reference: XOR+RLE, byte-exact and much smaller.
    const auto payload =
        encodeFramePayload(next, FrameEncoding::DeltaPrev, &ref);
    ASSERT_TRUE(decodeFramePayload(payload.data(), payload.size(),
                                   FrameEncoding::DeltaPrev, 20, 20, &ref,
                                   back, &err))
        << err;
    expectImagesBitExact(next, back);
    EXPECT_LT(payload.size(), rawFrameBytes(20, 20) / 2)
        << "mostly-unchanged frame should compress well past 2x";

    // Identical frames collapse to almost nothing.
    const auto same = encodeFramePayload(ref, FrameEncoding::DeltaPrev, &ref);
    EXPECT_LT(same.size(), rawFrameBytes(20, 20) / 50);

    // Delta without its reference must be rejected, not misdecoded.
    EXPECT_FALSE(decodeFramePayload(payload.data(), payload.size(),
                                    FrameEncoding::DeltaPrev, 20, 20,
                                    nullptr, back, &err));
    // Geometry-mismatched reference: rejected too.
    const Image wrong = testImage(10, 10, 2);
    EXPECT_FALSE(decodeFramePayload(payload.data(), payload.size(),
                                    FrameEncoding::DeltaPrev, 20, 20,
                                    &wrong, back, &err));
    // Truncated delta payloads: rejected at every cut.
    for (size_t n = 0; n < payload.size(); n += 7)
        EXPECT_FALSE(decodeFramePayload(payload.data(), n,
                                        FrameEncoding::DeltaPrev, 20, 20,
                                        &ref, back, &err));
}

TEST(FrameCodec, EncoderReferenceMismatchFallsBackToAbsolute)
{
    const Image img = testImage(16, 16, 9);
    const Image small_ref = testImage(8, 8, 10);
    // A stale reference of the wrong size must not corrupt the stream:
    // the encoder carries the frame absolute instead.
    const auto payload =
        encodeFramePayload(img, FrameEncoding::DeltaPrev, &small_ref);
    Image back;
    std::string err;
    ASSERT_TRUE(decodeFramePayload(payload.data(), payload.size(),
                                   FrameEncoding::DeltaPrev, 16, 16,
                                   nullptr, back, &err))
        << err;
    expectImagesBitExact(img, back);
}

// The delivery-path data-reuse gate: an orbiting viewer's frames,
// encoded as the service encodes a session's stream (the first frame
// absolute, each DeltaPrev frame against the one before it), must cost
// at most half the raw bytes in either compressed encoding. Rendering
// and encoding are deterministic, so the byte counts never vary.
TEST(FrameCodec, OrbitStreamIsAtLeastTwoTimesSmallerThanRaw)
{
    auto scene = scene::createScene("Lego");
    const nerf::ProceduralField field(*scene, nerf::NgpModelConfig::fast());
    core::RenderConfig cfg = core::RenderConfig::asdr(16, 16, 24);
    cfg.probe_stride = 4;
    const core::AsdrRenderer renderer(field, cfg);

    std::vector<Image> frames;
    for (const nerf::Camera &cam :
         nerf::orbitCameraPath(scene->info(), 16, 16, 10, 0.02f))
        frames.push_back(renderer.render(cam));

    size_t raw = 0, quantized = 0, delta = 0;
    for (size_t f = 0; f < frames.size(); ++f) {
        raw += encodeFramePayload(frames[f], FrameEncoding::Raw, nullptr)
                   .size();
        quantized += encodeFramePayload(frames[f], FrameEncoding::Quantized8,
                                        nullptr)
                         .size();
        delta += encodeFramePayload(frames[f], FrameEncoding::DeltaPrev,
                                    f ? &frames[f - 1] : nullptr)
                     .size();
    }
    EXPECT_EQ(raw, frames.size() * rawFrameBytes(16, 16));
    EXPECT_GE(double(raw) / double(quantized), 2.0) << quantized << " B";
    EXPECT_GE(double(raw) / double(delta), 2.0) << delta << " B";
}
