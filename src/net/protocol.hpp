/**
 * @file
 * Versioned binary wire protocol of the render service: the message
 * vocabulary a client and the socket front end exchange over TCP.
 *
 * Every message is one frame on the wire:
 *
 *   header (12 bytes, little-endian):
 *     u32 magic    'ASDR' (0x52445341)
 *     u16 version  protocol revision; mismatches are rejected at Hello
 *     u16 type     MsgType
 *     u32 length   payload bytes following the header (<= kMaxPayload)
 *   payload: the message struct's explicit little-endian encoding.
 *
 * All codecs are explicit byte-at-a-time little-endian (no struct
 * memcpy, no host-endian assumptions) and decoding is hardened: every
 * read is bounds-checked through WireReader (fail-stick: the first
 * out-of-range read poisons the reader), strings and payloads carry
 * length prefixes validated against hard caps, enums are range-checked,
 * and a decoder accepts a buffer only when it consumes it exactly --
 * truncated, oversized, or trailing-garbage buffers are rejected
 * without reading out of bounds (fuzz-exercised by
 * tests/test_net_protocol.cpp).
 *
 * The conversation (client -> service unless noted):
 *
 *   Hello / HelloOk          version handshake; must come first
 *   OpenSession / -Ok        scene + QoS class + frame encoding; the
 *                            reply carries the session's resume token
 *   SubmitFrame / -Ok        one camera pose; replies with the ticket
 *   FrameResult (service)    async, any time after SubmitFrame: the
 *                            encoded frame (or its drop/failure notice)
 *   ResumeSession / -Ok      re-attach a session that lost its TCP
 *                            connection (token-authenticated, within
 *                            the service's resume grace period). The
 *                            delta reference chain restarts: the first
 *                            Ok frame after a resume travels absolute
 *                            in-band, so the resumed stream is byte-
 *                            exact regardless of what the old
 *                            connection lost in flight.
 *   CloseSession / -Ok       sheds pending frames; the Ok follows
 *                            every result of the session
 *   GetStats / MetricsReply  the server's metrics as Prometheus text
 *   GetTrace / SpanBatch...  set span recording on or off; answered
 *                            with every span the service's rings hold,
 *                            in SpanBatch chunks, the last one flagged
 *   Error (service)          failed request, or protocol violation
 *                            (violations are followed by a close)
 */

#ifndef ASDR_NET_PROTOCOL_HPP
#define ASDR_NET_PROTOCOL_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nerf/camera.hpp"
#include "util/vec.hpp"

namespace asdr::net {

constexpr uint32_t kMagic = 0x52445341u; // 'A','S','D','R' on the wire
/** v2: ResumeSession/-Ok, resume tokens in OpenSessionOk, the
 *  DeadlineExceeded frame status, and fault-model stats fields. */
/** v3: FrameResult carries the quality-ladder rung + requested dims;
 *  StatsReply carries per-class/per-scene rung occupancy. */
/** v4: StatsReply per-scene sections carry the four counters of the
 *  per-scene density memo (hits/misses/evictions/epoch_drops). */
/** v5: GetStats carries a format selector (binary StatsReply or
 *  Prometheus text) and MetricsReply carries the text exposition. */
/** v6: a subscribe request and reply (types 16, 17) + SpanBatch stream
 *  live stage spans to a subscribed client; WireCounters count span
 *  batches sent/dropped; StatsReply per-class sections carry the SLO
 *  burn-rate fields. */
/** v7: StatsReply per-scene sections drop the four v4 memo counters
 *  (the memo was removed). */
/** v8: GetStats has an empty payload and always answers MetricsReply
 *  (the server's exposition); StatsReply (type 11), its codecs and the
 *  v5 format selector are gone. */
/** v9: GetTrace (type 19) replaces v6's live span stream and its
 *  subscribe messages (types 16 and 17 are gone). SpanBatch is its
 *  only reply, and its header carries the overwritten count, the
 *  replaced recording state and a last-chunk flag. */
constexpr uint16_t kProtocolVersion = 9;
constexpr size_t kHeaderSize = 12;
/** Hard cap on one message's payload; oversized headers are a protocol
 *  violation (a 4K frame is ~200 MB raw -- far beyond this service's
 *  scope, and an unchecked length field is a memory-exhaustion vector). */
constexpr uint32_t kMaxPayload = 64u << 20;
/**
 * Cap on CLIENT -> SERVICE payloads, enforced before buffering: every
 * request message is tiny (the largest, SubmitFrame, is ~70 bytes), so
 * a header claiming more is an attack on the service's input buffers,
 * not a real request. Only service -> client frames need kMaxPayload.
 */
constexpr uint32_t kMaxRequestPayload = 64u * 1024;
/** Cap on one frame's RAW bytes (w*h*12). Kept well under kMaxPayload
 *  so every encoding of an admitted frame -- including the delta RLE's
 *  ~n/128 worst-case expansion -- still fits a single message. */
constexpr uint32_t kMaxFrameBytes = 32u << 20;
/** Cap on any string field (scene names, error text). */
constexpr uint32_t kMaxString = 4096;
/** Cap on spans in one SpanBatch chunk: bounds the decode allocation
 *  a hostile count could ask for. */
constexpr uint32_t kMaxSpansPerBatch = 65536;

enum class MsgType : uint16_t
{
    Hello = 1,
    HelloOk = 2,
    OpenSession = 3,
    OpenSessionOk = 4,
    CloseSession = 5,
    CloseSessionOk = 6,
    SubmitFrame = 7,
    SubmitFrameOk = 8,
    FrameResult = 9,
    GetStats = 10,
    Error = 12,
    ResumeSession = 13,
    ResumeSessionOk = 14,
    MetricsReply = 15,
    SpanBatch = 18,
    GetTrace = 19,
};

const char *msgTypeName(MsgType t);

/** Error codes carried by ErrorMsg. */
enum class WireError : uint32_t
{
    None = 0,
    BadMagic = 1,
    BadVersion = 2,
    BadMessage = 3,    ///< undecodable payload (protocol violation)
    NeedHello = 4,     ///< non-Hello message before the handshake
    UnknownScene = 5,
    UnknownSession = 6,
    Rejected = 7,      ///< submit refused (session closing)
    Oversized = 8,     ///< header length beyond kMaxPayload
    ServerShutdown = 9,
    ResumeFailed = 10, ///< unknown/expired session or bad resume token
};

// ------------------------------------------------------------- primitives

/** Append-only little-endian encoder over a byte vector. */
class WireWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void u16(uint16_t v) { le(v, 2); }
    void u32(uint32_t v) { le(v, 4); }
    void u64(uint64_t v) { le(v, 8); }
    void f32(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u32(bits);
    }
    void f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void vec3(const Vec3 &v)
    {
        f32(v.x);
        f32(v.y);
        f32(v.z);
    }
    /** u32 length + raw bytes. */
    void str(const std::string &s)
    {
        u32(uint32_t(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }
    void bytes(const std::vector<uint8_t> &b)
    {
        u32(uint32_t(b.size()));
        buf_.insert(buf_.end(), b.begin(), b.end());
    }

    /** Overwrites the u32 written at byte `at`. */
    void patchU32(size_t at, uint32_t v)
    {
        for (size_t i = 0; i < 4; ++i)
            buf_[at + i] = uint8_t(v >> (8 * i));
    }

    const std::vector<uint8_t> &data() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    /** The low `n` bytes of `v`, least significant first, through one
     *  resize per value: GCC called push_back out of line once per
     *  byte, which more than doubled a SpanBatch's encode time. */
    void le(uint64_t v, size_t n)
    {
        const size_t at = buf_.size();
        buf_.resize(at + n);
        for (size_t i = 0; i < n; ++i)
            buf_[at + i] = uint8_t(v >> (8 * i));
    }

    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian decoder. Fail-stick: the first read past
 * the end (or past a cap) sets the error flag, and every subsequent
 * read returns false, so decoders can chain reads and check once.
 */
class WireReader
{
  public:
    WireReader(const uint8_t *data, size_t size) : p_(data), n_(size) {}

    bool u8(uint8_t &v)
    {
        if (!need(1))
            return false;
        v = p_[off_++];
        return true;
    }
    bool u16(uint16_t &v)
    {
        if (!need(2))
            return false;
        v = uint16_t(p_[off_]) | uint16_t(p_[off_ + 1]) << 8;
        off_ += 2;
        return true;
    }
    bool u32(uint32_t &v)
    {
        if (!need(4))
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(p_[off_ + size_t(i)]) << (8 * i);
        off_ += 4;
        return true;
    }
    bool u64(uint64_t &v)
    {
        if (!need(8))
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t(p_[off_ + size_t(i)]) << (8 * i);
        off_ += 8;
        return true;
    }
    bool f32(float &v)
    {
        uint32_t bits;
        if (!u32(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }
    bool f64(double &v)
    {
        uint64_t bits;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }
    bool vec3(Vec3 &v) { return f32(v.x) && f32(v.y) && f32(v.z); }
    bool str(std::string &s)
    {
        uint32_t len;
        if (!u32(len) || len > kMaxString || !need(len))
            return fail();
        s.assign(reinterpret_cast<const char *>(p_ + off_), len);
        off_ += len;
        return true;
    }
    bool bytes(std::vector<uint8_t> &b)
    {
        uint32_t len;
        if (!u32(len) || len > kMaxPayload || !need(len))
            return fail();
        b.assign(p_ + off_, p_ + off_ + len);
        off_ += len;
        return true;
    }

    bool ok() const { return !failed_; }
    size_t remaining() const { return failed_ ? 0 : n_ - off_; }
    /** A strict decoder requires the buffer consumed exactly. */
    bool atEnd() const { return !failed_ && off_ == n_; }

  private:
    bool need(size_t k)
    {
        if (failed_ || n_ - off_ < k)
            return fail();
        return true;
    }
    bool fail()
    {
        failed_ = true;
        return false;
    }

    const uint8_t *p_;
    size_t n_;
    size_t off_ = 0;
    bool failed_ = false;
};

// ---------------------------------------------------------------- framing

struct MsgHeader
{
    uint16_t version = kProtocolVersion;
    MsgType type = MsgType::Error;
    uint32_t length = 0; ///< payload bytes after the header
};

/** Serialize a header (always kHeaderSize bytes). */
void encodeHeader(const MsgHeader &h, WireWriter &w);

/**
 * Parse a header from the first kHeaderSize bytes of `data`. Magic and
 * length are validated here (framing integrity); the version is left to
 * the Hello handshake so a mismatch gets a proper Error reply.
 * @return WireError::None, or why the framing is unusable.
 */
WireError decodeHeader(const uint8_t *data, size_t size, MsgHeader &out);

/** header + payload, ready to send: the payload is encoded behind a
 *  header whose length field is then patched, in one buffer. */
template <typename Msg>
std::vector<uint8_t>
packMessage(MsgType type, const Msg &msg)
{
    MsgHeader h;
    h.type = type;
    WireWriter w;
    encodeHeader(h, w);
    msg.encode(w);
    w.patchU32(kHeaderSize - 4, uint32_t(w.data().size() - kHeaderSize));
    return w.take();
}

/** Strict payload decode: every field read AND the buffer consumed
 *  exactly. The template keeps call sites one-line. */
template <typename Msg>
bool
decodePayload(const uint8_t *data, size_t size, Msg &out)
{
    WireReader r(data, size);
    return out.decode(r) && r.atEnd();
}

// --------------------------------------------------------------- messages

struct HelloMsg
{
    uint16_t version = kProtocolVersion;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct HelloOkMsg
{
    uint16_t version = kProtocolVersion;
    std::string server; ///< human-readable service banner

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

/** Camera pose + frame geometry: everything needed to reconstruct the
 *  nerf::Camera server-side (resolution is camera-borne end to end). */
struct CameraSpec
{
    Vec3 pos{0.0f, 0.0f, 0.0f};
    Vec3 look_at{0.0f, 0.0f, 1.0f};
    Vec3 up{0.0f, 1.0f, 0.0f};
    float fov_deg = 45.0f;
    uint16_t width = 1;
    uint16_t height = 1;

    nerf::Camera toCamera() const
    {
        return nerf::Camera(pos, look_at, up, fov_deg, width, height);
    }

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct OpenSessionMsg
{
    std::string scene;
    uint8_t qos = 1;      ///< server::QosClass, range-checked on decode
    uint8_t encoding = 0; ///< FrameEncoding, range-checked on decode

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct OpenSessionOkMsg
{
    uint64_t session = 0;
    /** Resume credential: presented by ResumeSession to re-attach the
     *  session after a connection loss. */
    uint64_t token = 0;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct ResumeSessionMsg
{
    uint64_t session = 0;
    uint64_t token = 0;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct ResumeSessionOkMsg
{
    uint64_t session = 0;
    /** FrameResults that completed while detached; they are replayed,
     *  in order, immediately after this reply. */
    uint32_t parked = 0;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct CloseSessionMsg
{
    uint64_t session = 0;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct CloseSessionOkMsg
{
    uint64_t session = 0;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct SubmitFrameMsg
{
    uint64_t session = 0;
    CameraSpec camera;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct SubmitFrameOkMsg
{
    uint64_t session = 0;
    uint64_t ticket = 0;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

/** Outcome of one FrameResult on the wire. */
enum class FrameStatus : uint8_t
{
    Ok = 0,      ///< payload holds the encoded frame
    Dropped = 1, ///< shed by the QoS backlog policy; no payload
    Failed = 2,  ///< render threw; payload holds the error text
    Shed = 3,    ///< payload shed by connection backpressure
    /** Expired in the admission queue past its QoS-class deadline;
     *  never rendered, no payload. */
    DeadlineExceeded = 4,
};

struct FrameResultMsg
{
    uint64_t session = 0;
    uint64_t ticket = 0;
    uint8_t status = 0;   ///< FrameStatus, range-checked on decode
    uint8_t encoding = 0; ///< FrameEncoding of the payload
    /** server::QualityRung the frame was served at (range-checked). */
    uint8_t rung = 0;
    /** Payload frame dims -- the resolution actually rendered. */
    uint16_t width = 0;
    uint16_t height = 0;
    /** The resolution the client requested. Equal to width/height
     *  except at reduced-resolution rungs, where the client upscales
     *  the payload back to full_width x full_height. */
    uint16_t full_width = 0;
    uint16_t full_height = 0;
    /** Server-side submit -> delivery latency, milliseconds. */
    double latency_ms = 0.0;
    /** Encoded frame (Ok), error text bytes (Failed), else empty. */
    std::vector<uint8_t> payload;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

/** Ask for the server's metrics; the payload is empty. */
struct GetStatsMsg
{
    void encode(WireWriter &) const {}
    bool decode(WireReader &) { return true; }
};

/** The reply to GetStats: FrameServer::metricsText(), the Prometheus
 *  text exposition. The body travels as bytes: it can exceed
 *  kMaxString. */
struct MetricsReplyMsg
{
    std::vector<uint8_t> text;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

/** Set the service's span recording on (1) or off (0), then fetch
 *  every span its rings hold (v9). Any other value fails decode. */
struct GetTraceMsg
{
    uint8_t recording = 1;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

/** One stage span on the wire (telemetry::Span with the interned name
 *  carried as a string). */
struct WireSpan
{
    std::string name;
    uint64_t frame = 0;
    uint64_t ticket = 0;
    uint32_t lane = 0;
    uint64_t t_start_us = 0;
    uint64_t t_end_us = 0;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

/** One chunk of GetTrace's reply: at most kMaxSpansPerBatch spans,
 *  each lane's oldest first. Every chunk repeats the header. */
struct SpanBatchMsg
{
    /** Spans the service's rings had overwritten
     *  (telemetry::droppedCount()). */
    uint64_t overwritten = 0;
    /** The recording state the GetTrace replaced (0 off, 1 on). */
    uint8_t was_recording = 0;
    /** 1 on the reply's final chunk. */
    uint8_t last = 0;
    std::vector<WireSpan> spans;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

struct ErrorMsg
{
    uint32_t code = 0; ///< WireError
    std::string message;

    void encode(WireWriter &w) const;
    bool decode(WireReader &r);
};

} // namespace asdr::net

#endif // ASDR_NET_PROTOCOL_HPP
