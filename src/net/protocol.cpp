#include "net/protocol.hpp"

#include "net/frame_codec.hpp"
#include "server/qos.hpp"

namespace asdr::net {

namespace {

bool
finiteVec(const Vec3 &v)
{
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

} // namespace

const char *
msgTypeName(MsgType t)
{
    switch (t) {
    case MsgType::Hello:
        return "Hello";
    case MsgType::HelloOk:
        return "HelloOk";
    case MsgType::OpenSession:
        return "OpenSession";
    case MsgType::OpenSessionOk:
        return "OpenSessionOk";
    case MsgType::CloseSession:
        return "CloseSession";
    case MsgType::CloseSessionOk:
        return "CloseSessionOk";
    case MsgType::SubmitFrame:
        return "SubmitFrame";
    case MsgType::SubmitFrameOk:
        return "SubmitFrameOk";
    case MsgType::FrameResult:
        return "FrameResult";
    case MsgType::GetStats:
        return "GetStats";
    case MsgType::Error:
        return "Error";
    case MsgType::ResumeSession:
        return "ResumeSession";
    case MsgType::ResumeSessionOk:
        return "ResumeSessionOk";
    case MsgType::MetricsReply:
        return "MetricsReply";
    case MsgType::SubscribeTelemetry:
        return "SubscribeTelemetry";
    case MsgType::SubscribeTelemetryOk:
        return "SubscribeTelemetryOk";
    case MsgType::SpanBatch:
        return "SpanBatch";
    }
    return "?";
}

// ---------------------------------------------------------------- framing

void
encodeHeader(const MsgHeader &h, WireWriter &w)
{
    w.u32(kMagic);
    w.u16(h.version);
    w.u16(uint16_t(h.type));
    w.u32(h.length);
}

WireError
decodeHeader(const uint8_t *data, size_t size, MsgHeader &out)
{
    WireReader r(data, size);
    uint32_t magic = 0;
    uint16_t type = 0;
    if (!r.u32(magic) || !r.u16(out.version) || !r.u16(type) ||
        !r.u32(out.length))
        return WireError::BadMessage;
    if (magic != kMagic)
        return WireError::BadMagic;
    if (out.length > kMaxPayload)
        return WireError::Oversized;
    out.type = MsgType(type);
    return WireError::None;
}

// --------------------------------------------------------------- messages

void
HelloMsg::encode(WireWriter &w) const
{
    w.u16(version);
}

bool
HelloMsg::decode(WireReader &r)
{
    return r.u16(version);
}

void
HelloOkMsg::encode(WireWriter &w) const
{
    w.u16(version);
    w.str(server);
}

bool
HelloOkMsg::decode(WireReader &r)
{
    return r.u16(version) && r.str(server);
}

void
CameraSpec::encode(WireWriter &w) const
{
    w.vec3(pos);
    w.vec3(look_at);
    w.vec3(up);
    w.f32(fov_deg);
    w.u16(width);
    w.u16(height);
}

bool
CameraSpec::decode(WireReader &r)
{
    if (!(r.vec3(pos) && r.vec3(look_at) && r.vec3(up) && r.f32(fov_deg) &&
          r.u16(width) && r.u16(height)))
        return false;
    // A zero-pixel frame or non-finite pose is never a valid request.
    return width >= 1 && height >= 1 && std::isfinite(fov_deg) &&
           fov_deg > 0.0f && fov_deg < 180.0f && finiteVec(pos) &&
           finiteVec(look_at) && finiteVec(up);
}

void
OpenSessionMsg::encode(WireWriter &w) const
{
    w.str(scene);
    w.u8(qos);
    w.u8(encoding);
}

bool
OpenSessionMsg::decode(WireReader &r)
{
    if (!(r.str(scene) && r.u8(qos) && r.u8(encoding)))
        return false;
    return !scene.empty() && qos < uint8_t(server::kQosClasses) &&
           encoding <= uint8_t(FrameEncoding::DeltaPrev);
}

void
OpenSessionOkMsg::encode(WireWriter &w) const
{
    w.u64(session);
    w.u64(token);
}

bool
OpenSessionOkMsg::decode(WireReader &r)
{
    return r.u64(session) && r.u64(token);
}

void
ResumeSessionMsg::encode(WireWriter &w) const
{
    w.u64(session);
    w.u64(token);
}

bool
ResumeSessionMsg::decode(WireReader &r)
{
    return r.u64(session) && r.u64(token);
}

void
ResumeSessionOkMsg::encode(WireWriter &w) const
{
    w.u64(session);
    w.u32(parked);
}

bool
ResumeSessionOkMsg::decode(WireReader &r)
{
    return r.u64(session) && r.u32(parked);
}

void
CloseSessionMsg::encode(WireWriter &w) const
{
    w.u64(session);
}

bool
CloseSessionMsg::decode(WireReader &r)
{
    return r.u64(session);
}

void
CloseSessionOkMsg::encode(WireWriter &w) const
{
    w.u64(session);
}

bool
CloseSessionOkMsg::decode(WireReader &r)
{
    return r.u64(session);
}

void
SubmitFrameMsg::encode(WireWriter &w) const
{
    w.u64(session);
    camera.encode(w);
}

bool
SubmitFrameMsg::decode(WireReader &r)
{
    return r.u64(session) && camera.decode(r);
}

void
SubmitFrameOkMsg::encode(WireWriter &w) const
{
    w.u64(session);
    w.u64(ticket);
}

bool
SubmitFrameOkMsg::decode(WireReader &r)
{
    return r.u64(session) && r.u64(ticket);
}

void
FrameResultMsg::encode(WireWriter &w) const
{
    w.u64(session);
    w.u64(ticket);
    w.u8(status);
    w.u8(encoding);
    w.u8(rung);
    w.u16(width);
    w.u16(height);
    w.u16(full_width);
    w.u16(full_height);
    w.f64(latency_ms);
    w.bytes(payload);
}

bool
FrameResultMsg::decode(WireReader &r)
{
    if (!(r.u64(session) && r.u64(ticket) && r.u8(status) &&
          r.u8(encoding) && r.u8(rung) && r.u16(width) && r.u16(height) &&
          r.u16(full_width) && r.u16(full_height) && r.f64(latency_ms) &&
          r.bytes(payload)))
        return false;
    // Geometry is bounded like SubmitFrame's camera: the client
    // allocates full_width x full_height to upscale into, so a hostile
    // 65535^2 result must not decode.
    return status <= uint8_t(FrameStatus::DeadlineExceeded) &&
           encoding <= uint8_t(FrameEncoding::DeltaPrev) &&
           rung < uint8_t(server::kQualityRungs) &&
           rawFrameBytes(width, height) <= kMaxFrameBytes &&
           rawFrameBytes(full_width, full_height) <= kMaxFrameBytes;
}

void
MetricsReplyMsg::encode(WireWriter &w) const
{
    w.bytes(text);
}

bool
MetricsReplyMsg::decode(WireReader &r)
{
    return r.bytes(text);
}

void
SubscribeTelemetryMsg::encode(WireWriter &w) const
{
    w.u8(enable);
}

bool
SubscribeTelemetryMsg::decode(WireReader &r)
{
    return r.u8(enable) && enable <= 1;
}

void
SubscribeTelemetryOkMsg::encode(WireWriter &w) const
{
    w.u8(enabled);
}

bool
SubscribeTelemetryOkMsg::decode(WireReader &r)
{
    return r.u8(enabled) && enabled <= 1;
}

void
WireSpan::encode(WireWriter &w) const
{
    w.str(name);
    w.u64(frame);
    w.u64(ticket);
    w.u32(lane);
    w.u64(t_start_us);
    w.u64(t_end_us);
}

bool
WireSpan::decode(WireReader &r)
{
    if (!(r.str(name) && r.u64(frame) && r.u64(ticket) && r.u32(lane) &&
          r.u64(t_start_us) && r.u64(t_end_us)))
        return false;
    // A nameless or time-reversed interval is a corrupt stream, not a
    // recordable span.
    return !name.empty() && t_end_us >= t_start_us;
}

void
SpanBatchMsg::encode(WireWriter &w) const
{
    w.u64(seq);
    w.u64(dropped);
    w.u32(uint32_t(spans.size()));
    for (const WireSpan &s : spans)
        s.encode(w);
}

bool
SpanBatchMsg::decode(WireReader &r)
{
    uint32_t count = 0;
    if (!(r.u64(seq) && r.u64(dropped) && r.u32(count)) ||
        count > kMaxSpansPerBatch)
        return false;
    spans.clear();
    spans.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        WireSpan s;
        if (!s.decode(r))
            return false;
        spans.push_back(std::move(s));
    }
    return true;
}

void
ErrorMsg::encode(WireWriter &w) const
{
    w.u32(code);
    w.str(message);
}

bool
ErrorMsg::decode(WireReader &r)
{
    return r.u32(code) && r.str(message);
}

} // namespace asdr::net
