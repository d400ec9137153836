#include "net/protocol.hpp"

#include "net/frame_codec.hpp"
#include "server/qos.hpp"

namespace asdr::net {

namespace {

/** Registry sizes beyond this are a corrupt stats payload, not a real
 *  catalog (the registry is loaded at bring-up, not attacker-sized). */
constexpr uint32_t kMaxSceneStats = 65536;

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
    case MsgType::StatsReply:
        return "StatsReply";
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
GetStatsMsg::encode(WireWriter &w) const
{
    w.u8(format);
}

bool
GetStatsMsg::decode(WireReader &r)
{
    return r.u8(format) && format <= uint8_t(StatsFormat::Text);
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
WireCounters::encode(WireWriter &w) const
{
    w.u64(connections_accepted);
    w.u64(connections_open);
    w.u64(sessions_opened);
    w.u64(frames_sent);
    w.u64(results_shed);
    w.u64(results_degraded);
    w.u64(results_parked);
    w.u64(sessions_resumed);
    w.u64(sessions_expired);
    w.u64(bytes_tx);
    w.u64(bytes_rx);
    w.u64(frame_payload_bytes);
    w.u64(frame_raw_bytes);
    w.u64(span_batches_sent);
    w.u64(span_batches_dropped);
}

bool
WireCounters::decode(WireReader &r)
{
    return r.u64(connections_accepted) && r.u64(connections_open) &&
           r.u64(sessions_opened) && r.u64(frames_sent) &&
           r.u64(results_shed) && r.u64(results_degraded) &&
           r.u64(results_parked) && r.u64(sessions_resumed) &&
           r.u64(sessions_expired) && r.u64(bytes_tx) && r.u64(bytes_rx) &&
           r.u64(frame_payload_bytes) && r.u64(frame_raw_bytes) &&
           r.u64(span_batches_sent) && r.u64(span_batches_dropped);
}

void
StatsReplyMsg::encode(WireWriter &w) const
{
    for (int c = 0; c < server::kQosClasses; ++c) {
        const server::QosClassStats &s = server.cls[c];
        w.u64(s.submitted);
        w.u64(s.admitted);
        w.u64(s.served);
        w.u64(s.dropped);
        w.u64(s.failed);
        w.u64(s.expired);
        w.f64(s.p50_ms);
        w.f64(s.p95_ms);
        w.f64(s.p99_ms);
        w.f64(s.mean_ms);
        w.f64(s.mean_queue_ms);
        for (int rg = 0; rg < server::kQualityRungs; ++rg)
            w.u64(s.served_rung[rg]);
        w.u64(s.degraded);
        w.f64(s.slo_latency_fast_burn);
        w.f64(s.slo_latency_slow_burn);
        w.f64(s.slo_error_fast_burn);
        w.f64(s.slo_error_slow_burn);
        w.u8(s.slo_latency_breached);
        w.u8(s.slo_error_breached);
        w.u64(s.slo_breach_events);
    }
    w.u32(uint32_t(server.scenes.size()));
    for (const server::SceneServeStats &s : server.scenes) {
        w.str(s.name);
        w.u64(s.submitted);
        w.u64(s.served);
        w.u64(s.dropped);
        w.u64(s.failed);
        w.u64(s.expired);
        w.u32(uint32_t(s.peak_in_flight));
        w.u8(s.breaker_state);
        w.u64(s.breaker_opens);
        w.u64(s.breaker_fast_fails);
        for (int rg = 0; rg < server::kQualityRungs; ++rg)
            w.u64(s.served_rung[rg]);
        w.u64(s.degraded);
    }
    w.u64(server.stuck_in_flight);
    w.u64(server.stuck_events);
    wire.encode(w);
}

bool
StatsReplyMsg::decode(WireReader &r)
{
    for (int c = 0; c < server::kQosClasses; ++c) {
        server::QosClassStats &s = server.cls[c];
        if (!(r.u64(s.submitted) && r.u64(s.admitted) && r.u64(s.served) &&
              r.u64(s.dropped) && r.u64(s.failed) && r.u64(s.expired) &&
              r.f64(s.p50_ms) && r.f64(s.p95_ms) && r.f64(s.p99_ms) &&
              r.f64(s.mean_ms) && r.f64(s.mean_queue_ms)))
            return false;
        for (int rg = 0; rg < server::kQualityRungs; ++rg)
            if (!r.u64(s.served_rung[rg]))
                return false;
        if (!r.u64(s.degraded))
            return false;
        if (!(r.f64(s.slo_latency_fast_burn) &&
              r.f64(s.slo_latency_slow_burn) &&
              r.f64(s.slo_error_fast_burn) &&
              r.f64(s.slo_error_slow_burn) &&
              r.u8(s.slo_latency_breached) && r.u8(s.slo_error_breached) &&
              r.u64(s.slo_breach_events)))
            return false;
    }
    uint32_t scenes = 0;
    if (!r.u32(scenes) || scenes > kMaxSceneStats)
        return false;
    server.scenes.clear();
    server.scenes.reserve(scenes);
    for (uint32_t i = 0; i < scenes; ++i) {
        server::SceneServeStats s;
        uint32_t peak = 0;
        if (!(r.str(s.name) && r.u64(s.submitted) && r.u64(s.served) &&
              r.u64(s.dropped) && r.u64(s.failed) && r.u64(s.expired) &&
              r.u32(peak) && r.u8(s.breaker_state) &&
              r.u64(s.breaker_opens) && r.u64(s.breaker_fast_fails)))
            return false;
        for (int rg = 0; rg < server::kQualityRungs; ++rg)
            if (!r.u64(s.served_rung[rg]))
                return false;
        if (!r.u64(s.degraded))
            return false;
        s.peak_in_flight = int(peak);
        server.scenes.push_back(std::move(s));
    }
    if (!(r.u64(server.stuck_in_flight) && r.u64(server.stuck_events)))
        return false;
    return wire.decode(r);
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
