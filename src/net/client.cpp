#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace asdr::net {

namespace {

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
}

uint64_t
splitmix64(uint64_t &s)
{
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

const char *
clientErrorName(ClientError e)
{
    switch (e) {
    case ClientError::None:
        return "none";
    case ClientError::Timeout:
        return "timeout";
    case ClientError::PeerClosed:
        return "peer-closed";
    case ClientError::IoError:
        return "io-error";
    case ClientError::Protocol:
        return "protocol";
    case ClientError::Refused:
        return "refused";
    }
    return "?";
}

double
retryBackoff(const RetryPolicy &policy, int attempt, uint64_t &rng_state)
{
    double d = policy.base_delay_s;
    for (int i = 0; i < attempt; ++i) {
        d *= policy.multiplier;
        if (d >= policy.max_delay_s)
            break;
    }
    d = std::min(d, policy.max_delay_s);
    if (policy.jitter > 0.0) {
        // u in [0,1); shift the delay by +-(jitter/2) of itself.
        const double u =
            double(splitmix64(rng_state) >> 11) * 0x1.0p-53;
        d *= 1.0 + policy.jitter * (u - 0.5);
    }
    return std::max(d, 0.0);
}

bool
Client::fail(std::string *err, ClientError cls, const std::string &what)
{
    last_error_ = cls;
    setErr(err, what);
    return false;
}

bool
Client::connect(const std::string &host, uint16_t port, std::string *err,
                double recv_timeout_s)
{
    disconnect();
    host_ = host;
    port_ = port;
    recv_timeout_s_ = recv_timeout_s;
    return dial(err);
}

bool
Client::connectWithRetry(const std::string &host, uint16_t port,
                         const RetryPolicy &policy, std::string *err,
                         double recv_timeout_s)
{
    disconnect();
    host_ = host;
    port_ = port;
    recv_timeout_s_ = recv_timeout_s;
    uint64_t rng = policy.seed ^ (uint64_t(port) << 16);
    const int attempts = std::max(1, policy.max_attempts);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                retryBackoff(policy, attempt - 1, rng)));
        if (dial(err))
            return true;
    }
    return false;
}

bool
Client::dial(std::string *err)
{
    sock_.close();
    std::string serr;
    sock_ = Socket::connectTo(host_, port_, &serr);
    if (!sock_.valid())
        return fail(err, ClientError::IoError, serr);
    if (recv_timeout_s_ > 0.0)
        sock_.setRecvTimeout(recv_timeout_s_);

    HelloMsg hello;
    if (!send(MsgType::Hello, packMessage(MsgType::Hello, hello), err))
        return false;
    std::vector<uint8_t> payload;
    if (!waitReply(MsgType::HelloOk, payload, err)) {
        sock_.close();
        return false;
    }
    HelloOkMsg ok;
    if (!decodePayload(payload.data(), payload.size(), ok) ||
        ok.version != kProtocolVersion) {
        sock_.close();
        return fail(err, ClientError::Protocol, "handshake: bad HelloOk");
    }
    last_error_ = ClientError::None;
    return true;
}

void
Client::disconnect()
{
    sock_.close();
    results_.clear();
    refs_.clear();
    last_frames_.clear();
    sessions_.clear();
    spans_.clear();
    span_batches_dropped_ = 0;
    span_sub_ = false;
}

void
Client::dropConnection()
{
    // No protocol goodbye, no state loss: the service sees an abrupt
    // disconnect; we keep everything needed to resume.
    sock_.close();
}

bool
Client::reconnect(std::string *err, const RetryPolicy &policy)
{
    if (host_.empty())
        return fail(err, ClientError::IoError, "never connected");
    sock_.close();
    uint64_t rng = policy.seed ^ 0x5EC0DE5ECull;
    const int attempts = std::max(1, policy.max_attempts);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                retryBackoff(policy, attempt - 1, rng)));
        if (!dial(err))
            continue;
        if (resumeAll(err))
            return true;
        if (!isTransient(last_error_))
            return false; // e.g. a session expired server-side
        sock_.close(); // connection died again; back off and re-dial
    }
    return false;
}

bool
Client::resumeAll(std::string *err)
{
    std::vector<uint64_t> ids;
    ids.reserve(sessions_.size());
    for (const auto &entry : sessions_)
        ids.push_back(entry.first);
    std::sort(ids.begin(), ids.end());
    for (uint64_t id : ids)
        if (!resumeSession(id, err))
            return false;
    return true;
}

bool
Client::resumeSession(uint64_t session, std::string *err, uint32_t *parked)
{
    auto it = sessions_.find(session);
    if (it == sessions_.end())
        return fail(err, ClientError::Refused,
                    "unknown session (never opened or already closed)");
    ResumeSessionMsg msg;
    msg.session = session;
    msg.token = it->second.token;
    if (!send(MsgType::ResumeSession,
              packMessage(MsgType::ResumeSession, msg), err))
        return false;
    std::vector<uint8_t> payload;
    if (!waitReply(MsgType::ResumeSessionOk, payload, err)) {
        if (last_error_ == ClientError::Refused) {
            // The service no longer knows the session (grace expired,
            // bad token): forget it locally so a later reconnect can
            // succeed for the surviving sessions.
            sessions_.erase(session);
            refs_.erase(session);
        }
        return false;
    }
    ResumeSessionOkMsg ok;
    if (!decodePayload(payload.data(), payload.size(), ok) ||
        ok.session != session)
        return fail(err, ClientError::Protocol, "bad ResumeSessionOk");
    // Mirror the server's re-seed: our next Ok frame arrives in
    // absolute form and restarts the delta chain.
    refs_.erase(session);
    if (parked)
        *parked = ok.parked;
    last_error_ = ClientError::None;
    return true;
}

uint64_t
Client::openSession(const std::string &scene, server::QosClass qos,
                    FrameEncoding encoding, std::string *err)
{
    OpenSessionMsg msg;
    msg.scene = scene;
    msg.qos = uint8_t(qos);
    msg.encoding = uint8_t(encoding);
    if (!send(MsgType::OpenSession,
              packMessage(MsgType::OpenSession, msg), err))
        return 0;
    std::vector<uint8_t> payload;
    if (!waitReply(MsgType::OpenSessionOk, payload, err))
        return 0;
    OpenSessionOkMsg ok;
    if (!decodePayload(payload.data(), payload.size(), ok) ||
        ok.session == 0) {
        fail(err, ClientError::Protocol, "bad OpenSessionOk");
        return 0;
    }
    sessions_[ok.session] = {ok.token, encoding};
    last_error_ = ClientError::None;
    return ok.session;
}

bool
Client::closeSession(uint64_t session, std::string *err)
{
    CloseSessionMsg msg;
    msg.session = session;
    if (!send(MsgType::CloseSession,
              packMessage(MsgType::CloseSession, msg), err))
        return false;
    std::vector<uint8_t> payload;
    if (!waitReply(MsgType::CloseSessionOk, payload, err))
        return false;
    CloseSessionOkMsg ok;
    if (!decodePayload(payload.data(), payload.size(), ok))
        return fail(err, ClientError::Protocol, "bad CloseSessionOk");
    refs_.erase(session);
    last_frames_.erase(session);
    sessions_.erase(session);
    last_error_ = ClientError::None;
    return true;
}

uint64_t
Client::submitFrame(uint64_t session, const CameraSpec &camera,
                    std::string *err)
{
    SubmitFrameMsg msg;
    msg.session = session;
    msg.camera = camera;
    if (!send(MsgType::SubmitFrame,
              packMessage(MsgType::SubmitFrame, msg), err))
        return 0;
    std::vector<uint8_t> payload;
    if (!waitReply(MsgType::SubmitFrameOk, payload, err))
        return 0;
    SubmitFrameOkMsg ok;
    if (!decodePayload(payload.data(), payload.size(), ok) ||
        ok.ticket == 0) {
        fail(err, ClientError::Protocol, "bad SubmitFrameOk");
        return 0;
    }
    last_error_ = ClientError::None;
    return ok.ticket;
}

uint64_t
Client::submitFrameRetry(uint64_t session, const CameraSpec &camera,
                         const RetryPolicy &policy, std::string *err)
{
    uint64_t rng = policy.seed ^ session;
    const int attempts = std::max(1, policy.max_attempts);
    std::string werr;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                retryBackoff(policy, attempt - 1, rng)));
        if (!connected()) {
            // Single re-dial + resume per attempt; the outer loop is
            // the backoff schedule.
            RetryPolicy once = policy;
            once.max_attempts = 1;
            if (!reconnect(&werr, once)) {
                if (!isTransient(last_error_))
                    break;
                continue;
            }
        }
        const uint64_t ticket = submitFrame(session, camera, &werr);
        if (ticket)
            return ticket;
        if (!isTransient(last_error_))
            break;
    }
    setErr(err, werr.empty() ? "submit retries exhausted" : werr);
    return 0;
}

bool
Client::nextFrame(ClientFrame &out, std::string *err)
{
    while (results_.empty()) {
        MsgType type;
        std::vector<uint8_t> payload;
        if (!readMessage(type, payload, err))
            return false;
        if (type == MsgType::FrameResult) {
            if (!takeFrameResult(payload, err))
                return false;
        } else if (type == MsgType::SpanBatch) {
            if (!takeSpanBatch(payload, err))
                return false;
        } else {
            return fail(err, ClientError::Protocol,
                        std::string("unexpected ") + msgTypeName(type) +
                            " while waiting for a frame");
        }
    }
    out = std::move(results_.front());
    results_.pop_front();
    last_error_ = ClientError::None;
    return true;
}

bool
Client::fetchMetricsText(std::string &out, std::string *err)
{
    if (!send(MsgType::GetStats,
              packMessage(MsgType::GetStats, GetStatsMsg{}), err))
        return false;
    std::vector<uint8_t> payload;
    if (!waitReply(MsgType::MetricsReply, payload, err))
        return false;
    MetricsReplyMsg reply;
    if (!decodePayload(payload.data(), payload.size(), reply))
        return fail(err, ClientError::Protocol, "bad MetricsReply");
    out.assign(reply.text.begin(), reply.text.end());
    last_error_ = ClientError::None;
    return true;
}

bool
Client::subscribeSpans(bool on, std::string *err)
{
    SubscribeTelemetryMsg msg;
    msg.enable = on ? 1 : 0;
    if (!send(MsgType::SubscribeTelemetry,
              packMessage(MsgType::SubscribeTelemetry, msg), err))
        return false;
    // waitReply buffers every SpanBatch ahead of the Ok -- on
    // unsubscribe that IS the final drain the service queued before
    // replying, so nothing recorded pre-barrier is lost.
    std::vector<uint8_t> payload;
    if (!waitReply(MsgType::SubscribeTelemetryOk, payload, err))
        return false;
    SubscribeTelemetryOkMsg ok;
    if (!decodePayload(payload.data(), payload.size(), ok))
        return fail(err, ClientError::Protocol,
                    "bad SubscribeTelemetryOk");
    if ((ok.enabled != 0) != on)
        return fail(err, ClientError::Protocol,
                    "SubscribeTelemetryOk state mismatch");
    span_sub_ = on;
    last_error_ = ClientError::None;
    return true;
}

size_t
Client::drainSpans(std::vector<telemetry::Span> &out)
{
    const size_t n = spans_.size();
    out.reserve(out.size() + n);
    for (auto &s : spans_)
        out.push_back(std::move(s));
    spans_.clear();
    return n;
}

bool
Client::followSpans(const std::string &path, double duration_s,
                    const std::atomic<bool> *stop, std::string *err)
{
    if (!subscribeSpans(true, err))
        return false;
    std::vector<telemetry::Span> all;
    std::string werr;
    auto writeFile = [&] { return telemetry::writeJson(path, all, &werr); };
    drainSpans(all);
    bool failed = !writeFile();

    // Poll with a short receive window so `stop`/`duration_s` are
    // honored promptly; a clean-boundary timeout is "nothing new yet"
    // and leaves the connection open.
    sock_.setRecvTimeout(0.2);
    const auto t0 = std::chrono::steady_clock::now();
    while (!failed) {
        if (stop && stop->load(std::memory_order_relaxed))
            break;
        if (duration_s > 0.0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                    .count() >= duration_s)
            break;
        MsgType type;
        std::vector<uint8_t> payload;
        if (!readMessage(type, payload, &werr)) {
            if (last_error_ == ClientError::Timeout && connected())
                continue;
            failed = true;
            break;
        }
        if (type == MsgType::SpanBatch) {
            if (!takeSpanBatch(payload, &werr)) {
                failed = true;
                break;
            }
        } else if (type == MsgType::FrameResult) {
            if (!takeFrameResult(payload, &werr)) {
                failed = true;
                break;
            }
        } else {
            last_error_ = ClientError::Protocol;
            werr = std::string("unexpected ") + msgTypeName(type) +
                   " while following spans";
            failed = true;
            break;
        }
        // Every batch grows the file in place: the trace is loadable
        // at any moment, not only after a clean shutdown.
        if (drainSpans(all) > 0 && !writeFile()) {
            failed = true;
            break;
        }
    }
    if (connected()) {
        sock_.setRecvTimeout(recv_timeout_s_);
        if (!failed && !subscribeSpans(false, &werr))
            failed = true;
    } else if (!failed) {
        failed = true;
        if (werr.empty())
            werr = "connection lost while following spans";
    }
    drainSpans(all);
    if (!writeFile())
        failed = true;
    if (failed) {
        setErr(err, werr.empty() ? "span follow failed" : werr);
        return false;
    }
    last_error_ = ClientError::None;
    return true;
}

// ------------------------------------------------------------- internals

bool
Client::send(MsgType, const std::vector<uint8_t> &packed, std::string *err)
{
    if (!sock_.valid())
        return fail(err, ClientError::IoError, "not connected");
    if (!sock_.sendAll(packed.data(), packed.size())) {
        sock_.close();
        return fail(err, ClientError::IoError,
                    "connection lost while sending");
    }
    return true;
}

bool
Client::readMessage(MsgType &type, std::vector<uint8_t> &payload,
                    std::string *err)
{
    if (!sock_.valid())
        return fail(err, ClientError::IoError, "not connected");
    uint8_t hdr_bytes[kHeaderSize];
    size_t got = 0;
    while (got < kHeaderSize) {
        const ssize_t k =
            sock_.recvSome(hdr_bytes + got, kHeaderSize - got);
        if (k <= 0) {
            // A timeout on a clean message boundary (no header byte
            // read yet) is just "nothing arrived": the stream is
            // intact, so the connection survives -- pollers (span
            // followers) rely on this. A mid-message timeout means a
            // truncated frame and still closes.
            if (k == kRecvWouldBlock && got == 0)
                return fail(err, ClientError::Timeout,
                            "receive timed out");
            sock_.close();
            if (k == kRecvClosed)
                return fail(err, ClientError::PeerClosed,
                            "connection closed by service");
            if (k == kRecvWouldBlock)
                return fail(err, ClientError::Timeout,
                            "receive timed out");
            return fail(err, ClientError::IoError, "receive failed");
        }
        got += size_t(k);
    }
    MsgHeader hdr;
    const WireError ferr = decodeHeader(hdr_bytes, kHeaderSize, hdr);
    if (ferr != WireError::None || hdr.version != kProtocolVersion) {
        sock_.close();
        return fail(err, ClientError::Protocol,
                    "corrupt framing from service");
    }
    payload.resize(hdr.length);
    got = 0;
    while (got < payload.size()) {
        const ssize_t k =
            sock_.recvSome(payload.data() + got, payload.size() - got);
        if (k <= 0) {
            sock_.close();
            if (k == kRecvClosed)
                return fail(err, ClientError::PeerClosed,
                            "connection closed mid-message");
            if (k == kRecvWouldBlock)
                return fail(err, ClientError::Timeout,
                            "receive timed out mid-message");
            return fail(err, ClientError::IoError,
                        "receive failed mid-message");
        }
        got += size_t(k);
    }
    type = hdr.type;
    return true;
}

bool
Client::waitReply(MsgType want, std::vector<uint8_t> &payload,
                  std::string *err)
{
    for (;;) {
        MsgType type;
        if (!readMessage(type, payload, err))
            return false;
        if (type == want)
            return true;
        if (type == MsgType::FrameResult) {
            if (!takeFrameResult(payload, err))
                return false;
            continue;
        }
        if (type == MsgType::SpanBatch) {
            if (!takeSpanBatch(payload, err))
                return false;
            continue;
        }
        if (type == MsgType::Error) {
            ErrorMsg msg;
            if (decodePayload(payload.data(), payload.size(), msg))
                return fail(err, ClientError::Refused,
                            "service error " + std::to_string(msg.code) +
                                ": " + msg.message);
            return fail(err, ClientError::Protocol,
                        "undecodable service error");
        }
        return fail(err, ClientError::Protocol,
                    std::string("unexpected reply ") + msgTypeName(type));
    }
}

bool
Client::takeFrameResult(const std::vector<uint8_t> &payload,
                        std::string *err)
{
    FrameResultMsg msg;
    if (!decodePayload(payload.data(), payload.size(), msg)) {
        sock_.close();
        return fail(err, ClientError::Protocol, "corrupt FrameResult");
    }
    ClientFrame frame;
    frame.session = msg.session;
    frame.ticket = msg.ticket;
    frame.status = FrameStatus(msg.status);
    frame.encoding = FrameEncoding(msg.encoding);
    frame.rung = server::QualityRung(msg.rung);
    frame.latency_ms = msg.latency_ms;
    frame.payload_bytes = msg.payload.size();
    frame.full_width = msg.full_width;
    frame.full_height = msg.full_height;

    if (frame.status == FrameStatus::Ok) {
        const FrameEncoding enc = frame.encoding;
        auto rit = refs_.find(msg.session);
        const Image *ref = rit == refs_.end() ? nullptr : &rit->second;
        std::string derr;
        if (!decodeFramePayload(msg.payload.data(), msg.payload.size(),
                                enc, msg.width, msg.height, ref,
                                frame.image, &derr)) {
            sock_.close();
            return fail(err, ClientError::Protocol,
                        "frame decode failed: " + derr);
        }
        // Advance the delta reference in receive order -- the mirror
        // of the service's encode-order update. Keyed off the MESSAGE
        // encoding, so degraded (Quantized8) frames of a DeltaPrev
        // session leave the chain alone, exactly like the server. The
        // reference is the PRE-upscale image: the service's reference
        // is whatever it encoded, payload-resolution included.
        if (enc == FrameEncoding::DeltaPrev)
            refs_[msg.session] = frame.image;
        transfer_.frames++;
        transfer_.payload_bytes += msg.payload.size();
        transfer_.raw_bytes += rawFrameBytes(msg.width, msg.height);
        // Reduced-resolution rung: bring the frame back up to the
        // requested size (after the reference update above).
        if (msg.full_width > 0 && msg.full_height > 0 &&
            (msg.full_width != msg.width ||
             msg.full_height != msg.height)) {
            frame.image = upscaleBilinear(frame.image, msg.full_width,
                                          msg.full_height);
            frame.upscaled = true;
        }
        if (hold_last_frame_)
            last_frames_[msg.session] = frame.image;
    } else if (frame.status == FrameStatus::Failed) {
        frame.error.assign(msg.payload.begin(), msg.payload.end());
    } else if (hold_last_frame_ &&
               (frame.status == FrameStatus::Shed ||
                frame.status == FrameStatus::Dropped ||
                frame.status == FrameStatus::DeadlineExceeded)) {
        // Hold-last-frame: a payload-less outcome shows the session's
        // previous delivered image rather than a gap, flagged stale.
        auto lit = last_frames_.find(msg.session);
        if (lit != last_frames_.end()) {
            frame.image = lit->second;
            frame.stale = true;
        }
    }
    results_.push_back(std::move(frame));
    return true;
}

bool
Client::takeSpanBatch(const std::vector<uint8_t> &payload, std::string *err)
{
    SpanBatchMsg msg;
    if (!decodePayload(payload.data(), payload.size(), msg)) {
        sock_.close();
        return fail(err, ClientError::Protocol, "corrupt SpanBatch");
    }
    // `dropped` is cumulative per subscription; last header wins.
    span_batches_dropped_ = msg.dropped;
    for (WireSpan &s : msg.spans)
        spans_.push_back(telemetry::Span{
            span_names_.insert(std::move(s.name)).first->c_str(), s.frame,
            s.ticket, s.lane, s.t_start_us, s.t_end_us});
    return true;
}

} // namespace asdr::net
