#include "net/render_service.hpp"

#include <poll.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace asdr::net {

namespace {

std::string
errorText(std::exception_ptr err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown render error";
    }
}

uint64_t
splitmix64(uint64_t &s)
{
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Poll granularity while detached sessions await resume/expiry. */
constexpr int kGracePollMs = 50;
/** HelloOk's service banner. */
constexpr const char *kBanner = "asdr-render-service";
/** Parked frame PAYLOADS per detached session; past it the oldest
 *  parked payload is shed (its result kept, flagged Shed). */
constexpr size_t kMaxParkedPayloads = 256;

} // namespace

RenderService::WireMetrics::WireMetrics(metrics::Registry &reg)
    : connections_accepted(
          reg.counter("asdr_wire_connections_accepted_total")),
      connections_open(reg.gauge("asdr_wire_connections_open")),
      sessions_opened(reg.counter("asdr_wire_sessions_opened_total")),
      frames_sent(reg.counter("asdr_wire_frames_sent_total")),
      results_shed(reg.counter("asdr_wire_results_shed_total")),
      results_parked(reg.counter("asdr_wire_results_parked_total")),
      sessions_resumed(reg.counter("asdr_wire_sessions_resumed_total")),
      sessions_expired(reg.counter("asdr_wire_sessions_expired_total")),
      bytes_tx(reg.counter("asdr_wire_bytes_tx_total")),
      bytes_rx(reg.counter("asdr_wire_bytes_rx_total")),
      frame_payload_bytes(
          reg.counter("asdr_wire_frame_payload_bytes_total")),
      frame_raw_bytes(reg.counter("asdr_wire_frame_raw_bytes_total"))
{
    for (int c = 0; c < server::kQosClasses; ++c)
        encode[size_t(c)] = &reg.histogram(
            "asdr_stage_duration_seconds",
            metrics::label("stage", telemetry::kSpanEncode) + "," +
                metrics::label("qos",
                               server::qosClassName(server::QosClass(c))));
}

RenderService::RenderService(server::FrameServer &server,
                             const ServiceConfig &cfg)
    : server_(server), cfg_(cfg), wire_(server.metricsRegistry())
{
    std::random_device rd;
    token_rng_ = (uint64_t(rd()) << 32) ^ uint64_t(rd());
}

RenderService::~RenderService()
{
    stop();
}

bool
RenderService::start(std::string *err)
{
    ASDR_ASSERT(!running_, "service already started");
    if (!wake_.valid()) {
        if (err)
            *err = "wake pipe construction failed";
        return false;
    }
    if (!listener_.bind(cfg_.host, cfg_.port, err))
        return false;
    running_ = true;
    thread_ = std::thread([this] { run(); });
    return true;
}

void
RenderService::stop()
{
    if (running_.exchange(false)) {
        wake_.wake();
        if (thread_.joinable())
            thread_.join();
    } else if (thread_.joinable()) {
        thread_.join();
    }
    // The service thread is gone; tear down surviving connections from
    // here. No grace windows at shutdown: every session, attached or
    // detached, closes.
    std::vector<std::shared_ptr<Connection>> leftover;
    {
        std::lock_guard<std::mutex> lock(m_);
        for (auto &entry : conns_)
            leftover.push_back(entry.second);
    }
    for (auto &conn : leftover)
        teardown(conn, /*allow_grace=*/false);
    std::vector<std::shared_ptr<WireSession>> orphans;
    {
        std::lock_guard<std::mutex> lock(m_);
        for (auto &entry : sessions_)
            orphans.push_back(entry.second);
        detached_sessions_ = 0;
    }
    for (auto &ws : orphans) {
        bool close = false;
        {
            std::lock_guard<std::mutex> lock(ws->m);
            if (!ws->closing) {
                ws->closing = true;
                ws->conn = nullptr;
                close = true;
            }
        }
        if (close)
            closeSession(ws, nullptr, false);
    }
    // Close callbacks capture this service: wait until the last ran.
    {
        std::unique_lock<std::mutex> lock(m_);
        closed_cv_.wait(lock, [this] { return sessions_.empty(); });
    }
    listener_.close();
}

WireCounters
RenderService::counters() const
{
    WireCounters c;
    c.connections_accepted = wire_.connections_accepted.value();
    c.connections_open = uint64_t(wire_.connections_open.value());
    c.sessions_opened = wire_.sessions_opened.value();
    c.frames_sent = wire_.frames_sent.value();
    c.results_shed = wire_.results_shed.value();
    c.results_parked = wire_.results_parked.value();
    c.sessions_resumed = wire_.sessions_resumed.value();
    c.sessions_expired = wire_.sessions_expired.value();
    c.bytes_tx = wire_.bytes_tx.value();
    c.bytes_rx = wire_.bytes_rx.value();
    c.frame_payload_bytes = wire_.frame_payload_bytes.value();
    c.frame_raw_bytes = wire_.frame_raw_bytes.value();
    return c;
}

// -------------------------------------------------------------- the loop

void
RenderService::run()
{
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Connection>> polled;
    while (running_) {
        fds.clear();
        polled.clear();
        fds.push_back({wake_.readFd(), POLLIN, 0});
        fds.push_back({listener_.fd(), POLLIN, 0});
        int timeout = -1;
        {
            std::lock_guard<std::mutex> lock(m_);
            for (auto &entry : conns_) {
                short events = POLLIN;
                {
                    std::lock_guard<std::mutex> out(entry.second->out_m);
                    if (entry.second->out_bytes > 0)
                        events |= POLLOUT;
                }
                fds.push_back({entry.second->sock.fd(), events, 0});
                polled.push_back(entry.second);
            }
            if (detached_sessions_ > 0)
                timeout = kGracePollMs;
        }
        if (::poll(fds.data(), nfds_t(fds.size()), timeout) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (!running_)
            break;
        if (fds[0].revents & POLLIN)
            wake_.drain();
        if (fds[1].revents & POLLIN)
            acceptNew();
        for (size_t i = 0; i < polled.size(); ++i) {
            const short re = fds[i + 2].revents;
            if (re & POLLOUT)
                flushOut(polled[i]);
            if (re & (POLLIN | POLLHUP | POLLERR))
                readInput(polled[i]);
        }
        // Reap connections marked dead this pass (handler errors, peer
        // hangups): best-effort flush of a queued Error, then close.
        for (auto &conn : polled) {
            bool dead;
            {
                std::lock_guard<std::mutex> out(conn->out_m);
                dead = conn->dead;
            }
            if (dead) {
                flushOut(conn);
                teardown(conn, /*allow_grace=*/true);
            }
        }
        expireDetached();
    }
}

void
RenderService::acceptNew()
{
    for (;;) {
        Socket s = listener_.accept();
        if (!s.valid())
            return;
        size_t open;
        {
            std::lock_guard<std::mutex> lock(m_);
            open = conns_.size();
        }
        if (int(open) >= cfg_.max_connections) {
            // Refuse politely: a one-shot Error, then close.
            ErrorMsg msg;
            msg.code = uint32_t(WireError::Rejected);
            msg.message = "connection limit reached";
            auto bytes = packMessage(MsgType::Error, msg);
            s.sendAll(bytes.data(), bytes.size());
            continue;
        }
        s.setNonBlocking(true);
        s.setNoDelay(true);
        auto conn = std::make_shared<Connection>();
        conn->sock = std::move(s);
        wire_.connections_accepted.inc();
        std::lock_guard<std::mutex> lock(m_);
        conn->id = next_conn_++;
        conns_.emplace(conn->id, conn);
        wire_.connections_open.set(double(conns_.size()));
    }
}

void
RenderService::readInput(const std::shared_ptr<Connection> &conn)
{
    uint8_t buf[64 * 1024];
    for (;;) {
        const ssize_t k = conn->sock.recvSome(buf, sizeof buf);
        if (k == kRecvWouldBlock)
            break;
        if (k == kRecvClosed || k == kRecvError) {
            std::lock_guard<std::mutex> out(conn->out_m);
            conn->dead = true;
            return;
        }
        conn->in.insert(conn->in.end(), buf, buf + k);
        wire_.bytes_rx.add(uint64_t(k));
    }

    size_t off = 0;
    bool violated = false;
    while (conn->in.size() - off >= kHeaderSize) {
        MsgHeader hdr;
        const WireError ferr =
            decodeHeader(conn->in.data() + off, kHeaderSize, hdr);
        if (ferr != WireError::None) {
            sendError(*conn, ferr, "unusable framing");
            violated = true;
            break;
        }
        if (hdr.version != kProtocolVersion) {
            sendError(*conn, WireError::BadVersion,
                      "unsupported protocol version");
            violated = true;
            break;
        }
        // Inbound cap, checked BEFORE waiting for (= buffering) the
        // payload: request messages are tiny; a bigger claim only
        // exists to fill the input buffer.
        if (hdr.length > kMaxRequestPayload) {
            sendError(*conn, WireError::Oversized, "request too large");
            violated = true;
            break;
        }
        if (conn->in.size() - off < kHeaderSize + hdr.length)
            break; // incomplete message; wait for more bytes
        if (!handleMessage(conn, hdr, conn->in.data() + off + kHeaderSize)) {
            violated = true;
            break;
        }
        off += kHeaderSize + hdr.length;
    }
    if (off > 0)
        conn->in.erase(conn->in.begin(),
                       conn->in.begin() + std::ptrdiff_t(off));
    if (violated) {
        std::lock_guard<std::mutex> out(conn->out_m);
        conn->dead = true;
    }
}

void
RenderService::flushOut(const std::shared_ptr<Connection> &conn)
{
    std::lock_guard<std::mutex> out(conn->out_m);
    if (conn->outq.empty())
        return;
    // One flush span per drain attempt with queued bytes (idle polls
    // record nothing).
    telemetry::ScopedSpan span(telemetry::kSpanFlush, 0, 0);
    while (!conn->outq.empty()) {
        const std::vector<uint8_t> &front = conn->outq.front();
        const ssize_t k = conn->sock.sendSome(front.data() + conn->out_off,
                                              front.size() - conn->out_off);
        if (k == kRecvWouldBlock)
            return;
        if (k == kRecvError) {
            conn->dead = true;
            return; // teardown scavenges the unsent queue
        }
        wire_.bytes_tx.add(uint64_t(k));
        conn->out_off += size_t(k);
        conn->out_bytes -= size_t(k);
        if (conn->out_off == front.size()) {
            conn->outq.pop_front();
            conn->out_off = 0;
        }
    }
}

// ------------------------------------------------------------- dispatch

template <typename Msg>
void
RenderService::sendControl(Connection &conn, MsgType type, const Msg &msg)
{
    std::lock_guard<std::mutex> out(conn.out_m);
    enqueueLocked(conn, packMessage(type, msg));
}

void
RenderService::enqueueLocked(Connection &conn, std::vector<uint8_t> &&bytes)
{
    if (conn.dead)
        return;
    conn.out_bytes += bytes.size();
    conn.outq.push_back(std::move(bytes));
    wake_.wake();
}

void
RenderService::sendError(Connection &conn, WireError code,
                         const std::string &message)
{
    ErrorMsg msg;
    msg.code = uint32_t(code);
    // Clamp to the protocol's string cap: an error carrying a client-
    // supplied name must not itself be undecodable on the far side.
    msg.message = message.size() > kMaxString
                      ? message.substr(0, kMaxString)
                      : message;
    sendControl(conn, MsgType::Error, msg);
}

bool
RenderService::handleMessage(const std::shared_ptr<Connection> &conn,
                             const MsgHeader &hdr, const uint8_t *payload)
{
    const size_t len = hdr.length;
    if (!conn->hello_done && hdr.type != MsgType::Hello) {
        sendError(*conn, WireError::NeedHello, "handshake required");
        return false;
    }

    switch (hdr.type) {
    case MsgType::Hello: {
        HelloMsg msg;
        if (!decodePayload(payload, len, msg)) {
            sendError(*conn, WireError::BadMessage, "bad Hello");
            return false;
        }
        if (msg.version != kProtocolVersion) {
            sendError(*conn, WireError::BadVersion,
                      "unsupported protocol version");
            return false;
        }
        conn->hello_done = true;
        HelloOkMsg ok;
        ok.server = kBanner;
        sendControl(*conn, MsgType::HelloOk, ok);
        return true;
    }

    case MsgType::OpenSession: {
        OpenSessionMsg msg;
        if (!decodePayload(payload, len, msg)) {
            sendError(*conn, WireError::BadMessage, "bad OpenSession");
            return false;
        }
        auto ws = std::make_shared<WireSession>();
        ws->encoding = FrameEncoding(msg.encoding);
        const uint64_t id = server_.openSession(
            msg.scene, server::QosClass(msg.qos), {},
            [this, ws](server::FrameResult &&r) {
                onResult(ws, std::move(r));
            });
        if (id == 0) {
            sendError(*conn, WireError::UnknownScene,
                      "scene not registered: " + msg.scene);
            return true; // client error, not a protocol violation
        }
        ws->id = id;
        ws->conn = conn;
        conn->sessions.emplace(id, ws);
        {
            std::lock_guard<std::mutex> lock(m_);
            ws->token = splitmix64(token_rng_);
            if (ws->token == 0)
                ws->token = 1;
            sessions_.emplace(id, ws);
        }
        wire_.sessions_opened.inc();
        OpenSessionOkMsg ok;
        ok.session = id;
        ok.token = ws->token;
        sendControl(*conn, MsgType::OpenSessionOk, ok);
        return true;
    }

    case MsgType::ResumeSession: {
        ResumeSessionMsg msg;
        if (!decodePayload(payload, len, msg)) {
            sendError(*conn, WireError::BadMessage, "bad ResumeSession");
            return false;
        }
        std::shared_ptr<WireSession> ws;
        {
            std::lock_guard<std::mutex> lock(m_);
            auto it = sessions_.find(msg.session);
            if (it != sessions_.end())
                ws = it->second;
        }
        if (!ws) {
            sendError(*conn, WireError::ResumeFailed,
                      "unknown or expired session");
            return true;
        }
        bool was_detached = false;
        {
            std::lock_guard<std::mutex> lock(ws->m);
            if (ws->token != msg.token || ws->closing) {
                sendError(*conn, WireError::ResumeFailed,
                          ws->closing ? "session is closing"
                                      : "bad resume token");
                return true;
            }
            if (ws->conn) {
                // Stale attachment: the old socket died but its
                // teardown has not run yet. Steal the session -- the
                // poll thread (us) owns both connections' maps.
                ws->conn->sessions.erase(ws->id);
                ws->conn = nullptr;
            } else {
                was_detached = true;
            }
            ws->conn = conn;
            conn->sessions[ws->id] = ws;
            // Re-seed the delta chain in-band: with no reference, the
            // next Ok frame is encoded in absolute form, so the resumed
            // stream decodes byte-exactly regardless of which frames
            // the dead connection actually delivered.
            ws->reference = Image();
            ResumeSessionOkMsg ok;
            ok.session = ws->id;
            ok.parked = uint32_t(ws->parked.size());
            sendControl(*conn, MsgType::ResumeSessionOk, ok);
            // Replay parked results in completion order, AFTER the Ok.
            while (!ws->parked.empty()) {
                ParkedResult p = std::move(ws->parked.front());
                ws->parked.pop_front();
                const bool had_payload = !p.shed && p.result.ok();
                if (!deliverLocked(conn, *ws, std::move(p.result),
                                   p.shed)) {
                    ws->parked.push_front(std::move(p));
                    break; // conn died mid-replay; teardown re-parks
                }
                if (had_payload && ws->parked_payloads > 0)
                    ws->parked_payloads--;
            }
        }
        if (was_detached) {
            std::lock_guard<std::mutex> lock(m_);
            if (detached_sessions_ > 0)
                detached_sessions_--;
        }
        wire_.sessions_resumed.inc();
        return true;
    }

    case MsgType::CloseSession: {
        CloseSessionMsg msg;
        if (!decodePayload(payload, len, msg)) {
            sendError(*conn, WireError::BadMessage, "bad CloseSession");
            return false;
        }
        auto it = conn->sessions.find(msg.session);
        if (it == conn->sessions.end()) {
            sendError(*conn, WireError::UnknownSession,
                      "no such session");
            return true;
        }
        std::shared_ptr<WireSession> ws = it->second;
        conn->sessions.erase(it);
        {
            // Stays attached: its shed and in-flight results keep
            // delivering to the client, and the close callback queues
            // CloseSessionOk after the last of them -- so the client
            // never sees a result after the close reply.
            std::lock_guard<std::mutex> lock(ws->m);
            ws->closing = true;
        }
        closeSession(ws, conn, false);
        return true;
    }

    case MsgType::SubmitFrame: {
        SubmitFrameMsg msg;
        if (!decodePayload(payload, len, msg)) {
            sendError(*conn, WireError::BadMessage, "bad SubmitFrame");
            return false;
        }
        auto it = conn->sessions.find(msg.session);
        if (it == conn->sessions.end()) {
            sendError(*conn, WireError::UnknownSession,
                      "no such session");
            return true;
        }
        // Admission-side size gate: past this, the frame could not be
        // delivered in one message (and rendering it would be a
        // memory-exhaustion vector anyway).
        if (rawFrameBytes(msg.camera.width, msg.camera.height) >
            kMaxFrameBytes) {
            sendError(*conn, WireError::Oversized, "frame too large");
            return true;
        }
        const uint64_t ticket =
            server_.submitFrame(msg.session, msg.camera.toCamera());
        if (ticket == 0) {
            sendError(*conn, WireError::Rejected, "session is closing");
            return true;
        }
        SubmitFrameOkMsg ok;
        ok.session = msg.session;
        ok.ticket = ticket;
        sendControl(*conn, MsgType::SubmitFrameOk, ok);
        return true;
    }

    case MsgType::GetStats: {
        GetStatsMsg msg;
        if (!decodePayload(payload, len, msg)) {
            sendError(*conn, WireError::BadMessage, "bad GetStats");
            return false;
        }
        MetricsReplyMsg reply;
        const std::string text = server_.metricsText();
        reply.text.assign(text.begin(), text.end());
        sendControl(*conn, MsgType::MetricsReply, reply);
        return true;
    }

    case MsgType::GetTrace: {
        GetTraceMsg msg;
        if (!decodePayload(payload, len, msg)) {
            sendError(*conn, WireError::BadMessage, "bad GetTrace");
            return false;
        }
        sendTrace(*conn, msg.recording != 0);
        return true;
    }

    default:
        // Server-to-client types or unknown ids from a client are a
        // protocol violation either way.
        sendError(*conn, WireError::BadMessage, "unexpected message type");
        return false;
    }
}

void
RenderService::sendTrace(Connection &conn, bool recording)
{
    size_t queued;
    {
        std::lock_guard<std::mutex> out(conn.out_m);
        queued = conn.out_bytes;
    }
    // Control replies are never shed, so a client that kept asking
    // without reading would grow its queue without bound. Past the
    // bound frame payloads obey, the request is refused instead and
    // changes nothing.
    if (queued >= cfg_.max_outbound_bytes) {
        sendError(conn, WireError::Rejected, "outbound queue full");
        return;
    }
    SpanBatchMsg chunk;
    chunk.was_recording = telemetry::enabled() ? 1 : 0;
    telemetry::setEnabled(recording);
    const std::vector<telemetry::Span> spans = telemetry::snapshot();
    chunk.overwritten = telemetry::droppedCount();
    size_t at = 0;
    do {
        const size_t end =
            std::min(spans.size(), at + size_t(kMaxSpansPerBatch));
        chunk.spans.clear();
        for (; at < end; ++at) {
            const telemetry::Span &s = spans[at];
            chunk.spans.push_back(WireSpan{s.name, s.frame, s.ticket,
                                           s.lane, s.t_start_us,
                                           s.t_end_us});
        }
        chunk.last = at == spans.size() ? 1 : 0;
        sendControl(conn, MsgType::SpanBatch, chunk);
    } while (at < spans.size());
}

// -------------------------------------------------- completion delivery

bool
RenderService::deliverLocked(const std::shared_ptr<Connection> &conn,
                             WireSession &ws, server::FrameResult &&result,
                             bool pre_shed)
{
    size_t out_bytes;
    {
        std::lock_guard<std::mutex> out(conn->out_m);
        if (conn->dead)
            return false; // result untouched; the caller parks it
        out_bytes = conn->out_bytes;
    }
    // Encode time and span: message build + payload encode + enqueue
    // for one delivered result (drops/expiries pass through in
    // microseconds; the interesting ones are the Ok frames' codec
    // time).
    const auto encode_start = std::chrono::steady_clock::now();
    telemetry::ScopedSpan span(telemetry::kSpanEncode, result.frame.id,
                               result.ticket);
    FrameResultMsg msg;
    msg.session = ws.id;
    msg.ticket = result.ticket;
    msg.latency_ms = result.latency_s * 1e3;
    msg.encoding = uint8_t(ws.encoding);
    msg.rung = uint8_t(result.rung);

    bool shed = false;
    uint64_t payload_bytes = 0, raw_bytes = 0;
    if (result.dropped) {
        msg.status = uint8_t(FrameStatus::Dropped);
    } else if (result.expired) {
        msg.status = uint8_t(FrameStatus::DeadlineExceeded);
    } else if (result.error) {
        msg.status = uint8_t(FrameStatus::Failed);
        const std::string text = errorText(result.error);
        msg.payload.assign(text.begin(), text.end());
    } else if (pre_shed) {
        // Payload already dropped (parked bound / scavenged queue);
        // the ticket still gets its one result.
        msg.status = uint8_t(FrameStatus::Shed);
        shed = true;
    } else {
        Image &img = result.frame.image;
        msg.width = uint16_t(img.width());
        msg.height = uint16_t(img.height());
        // The requested dims ride along so the client knows the
        // upscale target of a reduced-resolution rung.
        msg.full_width = uint16_t(
            result.full_width > 0 ? result.full_width : img.width());
        msg.full_height = uint16_t(
            result.full_height > 0 ? result.full_height : img.height());
        raw_bytes = rawFrameBytes(img.width(), img.height());
        if (out_bytes >= cfg_.max_outbound_bytes) {
            // Bounded backpressure: keep the ticket accounting, shed
            // the payload, leave the delta reference alone (the client
            // skips its update too).
            msg.status = uint8_t(FrameStatus::Shed);
            shed = true;
        } else {
            msg.status = uint8_t(FrameStatus::Ok);
            FrameEncoding enc = ws.encoding;
            if (result.rung == server::QualityRung::Quantized8)
                // The ladder floor includes lossy wire encoding. The
                // MESSAGE carries Quantized8, so neither endpoint
                // advances its delta reference off this frame.
                enc = FrameEncoding::Quantized8;
            msg.encoding = uint8_t(enc);
            const Image *ref =
                enc == FrameEncoding::DeltaPrev && !ws.reference.empty()
                    ? &ws.reference
                    : nullptr;
            msg.payload = encodeFramePayload(img, enc, ref);
            // The result is ours (rvalue); stealing the image avoids a
            // full-frame copy inside the ordering lock.
            if (enc == FrameEncoding::DeltaPrev)
                ws.reference = std::move(img);
            payload_bytes = msg.payload.size();
        }
    }
    // Count BEFORE enqueueing: once the message is on the queue the
    // client may see it, fetch stats, and expect this frame there.
    wire_.frames_sent.inc();
    if (shed)
        wire_.results_shed.inc();
    wire_.frame_payload_bytes.add(payload_bytes);
    wire_.frame_raw_bytes.add(raw_bytes);
    {
        std::lock_guard<std::mutex> out(conn->out_m);
        enqueueLocked(*conn, packMessage(MsgType::FrameResult, msg));
    }
    wire_.encode[size_t(result.qos)]->record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      encode_start)
            .count());
    wake_.wake();
    return true;
}

void
RenderService::onResult(const std::shared_ptr<WireSession> &ws,
                        server::FrameResult &&result)
{
    std::lock_guard<std::mutex> lock(ws->m);
    if (ws->conn &&
        deliverLocked(ws->conn, *ws, std::move(result), false))
        return;
    // Detached (or the socket died under us). Park for resume when a
    // grace window exists; otherwise the session is going away and the
    // result has nowhere to land.
    if (ws->closing || cfg_.resume_grace_s <= 0.0)
        return;
    ParkedResult p;
    p.result = std::move(result);
    const bool has_payload = p.result.ok();
    if (has_payload) {
        if (ws->parked_payloads >= kMaxParkedPayloads) {
            // Payload bound hit: shed the OLDEST parked payload so the
            // freshest frames survive the resume. The result entry
            // stays -- only the pixels go.
            for (ParkedResult &q : ws->parked) {
                if (!q.shed && q.result.ok()) {
                    q.result.frame.image = Image();
                    q.shed = true;
                    break;
                }
            }
            wire_.results_shed.inc();
        } else {
            ws->parked_payloads++;
        }
    }
    ws->parked.push_back(std::move(p));
    wire_.results_parked.inc();
}

void
RenderService::teardown(const std::shared_ptr<Connection> &conn,
                        bool allow_grace)
{
    // Stop the socket side first: no more reads, no more writes.
    // Steal the unsent outbound queue -- complete FrameResult messages
    // still in it are scavenged below so their tickets keep their
    // one-result guarantee across a resume.
    std::deque<std::vector<uint8_t>> unsent;
    {
        std::lock_guard<std::mutex> out(conn->out_m);
        conn->dead = true;
        unsent = std::move(conn->outq);
        conn->outq.clear();
        conn->out_bytes = 0;
        conn->out_off = 0;
    }
    conn->sock.close();

    const bool grace =
        allow_grace && cfg_.resume_grace_s > 0.0 && running_;

    // Scavenge queued-but-untransmitted results per session: the
    // client never saw them (a partially written front message is
    // discarded by the peer), so re-park them as payload-less Shed
    // results. Only the delta payloads are unrecoverable -- dropping
    // them is exactly what Shed means. Even a partially sent front
    // message is re-parked: the client cannot have decoded a partial
    // frame.
    std::unordered_map<uint64_t, std::vector<ParkedResult>> scavenged;
    if (grace) {
        for (const std::vector<uint8_t> &bytes : unsent) {
            if (bytes.size() < kHeaderSize)
                continue;
            MsgHeader hdr;
            if (decodeHeader(bytes.data(), kHeaderSize, hdr) !=
                    WireError::None ||
                hdr.type != MsgType::FrameResult ||
                bytes.size() != kHeaderSize + hdr.length)
                continue;
            FrameResultMsg msg;
            if (!decodePayload(bytes.data() + kHeaderSize, hdr.length, msg))
                continue;
            if (!conn->sessions.count(msg.session))
                continue;
            ParkedResult p;
            p.result.client = msg.session;
            p.result.ticket = msg.ticket;
            p.result.latency_s = msg.latency_ms / 1e3;
            switch (FrameStatus(msg.status)) {
            case FrameStatus::Dropped:
                p.result.dropped = true;
                break;
            case FrameStatus::DeadlineExceeded:
                p.result.expired = true;
                break;
            case FrameStatus::Failed:
                p.result.error = std::make_exception_ptr(
                    std::runtime_error(std::string(msg.payload.begin(),
                                                   msg.payload.end())));
                break;
            case FrameStatus::Ok:
            case FrameStatus::Shed:
                p.shed = true; // pixels gone; the ticket survives
                break;
            }
            scavenged[msg.session].push_back(std::move(p));
        }
    }

    size_t newly_detached = 0;
    std::vector<std::shared_ptr<WireSession>> closes;
    for (auto &entry : conn->sessions) {
        const std::shared_ptr<WireSession> &ws = entry.second;
        std::lock_guard<std::mutex> lock(ws->m);
        if (ws->conn != conn)
            continue; // already resumed onto another connection
        ws->conn = nullptr;
        if (grace && !ws->closing) {
            auto sc = scavenged.find(ws->id);
            if (sc != scavenged.end()) {
                // Older than anything parked after `dead` flipped on.
                for (auto it = sc->second.rbegin();
                     it != sc->second.rend(); ++it)
                    ws->parked.push_front(std::move(*it));
                wire_.results_parked.add(sc->second.size());
            }
            ws->detached_at = std::chrono::steady_clock::now();
            newly_detached++;
        } else {
            ws->closing = true;
            closes.push_back(ws);
        }
    }
    conn->sessions.clear();

    {
        std::lock_guard<std::mutex> lock(m_);
        conns_.erase(conn->id);
        wire_.connections_open.set(double(conns_.size()));
        detached_sessions_ += newly_detached;
    }
    // Outside the locks: shedding delivers through onResult (ws->m).
    for (auto &ws : closes)
        closeSession(ws, nullptr, false);
}

void
RenderService::expireDetached()
{
    if (cfg_.resume_grace_s <= 0.0)
        return;
    std::vector<std::shared_ptr<WireSession>> expired;
    const auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(m_);
        if (detached_sessions_ == 0)
            return;
        for (auto &entry : sessions_) {
            const std::shared_ptr<WireSession> &ws = entry.second;
            std::lock_guard<std::mutex> wl(ws->m);
            if (ws->conn || ws->closing)
                continue;
            const double waited =
                std::chrono::duration<double>(now - ws->detached_at)
                    .count();
            if (waited < cfg_.resume_grace_s)
                continue;
            ws->closing = true;
            expired.push_back(ws);
            if (detached_sessions_ > 0)
                detached_sessions_--;
        }
    }
    for (auto &ws : expired)
        closeSession(ws, nullptr, true);
}

void
RenderService::closeSession(const std::shared_ptr<WireSession> &ws,
                            std::shared_ptr<Connection> reply_to,
                            bool expired)
{
    // Sheds the session's pending frames here; the callback runs after
    // its last result was queued, on the thread that delivered it.
    server_.closeSession(
        ws->id, [this, id = ws->id, reply_to = std::move(reply_to),
                 expired] {
            if (reply_to) {
                CloseSessionOkMsg ok;
                ok.session = id;
                sendControl(*reply_to, MsgType::CloseSessionOk, ok);
            }
            if (expired)
                wire_.sessions_expired.inc();
            std::lock_guard<std::mutex> lock(m_);
            sessions_.erase(id);
            if (sessions_.empty())
                closed_cv_.notify_all();
        });
}

} // namespace asdr::net
