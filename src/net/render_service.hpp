/**
 * @file
 * The wire front end of the multi-tenant render server: a poll-based
 * TCP service that maps protocol sessions 1:1 onto FrameServer tickets.
 *
 * Threading model (one service, any number of connections):
 *
 *  - ONE service thread runs the whole socket side: non-blocking
 *    accept, request parsing/dispatch, and draining per-connection
 *    outbound queues when sockets turn writable. Steady-state control
 *    handling is cheap (FrameServer::submitFrame never blocks), and
 *    the poll thread never blocks on session drains either: session
 *    teardown (CloseSession, disconnects, resume-grace expiry) is
 *    handed to a REAPER thread that runs the blocking
 *    FrameServer::closeSession and replies CloseSessionOk afterwards,
 *    so a close never stalls other connections' I/O.
 *  - Render completions arrive on ENGINE workers via the FrameServer's
 *    per-session callbacks. A callback never touches a socket: it
 *    encodes the frame (per the session's chosen FrameEncoding),
 *    appends the FrameResult message to the connection's outbound
 *    queue, and wakes the poll loop through a pipe. Frame encode order
 *    is serialized per session (the session mutex), so the client's
 *    receive order matches the server's delta-reference order exactly.
 *  - Backpressure is bounded per connection: past max_outbound_bytes
 *    of queued output, frame PAYLOADS are shed -- the FrameResult
 *    still arrives, flagged FrameStatus::Shed, so ticket accounting
 *    stays exact ("every ticket produces exactly one result" survives
 *    the wire) while queue memory stays bounded. Control replies are
 *    never shed. Degrading a frame before it comes to that is the
 *    quality ladder's job (server/quality_ladder.hpp): its floor rung
 *    travels Quantized8. Shed and Quantized8 frames do not advance
 *    the delta reference on either endpoint (both key it off the
 *    MESSAGE's encoding, not the session's).
 *
 * Counters: every wire counter lives in the wrapped FrameServer's
 * metrics registry (asdr_wire_*), as does each delivered result's
 * encode time (asdr_stage_duration_seconds{stage="net.encode",qos}),
 * so GetStats' exposition carries them next to the serving metrics;
 * counters() is a typed read. One service per server: a second would
 * add into the same series.
 *
 * Reconnect-and-resume: sessions are owned by the SERVICE, not the
 * connection. OpenSessionOk carries a resume token; when a connection
 * dies and ServiceConfig::resume_grace_s > 0, its sessions detach and
 * park completed results (payload-bounded) instead of closing. A new
 * connection presenting ResumeSession{id, token} within the grace
 * window re-attaches the session, gets ResumeSessionOk{parked} and the
 * parked results replayed in submission order. The delta-reference
 * chain is re-seeded in-band: the server clears its reference at
 * resume, so the first Ok frame travels in absolute form (the DeltaPrev
 * codec's null-reference fallback) and the resumed stream stays
 * byte-exact without any out-of-band state. Sessions that outlive the
 * grace window are closed by the reaper and counted sessions_expired.
 *
 * Robustness: malformed framing (bad magic, oversized length),
 * undecodable payloads, wrong protocol versions, and pre-handshake
 * traffic all get an Error message and a close -- the service never
 * trusts a length or enum from the wire (see net/protocol). A
 * disconnect mid-stream with no grace window closes the connection's
 * FrameServer sessions, shedding its pending frames and waiting out
 * in-flight ones (on the reaper).
 *
 * Lifetime: the FrameServer and SceneRegistry must outlive the
 * service; stop() (or destruction) quiesces the socket side first.
 * Lock order: service m_ -> WireSession::m -> Connection::out_m (each
 * optional, never taken in reverse).
 */

#ifndef ASDR_NET_RENDER_SERVICE_HPP
#define ASDR_NET_RENDER_SERVICE_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame_codec.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "server/frame_server.hpp"
#include "util/telemetry.hpp"

namespace asdr::net {

struct ServiceConfig
{
    /** Bind address; loopback by default (tests, benches, examples). */
    std::string host = "127.0.0.1";
    /** 0 = ephemeral; the bound port is readable via port(). */
    uint16_t port = 0;
    /** Accepted connections beyond this are refused at accept time. */
    int max_connections = 64;
    /**
     * Per-connection outbound-queue bound (bytes). While a connection
     * has at least this much queued, frame payloads are shed
     * (FrameStatus::Shed) instead of growing the queue -- the slow-
     * reader analog of the QoS backlog drop policies.
     */
    size_t max_outbound_bytes = size_t(64) << 20;
    /**
     * How long a disconnected connection's sessions stay resumable
     * before the reaper closes them. 0 (default) = resume disabled:
     * a disconnect closes sessions immediately, as before.
     */
    double resume_grace_s = 0.0;
};

/** A typed read of the service's wire counters (asdr_wire_* in the
 *  server's registry; all monotone except connections_open). */
struct WireCounters
{
    uint64_t connections_accepted = 0;
    uint64_t connections_open = 0;
    uint64_t sessions_opened = 0;
    uint64_t frames_sent = 0;    ///< FrameResult messages written
    uint64_t results_shed = 0;   ///< payloads dropped by backpressure
    /** Results completed while their session was detached, held for a
     *  resume. */
    uint64_t results_parked = 0;
    uint64_t sessions_resumed = 0; ///< successful ResumeSession
    /** Detached sessions whose resume grace expired (closed). */
    uint64_t sessions_expired = 0;
    uint64_t bytes_tx = 0;
    uint64_t bytes_rx = 0;
    /** Encoded frame payload bytes vs what raw float would have cost:
     *  the delivery-path analog of the paper's data-reuse savings. */
    uint64_t frame_payload_bytes = 0;
    uint64_t frame_raw_bytes = 0;
    /** Live-telemetry stream: SpanBatch messages written, and batches
     *  dropped by per-subscriber backpressure. */
    uint64_t span_batches_sent = 0;
    uint64_t span_batches_dropped = 0;
};

class RenderService
{
  public:
    /** `server` (and the registry it serves) must outlive the service. */
    RenderService(server::FrameServer &server, const ServiceConfig &cfg = {});
    ~RenderService();

    RenderService(const RenderService &) = delete;
    RenderService &operator=(const RenderService &) = delete;

    /** Bind + listen + start the service + reaper threads. */
    bool start(std::string *err = nullptr);
    /** Close every connection (their sessions included), then stop the
     *  service and reaper threads. Idempotent. */
    void stop();

    bool running() const { return running_; }
    uint16_t port() const { return listener_.port(); }
    WireCounters counters() const;

  private:
    struct Connection;

    /** The wire series in the server's registry, resolved once. */
    struct WireMetrics
    {
        explicit WireMetrics(metrics::Registry &reg);
        metrics::Counter &connections_accepted;
        metrics::Gauge &connections_open;
        metrics::Counter &sessions_opened;
        metrics::Counter &frames_sent;
        metrics::Counter &results_shed;
        metrics::Counter &results_parked;
        metrics::Counter &sessions_resumed;
        metrics::Counter &sessions_expired;
        metrics::Counter &bytes_tx;
        metrics::Counter &bytes_rx;
        metrics::Counter &frame_payload_bytes;
        metrics::Counter &frame_raw_bytes;
        metrics::Counter &span_batches_sent;
        metrics::Counter &span_batches_dropped;
        /** Per-class encode time of one delivered result, seconds. */
        std::array<metrics::Histogram *, server::kQosClasses> encode{};
    };

    /** One parked frame outcome awaiting resume (payload raw, encoded
     *  only at replay so the re-seeded reference chain stays exact). */
    struct ParkedResult
    {
        server::FrameResult result;
        bool shed = false; ///< payload dropped by the parked bound
    };

    /** Service-owned session state; outlives the connection that
     *  opened it while a resume grace window is running. */
    struct WireSession
    {
        uint64_t id = 0; ///< FrameServer client id == wire session id
        uint64_t token = 0; ///< resume credential (OpenSessionOk)
        FrameEncoding encoding = FrameEncoding::Raw;

        /** Guards everything below; serializes the session's encode
         *  order (== wire order == delta-reference order). */
        std::mutex m;
        /** Attached connection; null while detached (resumable). */
        std::shared_ptr<Connection> conn;
        /** Last Ok frame sent (DeltaPrev messages only). */
        Image reference;
        /** Results completed while detached, replayed on resume. */
        std::deque<ParkedResult> parked;
        size_t parked_payloads = 0;
        bool closing = false; ///< handed to the reaper; no resume
        std::chrono::steady_clock::time_point detached_at{};
    };

    struct Connection
    {
        uint64_t id = 0;
        Socket sock;
        std::vector<uint8_t> in;
        /** Attached wire sessions by id (service thread only). */
        std::unordered_map<uint64_t, std::shared_ptr<WireSession>> sessions;
        bool hello_done = false;

        // Telemetry span subscription (service thread only, like
        // `sessions`): an incremental cursor over the process span
        // buffers plus the stream's sequence/drop accounting.
        bool telemetry_sub = false;
        telemetry::CollectCursor span_cursor;
        uint64_t span_seq = 0;     ///< SpanBatch sequence (sent batches)
        uint64_t span_dropped = 0; ///< cumulative batches shed (backpressure)

        /** out_m guards everything below -- shared between the service
         *  thread, engine callbacks, and the reaper. */
        std::mutex out_m;
        std::deque<std::vector<uint8_t>> outq;
        size_t out_off = 0; ///< bytes of outq.front() already written
        size_t out_bytes = 0;
        bool dead = false;
    };

    /** One blocking drain for the reaper thread. */
    struct CloseJob
    {
        std::shared_ptr<WireSession> ws;
        /** Non-null: reply CloseSessionOk here after the drain. */
        std::shared_ptr<Connection> reply_to;
        bool expired = false; ///< grace-window expiry (counted)
    };

    void run();
    void acceptNew();
    /** Drain readable bytes + dispatch complete messages. */
    void readInput(const std::shared_ptr<Connection> &conn);
    /** Write queued bytes until the socket would block. */
    void flushOut(const std::shared_ptr<Connection> &conn);
    /** Dispatch one message; false = protocol violation (Error already
     *  queued; the caller closes the connection). */
    bool handleMessage(const std::shared_ptr<Connection> &conn,
                       const MsgHeader &hdr, const uint8_t *payload);
    /** Detach (grace window) or enqueue-close the connection's
     *  sessions and forget it; never blocks on a drain (the reaper
     *  does). `allow_grace=false` at shutdown: everything closes. */
    void teardown(const std::shared_ptr<Connection> &conn,
                  bool allow_grace);
    /** Engine-callback path: deliver (attached) or park (detached). */
    void onResult(const std::shared_ptr<WireSession> &ws,
                  server::FrameResult &&result);
    /** Encode + enqueue one result on `conn`; ws->m must be held.
     *  `pre_shed`: payload already dropped by the parked bound.
     *  False (result untouched) when the connection is dead. */
    bool deliverLocked(const std::shared_ptr<Connection> &conn,
                       WireSession &ws, server::FrameResult &&result,
                       bool pre_shed);
    /**
     * Drain newly recorded telemetry spans to every subscribed
     * connection (rate-limited to one full pass per stream period;
     * `force` drains immediately -- the unsubscribe barrier).
     */
    void drainSpanStreams(bool force);
    /** Stream everything new past `conn`'s cursor as SpanBatch
     *  messages; sheds whole batches (counted) past the outbound
     *  bound -- control replies are never shed. */
    void streamSpansTo(const std::shared_ptr<Connection> &conn);
    /** Subscribed connections (service thread). */
    size_t telemetrySubscribers();
    /** Detached sessions past the grace window -> reaper close. */
    void expireDetached();
    void enqueueClose(CloseJob &&job);
    void reaperRun();

    template <typename Msg>
    void sendControl(Connection &conn, MsgType type, const Msg &msg);
    void enqueueLocked(Connection &conn, std::vector<uint8_t> &&bytes);
    void sendError(Connection &conn, WireError code,
                   const std::string &message);

    server::FrameServer &server_;
    ServiceConfig cfg_;
    TcpListener listener_;
    WakePipe wake_;
    std::thread thread_;
    std::atomic<bool> running_{false};

    /** Connection + session tables; mutated only by the service
     *  thread, read by engine callbacks and the reaper -- under m_. */
    mutable std::mutex m_;
    std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
    std::unordered_map<uint64_t, std::shared_ptr<WireSession>> sessions_;
    uint64_t next_conn_ = 1;
    size_t detached_sessions_ = 0; ///< sessions awaiting resume
    uint64_t token_rng_ = 0;       ///< resume-token stream state
    /** True when a subscriber turned span recording on (the service
     *  restores it off when the last subscriber leaves). Service
     *  thread only. */
    bool service_enabled_tracing_ = false;
    /** Last full span-stream drain pass (service thread only). */
    std::chrono::steady_clock::time_point last_span_drain_{};

    std::mutex reap_m_;
    std::condition_variable reap_cv_;
    std::deque<CloseJob> reap_q_;
    bool reap_stop_ = false;
    std::thread reaper_;

    WireMetrics wire_;
};

} // namespace asdr::net

#endif // ASDR_NET_RENDER_SERVICE_HPP
