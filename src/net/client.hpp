/**
 * @file
 * Blocking client of the wire render service -- the library behind
 * examples/render_client and the workload generator's over-the-wire
 * mode, and the reference implementation of the client side of the
 * protocol (handshake, session management, frame decode, delta
 * reference tracking, reconnect-and-resume).
 *
 * The client is single-threaded and strictly ordered: control calls
 * (openSession, submitFrame, ...) send the request and block for its
 * reply; FrameResult messages that arrive while waiting are decoded
 * and buffered, so nextFrame() and control calls interleave freely on
 * one connection. Frames are decoded in receive order, which the
 * service guarantees matches its per-session encode order -- that
 * lockstep is what keeps the DeltaPrev reference chain bit-exact.
 *
 * Fault handling: every failure is classified (lastError()) so callers
 * can tell transient faults -- Timeout, PeerClosed, IoError, all worth
 * a reconnect -- from fatal ones (Protocol corruption, service
 * refusals). openSession() records the server's resume token; after a
 * connection loss, dropConnection() + reconnect() re-dials with
 * exponential backoff and presents ResumeSession{id, token} for every
 * open session, clearing the local delta reference so the server's
 * re-seeded (absolute) first frame decodes byte-exactly.
 * submitFrameRetry() wraps the whole loop for closed-loop drivers.
 *
 * Not thread-safe: drive one Client from one thread (open several
 * connections for concurrency, as the wire workload does).
 */

#ifndef ASDR_NET_CLIENT_HPP
#define ASDR_NET_CLIENT_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "image/image.hpp"
#include "net/frame_codec.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "server/qos.hpp"
#include "util/telemetry.hpp"

namespace asdr::net {

/** One received frame (or its drop/failure/shed notice), decoded. */
struct ClientFrame
{
    uint64_t session = 0;
    uint64_t ticket = 0;
    FrameStatus status = FrameStatus::Ok;
    FrameEncoding encoding = FrameEncoding::Raw;
    /** Decoded image (Ok results only). */
    Image image;
    /** Error text (Failed results only). */
    std::string error;
    /** Server-side submit -> delivery latency, milliseconds. */
    double latency_ms = 0.0;
    /** Encoded payload size on the wire (the compression numerator). */
    size_t payload_bytes = 0;
    /** Quality-ladder rung the server rendered this frame at. */
    server::QualityRung rung = server::QualityRung::Full;
    /** The resolution the submit asked for (Ok results); `image` is
     *  already upscaled back to it when the server rendered smaller. */
    int full_width = 0;
    int full_height = 0;
    /** The payload arrived below full resolution and was bilinearly
     *  upscaled to full_width x full_height. */
    bool upscaled = false;
    /**
     * Hold-last-frame fallback (Client::setHoldLastFrame): this result
     * carried no payload (Shed/Dropped/DeadlineExceeded) and `image`
     * is the session's previous delivered frame instead -- stale, but
     * displayable. `status` still reports the real outcome.
     */
    bool stale = false;

    bool ok() const { return status == FrameStatus::Ok; }
};

/** Received-frame byte accounting across a connection's lifetime. */
struct ClientTransferStats
{
    uint64_t frames = 0;        ///< Ok frames decoded
    uint64_t payload_bytes = 0; ///< their encoded wire payload bytes
    uint64_t raw_bytes = 0;     ///< what raw float would have cost
};

/** Why the last client call failed (None after a success). */
enum class ClientError
{
    None = 0,
    /** Blocking read hit the receive timeout; the peer may be slow or
     *  gone. Transient: worth a retry/reconnect. */
    Timeout,
    /** The peer closed (or reset) the connection. Transient. */
    PeerClosed,
    /** A socket-level send/recv error (or calling while not
     *  connected). Transient. */
    IoError,
    /** Corrupt framing or an undecodable payload from the service --
     *  a bug or a version skew; retrying cannot help. Fatal. */
    Protocol,
    /** The service answered with an Error message (unknown scene,
     *  rejected submit, failed resume, ...). Fatal for this request. */
    Refused,
};

const char *clientErrorName(ClientError e);

/** Transient errors are connection-level faults a reconnect (or plain
 *  retry, for Timeout) can heal; fatal ones cannot. */
inline bool
isTransient(ClientError e)
{
    return e == ClientError::Timeout || e == ClientError::PeerClosed ||
           e == ClientError::IoError;
}

/** Exponential backoff with jitter for reconnect/retry loops. */
struct RetryPolicy
{
    int max_attempts = 5;
    double base_delay_s = 0.05;
    double multiplier = 2.0;
    double max_delay_s = 2.0;
    /** Fraction of the delay randomized (0 = deterministic, 1 = the
     *  delay varies +-50%); decorrelates clients retrying in sync. */
    double jitter = 0.5;
    uint64_t seed = 0x243F6A8885A308D3ull;
};

/** Delay before retry number `attempt` (0-based): base * mult^attempt,
 *  capped at max, jittered via `rng_state` (splitmix64, advanced). */
double retryBackoff(const RetryPolicy &policy, int attempt,
                    uint64_t &rng_state);

class Client
{
  public:
    Client() = default;
    ~Client() = default;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&) = default;
    Client &operator=(Client &&) = default;

    /**
     * Connect + version handshake; forgets any previous session state
     * (use reconnect() to keep it). `recv_timeout_s` bounds every
     * blocking read so a dead service surfaces as an error, not a
     * hang (0 disables the timeout). The endpoint is remembered for
     * reconnect().
     */
    bool connect(const std::string &host, uint16_t port,
                 std::string *err = nullptr, double recv_timeout_s = 30.0);
    /** connect() with backoff across `policy.max_attempts` dials. */
    bool connectWithRetry(const std::string &host, uint16_t port,
                          const RetryPolicy &policy = {},
                          std::string *err = nullptr,
                          double recv_timeout_s = 30.0);
    /** Graceful full teardown: socket, buffered results, references,
     *  and session/resume state all dropped. */
    void disconnect();
    /**
     * Abrupt connection kill: closes the socket WITHOUT the protocol
     * goodbye, keeping buffered results, delta references, and resume
     * tokens -- what a crash or cable pull looks like to the service.
     * Follow with reconnect() (or connect-to-resume by hand) to pick
     * the sessions back up; also the fault-test/bench kill switch.
     */
    void dropConnection();
    bool connected() const { return sock_.valid(); }

    /**
     * Re-dial the remembered endpoint with backoff and resume every
     * open session (ResumeSession with the stored token; the local
     * delta reference is cleared to mirror the server's re-seed).
     * Sessions the service no longer knows are forgotten locally and
     * fail the call -- the caller decides whether to reopen them.
     * Buffered results and transfer stats survive.
     */
    bool reconnect(std::string *err = nullptr,
                   const RetryPolicy &policy = {});
    /** Resume one detached session on the current connection; fills
     *  `parked` (when set) with the number of replayed results. */
    bool resumeSession(uint64_t session, std::string *err = nullptr,
                       uint32_t *parked = nullptr);

    /** Open a session on a registered scene; 0 + `err` on failure.
     *  The resume token from OpenSessionOk is stored internally. */
    uint64_t openSession(const std::string &scene, server::QosClass qos,
                         FrameEncoding encoding,
                         std::string *err = nullptr);
    /** Close a session; buffered/late results of it are discarded. */
    bool closeSession(uint64_t session, std::string *err = nullptr);

    /** Submit one camera pose; returns the ticket (0 + `err` when
     *  refused). Never waits for the render, only for the ack. */
    uint64_t submitFrame(uint64_t session, const CameraSpec &camera,
                         std::string *err = nullptr);
    /**
     * submitFrame with transparent fault recovery: on a TRANSIENT
     * failure (timeout, peer closed, I/O error) the connection is
     * re-dialed, sessions resumed, and the submit retried, up to
     * `policy.max_attempts` tries with backoff. Fatal errors (refusal,
     * protocol corruption) return 0 immediately.
     */
    uint64_t submitFrameRetry(uint64_t session, const CameraSpec &camera,
                              const RetryPolicy &policy = {},
                              std::string *err = nullptr);

    /**
     * Block until the next FrameResult (buffered or from the wire) and
     * decode it. False on connection loss / protocol error. Results
     * arrive in server completion order; correlate by ticket.
     */
    bool nextFrame(ClientFrame &out, std::string *err = nullptr);

    /** Fetch the service's metrics as Prometheus text (GetStats ->
     *  MetricsReply: the serving, wire, and stage series). */
    bool fetchMetricsText(std::string &out, std::string *err = nullptr);

    /**
     * Subscribe to (or end) the service's live telemetry span stream.
     * While subscribed, SpanBatch messages arrive interleaved with
     * control replies and frames; they are buffered internally (drain
     * with drainSpans) and never disturb nextFrame()/control calls.
     * Unsubscribing is a deterministic barrier: the service drains
     * everything recorded so far BEFORE the Ok, so after a successful
     * subscribeSpans(false) the buffer holds the complete stream.
     */
    bool subscribeSpans(bool on, std::string *err = nullptr);
    /** Move every buffered streamed span into `out`; returns count.
     *  Span names point into this client and stay valid while it
     *  lives. */
    size_t drainSpans(std::vector<telemetry::Span> &out);
    /** Span batches the service shed under backpressure (cumulative,
     *  from the last SpanBatch header). */
    uint64_t spanBatchesDropped() const { return span_batches_dropped_; }

    /**
     * Tail the service's spans into a growing Perfetto-loadable JSON
     * file: subscribe, then rewrite `path` as a complete trace
     * document after every received batch, until `duration_s` elapses
     * (0 = no time limit) or `*stop` turns true, then unsubscribe and
     * write the final drain. False on connection/protocol failure
     * (the file still holds everything received). The live remote
     * analog of ASDR_TRACE_OUT's exit dump -- no restart needed.
     */
    bool followSpans(const std::string &path, double duration_s,
                     const std::atomic<bool> *stop = nullptr,
                     std::string *err = nullptr);

    const ClientTransferStats &transfer() const { return transfer_; }
    /** Classification of the most recent failure (None on success). */
    ClientError lastError() const { return last_error_; }

    /**
     * Hold-last-frame fallback: when enabled, a payload-less result
     * (Shed, Dropped, DeadlineExceeded) of a session that has already
     * delivered at least one Ok frame gets that previous frame
     * substituted into ClientFrame::image with `stale = true` -- a
     * viewer shows the last good image instead of a gap. Off by
     * default (seed behavior: such results carry an empty image).
     */
    void setHoldLastFrame(bool on) { hold_last_frame_ = on; }
    bool holdLastFrame() const { return hold_last_frame_; }

  private:
    /** Per-open-session resume state. */
    struct SessionState
    {
        uint64_t token = 0;
        FrameEncoding encoding = FrameEncoding::Raw;
    };

    /** One dial + handshake; touches no session state. */
    bool dial(std::string *err);
    /** Resume every known session; expired ones are forgotten. */
    bool resumeAll(std::string *err);
    /** Read exactly one framed message (blocking). */
    bool readMessage(MsgType &type, std::vector<uint8_t> &payload,
                     std::string *err);
    /** Read until a `want` reply arrives, buffering FrameResults and
     *  turning Error replies into a false return. */
    bool waitReply(MsgType want, std::vector<uint8_t> &payload,
                   std::string *err);
    bool send(MsgType type, const std::vector<uint8_t> &packed,
              std::string *err);
    /** Decode + buffer one FrameResult payload. */
    bool takeFrameResult(const std::vector<uint8_t> &payload,
                         std::string *err);
    /** Decode + buffer one SpanBatch payload. */
    bool takeSpanBatch(const std::vector<uint8_t> &payload,
                       std::string *err);
    bool fail(std::string *err, ClientError cls, const std::string &what);

    Socket sock_;
    std::deque<ClientFrame> results_;
    /** Per-session delta reference: last Ok frame, receive order. */
    std::unordered_map<uint64_t, Image> refs_;
    /** Per-session last delivered (post-upscale) frame, for the
     *  hold-last-frame fallback. Only populated when enabled. */
    std::unordered_map<uint64_t, Image> last_frames_;
    bool hold_last_frame_ = false;
    /** Resume tokens + encodings of open sessions. */
    std::unordered_map<uint64_t, SessionState> sessions_;
    ClientTransferStats transfer_;
    ClientError last_error_ = ClientError::None;
    /** Streamed spans awaiting drainSpans(). */
    std::deque<telemetry::Span> spans_;
    /** Every streamed span name, once: the storage spans_' names
     *  point into (set nodes never move). */
    std::set<std::string> span_names_;
    uint64_t span_batches_dropped_ = 0;
    bool span_sub_ = false;

    std::string host_;
    uint16_t port_ = 0;
    double recv_timeout_s_ = 30.0;
};

} // namespace asdr::net

#endif // ASDR_NET_CLIENT_HPP
