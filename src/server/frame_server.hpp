/**
 * @file
 * Multi-tenant serving front end over the streaming frame engine: many
 * clients, many scenes, mixed QoS, shared compute.
 *
 * Layering (the host analog of serving many viewers from shared CIM
 * arrays, generalizing the paper's §5.5 engine pipelining from "frames
 * of one viewer" to "frames of many viewers over shared workers"):
 *
 *   SceneRegistry    named (field, config) entries, loaded once,
 *                    shared read-only by every client of a scene.
 *                    The server builds one renderer per scene at its
 *                    first session (plus one per degraded sample
 *                    budget the quality ladder admits a frame at), and
 *                    every session of the scene renders through them.
 *   FrameServer      owns one FrameEngine: one set of workers and
 *                    one set of pipeline slots that every session's
 *                    frames share, as the paper's Phase I and Phase
 *                    II engines share one set of arrays. The
 *                    per-class and per-scene in-flight counts, the
 *                    brownout controller and the coalescing scan all
 *                    cover the whole server.
 *   QosScheduler     the server's one admission queue (replaces
 *                    FIFO): smallest order key (ticket + qosLag)
 *                    first, per-class in-flight caps, per-scene
 *                    quotas, bounded per-client backlogs (drop-oldest
 *                    for interactive). The engine's workers take
 *                    each admitted frame's stage tasks by the same
 *                    key, smallest first. The server keeps the
 *                    engine's own queue EMPTY -- frames wait in the
 *                    scheduler, not the engine, so admission order is
 *                    always the scheduler's decision.
 *   delivery         fully async: per-client completion callbacks or
 *                    the server's poll()/drainResults() mailbox; a
 *                    serving loop never blocks in a future get().
 *                    Callbacks may submit follow-up frames (closed
 *                    loop) -- waitIdle() only returns once a finished
 *                    frame's callback has run AND submitted nothing.
 *   coalescing       an admitted frame whose scene, QoS class, rung
 *                    and camera (bitwise) match a render already on
 *                    a pipeline slot joins that render as a waiter
 *                    and takes no slot, whichever session submitted
 *                    either frame. When the render finishes, every
 *                    waiter gets its own FrameResult (ticket,
 *                    latency, counts, SLO outcome, image copy). Each
 *                    scene keeps its last successful render, so an
 *                    admitted frame that matches it (a repeat that
 *                    arrived after the render left its slot, or one
 *                    still queued while it rendered) is answered from
 *                    it the same way, after the render's own answers,
 *                    with no slot and no render. Half-open breaker
 *                    probes neither lead, join nor take such an
 *                    answer.
 *
 * Frames served through any worker count and QoS mix are bit-identical
 * to the client's own sequential AsdrRenderer::render() calls: the engine
 * stages are bit-exact and nothing carries over between frames, so
 * the scene's shared renderer and a shared render serve every request
 * for a view alike -- enforced by tests/test_server.cpp.
 */

#ifndef ASDR_SERVER_FRAME_SERVER_HPP
#define ASDR_SERVER_FRAME_SERVER_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/frame_engine.hpp"
#include "server/qos.hpp"
#include "server/qos_scheduler.hpp"
#include "server/quality_ladder.hpp"
#include "server/scene_registry.hpp"
#include "server/server_stats.hpp"
#include "server/slo_tracker.hpp"
#include "util/telemetry.hpp"

namespace asdr::server {

/**
 * Per-scene circuit breaker: `failure_threshold` consecutive render
 * failures quarantine the scene (state Open) -- its frames are failed
 * fast at admission, without occupying pipeline slots, so a poisoned
 * field cannot monopolize the server. After `open_s` the breaker goes
 * half-open: up to `half_open_probes` frames are admitted as probes;
 * a probe success closes the breaker, a failure reopens it.
 */
struct BreakerParams
{
    /** Consecutive failures that trip the breaker; 0 disables it. */
    int failure_threshold = 0;
    /** Seconds a tripped scene stays quarantined before probing. */
    double open_s = 5.0;
    /** Concurrent probe frames admitted while half-open. */
    int half_open_probes = 1;
};

struct ServerConfig
{
    /**
     * Must be 1: the server runs one FrameEngine. The field survives,
     * and the two below keep "shard" in their names, only because
     * servebench/main.cpp sets all three; they go or are renamed
     * together with that file.
     */
    int shards = 1;
    /** Render workers of the server's engine; 0 = auto
     *  (ASDR_NUM_THREADS / cores). */
    int threads_per_shard = 0;
    /** Pipeline slots: frames rendering concurrently. */
    int frames_in_flight_per_shard = 2;
    /** Admission policy knobs (caps, backlogs, deadlines, quotas);
     *  the order itself is fixed by qosLag. */
    QosParams qos;
    /** Per-scene failure quarantine (disabled by default). */
    BreakerParams breaker;
    /**
     * Watchdog tick period, milliseconds. The watchdog expires queued
     * frames past their class deadline even when no submission would
     * pump the scheduler, and scans in-flight frames for the stuck gauge.
     * The thread only starts when it has work: some class deadline or
     * `stuck_after_ms` is set. 0 disables it (deadlines then expire
     * lazily, on the next admission pump).
     */
    int watchdog_period_ms = 50;
    /** In-flight frames older than this count as stuck (the
     *  asdr_stuck_in_flight gauge + asdr_stuck_events_total); 0
     *  disables the scan. A stuck frame is surfaced, never killed --
     *  the engine owns its lifetime. */
    double stuck_after_ms = 0.0;
    /**
     * Quality ladder (server/quality_ladder.hpp): with
     * `ladder.enabled`, the server runs a BrownoutController that may
     * admit frames at a degraded rung under pressure instead of
     * letting them pile up toward the backlog policy. Disabled by
     * default -- every frame renders Full, bit-exact with the seed.
     * The rung transforms (sample_scale, resolution_divisor) also
     * apply to frames degraded by the scheduler's degraded_backlog
     * stretch or the server.admit.degrade fault site, whether or not
     * the controller itself is enabled.
     */
    LadderParams ladder;
    /**
     * Slow-frame flight recorder: frames whose submit -> delivery
     * latency exceeds this (milliseconds), or which fail, expire past
     * their deadline, or are shed, are retained in the recorder with
     * their facts and, when rendered, their render's stage times;
     * slow/failed/expired ones are also dumped through warn(), once
     * per render. 0 disables the budget (default); frames that violate
     * an SLO objective are recorded all the same.
     */
    double slow_frame_ms = 0.0;
    /** Flight-recorder ring capacity (most recent records kept). */
    int flight_recorder_frames = 16;
    /**
     * Per-class SLOs (server/slo_tracker.hpp): when any class carries
     * an objective, a SloTracker watches every terminal outcome over
     * sliding fast/slow burn-rate windows. Breaches raise the breach
     * gauge and warn() once per transition; every frame that violates
     * its class's objective is recorded into the flight recorder as it
     * is delivered (independent of slow_frame_ms, and silently).
     * Disabled by default (no objectives set).
     */
    SloParams slo;
};

/**
 * Per-session options beyond the QoS class. There are none: sessions
 * carry nothing between frames. The struct keeps openSession's
 * signature, so callers that pass `{}` before a callback compile
 * unchanged.
 */
struct SessionOptions
{
};

/** One delivered frame (or its drop/failure notice). */
struct FrameResult
{
    uint64_t client = 0;
    uint64_t ticket = 0;
    QosClass qos = QosClass::Standard;
    /** The rendered frame; empty image on drop/failure. */
    engine::Frame frame;
    /** Set when the render threw; the frame is invalid. */
    std::exception_ptr error;
    /** Shed by the backlog policy before rendering. */
    bool dropped = false;
    /** Expired in the queue past its class deadline (never rendered). */
    bool expired = false;
    /** Submit -> delivery latency, seconds; for a shed frame, submit
     *  -> shed. */
    double latency_s = 0.0;
    /**
     * The ticket whose render produced this frame (or threw): equal to
     * `ticket` for the frame that led the render, the leader's ticket
     * for a frame that joined it or was answered from it after it
     * finished. 0 when nothing was rendered (dropped, expired, breaker
     * fast-fail).
     */
    uint64_t render_ticket = 0;
    /** Quality-ladder rung the frame was served at (Full unless the
     *  server degraded it). */
    QualityRung rung = QualityRung::Full;
    /**
     * The resolution the client *asked* for (the submitted camera's
     * dims), set on served frames. At QualityRung::ReducedResolution
     * and below, frame.image is smaller than this -- the consumer
     * (net::Client, or a direct embedder) upscales back.
     */
    int full_width = 0;
    int full_height = 0;

    bool ok() const { return !dropped && !expired && error == nullptr; }
};

class FrameServer
{
  public:
    using ResultCallback = std::function<void(FrameResult &&)>;
    using CloseCallback = std::function<void()>;

    /** The registry must outlive the server. */
    FrameServer(const SceneRegistry &registry, const ServerConfig &cfg);
    /** Sheds pending frames, waits out in-flight ones, stops the
     *  engine. */
    ~FrameServer();

    FrameServer(const FrameServer &) = delete;
    FrameServer &operator=(const FrameServer &) = delete;

    /**
     * Open a client session viewing a registered scene. Returns the
     * client id (nonzero), or 0 when the scene is unknown. When
     * `callback` is set, the client's results are delivered through it
     * (on engine workers; it may call submitFrame -- closed-loop
     * streaming -- and the callback form of closeSession); otherwise
     * they land in the server mailbox for poll()/drainResults(). A
     * callback must NOT call the blocking closeSession or waitIdle: the
     * result it handles, and any its own calls produce (delivered on
     * its thread after it returns), count as outstanding until then,
     * so either call would wait on itself.
     */
    uint64_t openSession(const std::string &scene, QosClass qos,
                         const SessionOptions &opt = {},
                         ResultCallback callback = nullptr);

    /**
     * Close a session without waiting: refuse its later submits, shed
     * its pending frames on this thread, and free it once its in-flight
     * frames are delivered. `done` runs then, on the thread that
     * delivered the last result, after that result's callback returned;
     * at once here when nothing is outstanding or the id is unknown or
     * closing. The last frame counts toward waitIdle() until it returns;
     * like a result callback, it must not call the blocking forms.
     */
    void closeSession(uint64_t client, CloseCallback done);
    /** The callback form, waited on. */
    void closeSession(uint64_t client);

    /**
     * Submit one frame for `client` at `camera`. Never blocks; returns
     * the frame's ticket (nonzero), or 0 when the client is unknown or
     * closing. A ticket always produces exactly one FrameResult
     * (served, dropped, or failed).
     */
    uint64_t submitFrame(uint64_t client, const nerf::Camera &camera);

    /** Pop one delivered result of callback-less clients; non-blocking.
     *  Results arrive in completion order -- correlate by ticket. */
    bool poll(FrameResult &out);
    /** Pop everything delivered so far; returns how many. */
    size_t drainResults(std::vector<FrameResult> &out);

    /**
     * Block until no frame is pending, in flight, or mid-delivery.
     * A result's callback (and a closing session's close callback)
     * runs to completion BEFORE the frame stops counting, so
     * closed-loop clients (callbacks submitting the next frame) keep
     * the server non-idle until their last callback submits nothing.
     */
    void waitIdle();

    /** Serving telemetry: a typed read of this server's metrics
     *  registry, plus the flight recorder's records. */
    ServerStatsSnapshot stats() const;
    /**
     * Prometheus text exposition of this server's registry, the one
     * store every serving value is recorded in (stage times and the
     * wire service's counters too). GetStats answers with exactly this
     * text.
     */
    std::string metricsText() const;
    /** This server's metrics store. The wire service wrapping the
     *  server records its counters here too. */
    metrics::Registry &metricsRegistry() { return metrics_; }

    /** The server's engine (diagnostics/tests). */
    engine::FrameEngine &engine() { return engine_; }
    /** A scene's current in-flight frames (0 when none; quota
     *  observability for tests/diagnostics). */
    int sceneInFlight(const std::string &scene) const;

  public:
    enum class BreakerState : uint8_t
    {
        Closed = 0,
        Open = 1,
        HalfOpen = 2,
    };

    /** A scene's current breaker state (diagnostics/tests); Closed
     *  when the breaker is disabled or the scene is unknown. */
    BreakerState breakerState(const std::string &scene) const;

  private:
    /** A frame answered by a render of its view that it did not lead. */
    struct Waiter
    {
        uint64_t ticket = 0;
        uint64_t client = 0;
        std::chrono::steady_clock::time_point submitted_at;
        ResultCallback cb; ///< the client's delivery callback
    };

    /**
     * One render of a view, from its admission, as its answers read it.
     * A successful one is kept as its scene's last render
     * (SceneState::last_render) until the scene's next success replaces
     * it, so a later frame of the same view is answered from it. It is
     * shared, and its frame is not written once it is published, so
     * publishing it is a pointer swap and each answer copies the image
     * outside m_.
     */
    struct RenderOutcome
    {
        uint64_t ticket = 0; ///< the render's leading ticket
        QosClass qos = QosClass::Standard;
        QualityRung rung = QualityRung::Full;
        int full_w = 0, full_h = 0; ///< the dimensions the leader asked for
        engine::Frame frame;        ///< moved in when the render completes
        nerf::Camera camera; ///< the view key's camera, as submitted
        SceneMetrics *scene = nullptr;
        /**
         * Frames the render answers besides its leader, not yet
         * delivered, and whether a thread is delivering them (both m_).
         * Frames that join it on its slot are answered with its leader
         * when it completes; frames of its view admitted after it left
         * the slot wait here too. One thread at a time delivers them,
         * the render's completion first, so they follow its own
         * answers; frames that match meanwhile, from that thread's
         * callbacks too, wait here for it, so a callback that resubmits
         * its view loops instead of recursing.
         */
        bool delivering = true;
        std::vector<Waiter> held = {};
    };

    /** One render on a pipeline slot, keyed by its leading ticket in
     *  running_: watchdog, breaker and coalescing bookkeeping. */
    struct InFlightFrame
    {
        std::chrono::steady_clock::time_point launched_at;
        uint32_t scene = 0;
        bool probe = false;         ///< admitted as a half-open probe
        bool stuck_flagged = false; ///< already counted a stuck event
        std::shared_ptr<RenderOutcome> render;
    };

    struct Breaker
    {
        BreakerState state = BreakerState::Closed;
        int consecutive_failures = 0;
        int probes_out = 0;
        std::chrono::steady_clock::time_point opened_at;
    };

    /**
     * One scene's serving state, created at the scene's first
     * openSession: its metric series (atomics), its breaker (m_ held),
     * and the renderers every session of the scene shares -- one for
     * Full-rung frames and one per degraded sample budget. Frames
     * carry nothing from one to the next, so a shared renderer draws
     * each client's frames exactly as the client's own would.
     */
    struct SceneState
    {
        SceneState(metrics::Registry &reg, const SceneEntry &entry)
            : series(reg, entry.name), renderer(*entry.field, entry.config)
        {
        }
        SceneMetrics series;
        Breaker breaker;
        core::AsdrRenderer renderer;
        /** The quality ladder's reduced-samples renderers, keyed by
         *  samples_per_ray, built under m_ when a frame is admitted
         *  at their rung. They share `renderer`'s occupancy grid, so
         *  the scene's grid is built once. Never evicted: in-flight
         *  frames hold bare pointers. */
        std::map<int, std::unique_ptr<core::AsdrRenderer>> degraded;
        /** The scene's last successful render (m_); null before one. */
        std::shared_ptr<RenderOutcome> last_render;
    };

    struct Client
    {
        uint64_t id = 0;
        const SceneEntry *scene = nullptr;
        SceneState *state = nullptr;
        QosClass qos = QosClass::Standard;
        ResultCallback callback;
        /** Frames pending + in flight + mid-delivery. */
        uint64_t outstanding = 0;
        bool closing = false;
        CloseCallback on_closed; ///< runs after a closing one's last result
    };

    /** A scheduler decision to hand one frame to the engine; executed
     *  outside m_, so m_ never waits on the engine's lock, which every
     *  worker takes to claim a task. */
    struct Launch
    {
        PendingFrame frame;
        const core::AsdrRenderer *renderer = nullptr; ///< its scene's, at its rung
        std::shared_ptr<RenderOutcome> render;
    };

    /** A result decided at admission time (deadline expiry, breaker
     *  fast-fail) awaiting delivery outside m_. */
    struct Deliverable
    {
        FrameResult result;
        ResultCallback cb;
    };

    /** Admit frames while pipeline slots are free (m_ held). Queued
     *  frames past their deadline, and frames of quarantined scenes,
     *  are turned into `rejects` instead of launches; a frame whose
     *  view is rendering, or was its scene's last render, waits in
     *  that render's `held`; a finished render no thread was
     *  delivering from goes into `answering`, for the caller to
     *  deliver. */
    void pumpLocked(std::vector<Launch> &launches,
                    std::vector<Deliverable> &rejects,
                    std::vector<std::shared_ptr<RenderOutcome>> &answering);
    /** Deadline-expire `pf` (m_ held): stats + expired result. */
    Deliverable expireLocked(PendingFrame &&pf);
    /** Breaker fast-fail `pf` (m_ held): stats + failed result. */
    Deliverable breakerRejectLocked(PendingFrame &&pf, SceneState &scene);
    /** Move a scene's breaker to `to`, publishing the state (m_ held). */
    static void setBreaker(SceneState &scene, BreakerState to);
    void deliverAll(std::vector<Deliverable> &&rejects);
    void launch(const Launch &l);
    /** `done` carries the render's view key and, by now, its frame. */
    void onFrameDone(uint64_t client,
                     std::chrono::steady_clock::time_point submitted_at,
                     const std::shared_ptr<RenderOutcome> &done,
                     std::exception_ptr err);
    /** Count one frame a render answered (failed with it, or served
     *  by it) and return whether it violates its class's objective. */
    bool countAnswer(const RenderOutcome &r, bool failed, double ms);
    /** Count, record and deliver the frames each of `renders` holds,
     *  until none holds any more, then stop delivering from them.
     *  Never called under m_. */
    void deliverHeld(
        const std::vector<std::shared_ptr<RenderOutcome>> &renders);
    /** Deliver `r`'s outcome to `a`, with a copy of its frame. */
    void answer(const Waiter &a, const RenderOutcome &r, double latency_s,
                std::exception_ptr err);
    /** deliverNow, or, on a thread already inside a result callback,
     *  after that callback returns. Never called under m_. */
    void deliverResult(FrameResult &&result, const ResultCallback &cb);
    /** Invoke the callback / fill the mailbox, then retire the frame
     *  from the outstanding counts, freeing a closing session at 0. */
    void deliverNow(FrameResult &&result, const ResultCallback &cb);
    void dropFrames(std::vector<PendingFrame> &&dropped);
    /** One watchdog pass: pump the scheduler (deadline expiry
     *  included) and refresh the stuck gauge. */
    void watchdogTick();
    void watchdogRun();

    const SceneRegistry &registry_;
    ServerConfig cfg_;
    bool deadlines_enabled_ = false;
    /** Every serving value of this server, counted once (declared
     *  before everything that records into it). */
    metrics::Registry metrics_;
    ClassMetrics class_metrics_[kQosClasses];
    metrics::Gauge &stuck_in_flight_;
    metrics::Counter &stuck_events_;

    mutable std::mutex m_;
    std::condition_variable idle_cv_;
    std::unordered_map<uint64_t, std::unique_ptr<Client>> clients_;
    uint64_t next_client_ = 1;
    uint64_t next_ticket_ = 1;
    uint64_t outstanding_total_ = 0;

    /** Admission state, all under m_: the pending queue, the frames on
     *  pipeline slots per class and per SceneEntry::id (the per-scene
     *  quota accounting handed to QosScheduler::pop), and the
     *  launch-time record of each render on a slot. running_.size() is
     *  the number of slots in use, so the coalescing scan visits at
     *  most one entry per slot and needs no index. */
    QosScheduler sched_;
    int in_flight_[kQosClasses] = {0, 0, 0};
    std::unordered_map<uint32_t, int> scene_in_flight_;
    std::unordered_map<uint64_t, InFlightFrame> running_;
    /** The quality ladder's controller (null when the ladder is
     *  disabled); guarded by m_, like sched_. */
    std::unique_ptr<BrownoutController> brownout_;

    /** Per-scene state by name (the map under m_; sorted, so stats()
     *  lists scenes by name). */
    std::map<std::string, std::unique_ptr<SceneState>> scenes_;

    std::mutex done_m_;
    std::deque<FrameResult> done_;

    std::thread watchdog_;
    std::mutex wd_m_;
    std::condition_variable wd_cv_;
    bool wd_stop_ = false;

    /** The flight recorder. */
    ServerStats stats_;
    SloTracker slo_;

    /** Declared last, so it is destroyed first: its workers run
     *  onFrameDone, so they are joined before the members it uses are
     *  destroyed. */
    engine::FrameEngine engine_;
};

} // namespace asdr::server

#endif // ASDR_SERVER_FRAME_SERVER_HPP
