/**
 * @file
 * Streaming frame-serving engine: the pipelined execution model behind
 * continuous rendering traffic (camera paths, many concurrent viewers).
 *
 * The engine owns ONE long-lived worker pool for its whole lifetime --
 * no per-frame thread construction -- and accepts FrameRequests on a
 * queue, returning a std::future<Frame> per request. Up to
 * `max_frames_in_flight` admitted frames execute concurrently, each as
 * a FrameGraph of explicit stages
 *
 *   ray setup -> Phase I probe rows -> sample-count planning
 *             -> Phase II Morton tiles -> composite/finalize
 *
 * over the shared pool. Because the stage graph encodes only
 * *intra-frame* dependencies, frame N's Phase II tiles overlap frame
 * N+1's Phase I probes on idle workers: the serial planning/finalize
 * stages and the straggler tails at each stage boundary -- dead time in
 * the blocking path -- are covered by neighboring frames' work. This
 * mirrors the paper's hardware, which pipelines the Phase I and
 * Phase II engines over shared CIM arrays (§5.5).
 *
 * Every stage is a bit-exact decomposition of AsdrRenderer::render()
 * (which is itself a one-frame facade over this engine), so pipelined
 * frames are bit-identical to sequential render() calls -- enforced by
 * tests/test_engine.cpp.
 */

#ifndef ASDR_ENGINE_FRAME_ENGINE_HPP
#define ASDR_ENGINE_FRAME_ENGINE_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/renderer.hpp"
#include "util/thread_pool.hpp"

namespace asdr::engine {

struct EngineConfig
{
    /** Worker threads of the engine's pool. 0 = auto: ASDR_NUM_THREADS
     *  when set, else the hardware concurrency. */
    int num_threads = 0;
    /** Frames pipelined concurrently; 1 = strictly sequential frames
     *  (still no per-frame thread churn). */
    int max_frames_in_flight = 2;
};

/** A completed frame: the image plus its render stats. */
struct Frame
{
    Image image;
    core::RenderStats stats;
    uint64_t id = 0; ///< submission order, 1-based

    /** Monotonic-clock milestones: queued into the engine, admitted to
     *  a pipeline slot, finalize completed. (submitted -> started) is
     *  queue wait, (started -> finished) is pipeline residency; the
     *  serving layer's latency percentiles are built from these. */
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point started_at;
    std::chrono::steady_clock::time_point finished_at;
};

/**
 * Outcome of an asynchronously-consumed frame (submitAsync): the frame
 * on success, the error otherwise. `frame.id` and the timestamps are
 * valid either way, so a consumer can correlate failures with
 * submissions.
 */
struct FrameOutcome
{
    Frame frame;
    std::exception_ptr error; ///< null on success
    bool ok() const { return error == nullptr; }
};

struct FrameRequest
{
    explicit FrameRequest(const nerf::Camera &cam) : camera(cam) {}

    nerf::Camera camera;
    /** Scene + knobs when the engine should build the renderer itself
     *  (ignored when `renderer` is set). */
    const nerf::RadianceField *field = nullptr;
    core::RenderConfig config;
    /** Render through an existing renderer (the synchronous facade and
     *  the frame server use this). Must outlive the frame. */
    const core::AsdrRenderer *renderer = nullptr;

    /**
     * QoS class priority of this frame's pool tasks, composed with the
     * frame id via ThreadPool::composeKey: smaller runs sooner, so a
     * priority-0 (interactive) frame's ready stages always outrank a
     * priority-2 (batch) frame's in the worker scan -- an interactive
     * frame is never reordered behind batch work on the same engine.
     * Within a class, older frames still drain first.
     */
    uint32_t priority = 0;

    /**
     * Serving-layer correlation id stamped onto every telemetry span
     * this frame's stages record (0 when the submitter has no ticket,
     * e.g. direct engine use). The engine never interprets it.
     */
    uint64_t ticket = 0;

    // ---- async delivery (submitAsync) ----

    /**
     * Completion callback: invoked exactly once, on an engine worker,
     * with the finished frame -- (frame, null) on success, (partial
     * frame carrying the id, error) on failure. Runs outside all
     * engine locks, so it may submit follow-up frames (closed-loop
     * streaming); it must not block for long, since it occupies a
     * render worker.
     */
    std::function<void(Frame &&, std::exception_ptr)> on_complete;
    /** Queue the outcome on the engine's completed queue for poll() /
     *  drainCompleted() instead (ignored when `on_complete` is set). */
    bool collect = false;
};

class FrameEngine
{
  public:
    explicit FrameEngine(const EngineConfig &cfg = {});
    /** Drains all in-flight frames, then stops the pool. */
    ~FrameEngine();

    FrameEngine(const FrameEngine &) = delete;
    FrameEngine &operator=(const FrameEngine &) = delete;

    const EngineConfig &config() const { return cfg_; }
    int threadCount() const { return pool_.workerCount(); }

    /**
     * Enqueue a frame; admission happens as soon as a pipeline slot
     * frees up. The returned future delivers the finished frame (and
     * rethrows any render error).
     */
    std::future<Frame> submit(FrameRequest req);

    /**
     * Enqueue a frame for asynchronous consumption: the outcome is
     * delivered through `req.on_complete` when set, else onto the
     * engine's completed queue for poll()/drainCompleted(). No future
     * is created, so a server loop never blocks in get(). The request
     * must set `on_complete` or `collect`. Returns the frame's id --
     * the consumer's correlation key, since outcomes arrive in
     * completion order.
     */
    uint64_t submitAsync(FrameRequest req);

    /** Pop one completed outcome (collect submissions); non-blocking.
     *  Outcomes appear in completion order, which under pipelining may
     *  differ from submission order -- correlate by frame id. */
    bool poll(FrameOutcome &out);

    /** Pop every completed outcome into `out`; returns how many. */
    size_t drainCompleted(std::vector<FrameOutcome> &out);

    /** Outcomes currently waiting in the completed queue. */
    size_t completedCount() const;

    /** Block until every submitted frame completed (outcomes already
     *  in the completed queue stay there for poll()). */
    void drain();

    /** The engine's persistent pool (exposed for diagnostics/tests). */
    ThreadPool &pool() { return pool_; }

  private:
    struct InFlight;

    std::future<Frame> enqueue(FrameRequest req, bool async,
                               uint64_t *id_out = nullptr);
    /** Admit queued frames while pipeline slots are free (m_ held);
     *  frames whose admission threw are moved to `failed` for delivery
     *  after the lock is released (delivery may run user callbacks). */
    void pumpLocked(std::vector<std::unique_ptr<InFlight>> &failed);
    void launchLocked(InFlight *f);
    void frameDone(uint64_t id);
    /** Route a finished frame or error to its consumer: the promise,
     *  the callback, or the completed queue. Never called under m_. */
    void deliver(InFlight *f, Frame &&frame, std::exception_ptr err);

    EngineConfig cfg_;
    ThreadPool pool_;

    std::mutex m_;
    std::condition_variable idle_cv_;
    std::deque<uint64_t> queue_; ///< submitted, not yet admitted
    std::unordered_map<uint64_t, std::unique_ptr<InFlight>> frames_;
    int in_flight_ = 0;
    /** Failure outcomes claimed under m_ but delivered after it is
     *  released; drain() must not return while any are pending (the
     *  success path delivers inside the finalize task, before its
     *  frame leaves in_flight_, so it needs no claim). */
    int undelivered_ = 0;
    uint64_t next_id_ = 1;

    /** Completed queue of `collect` submissions (own lock: producers
     *  are workers finishing frames, consumers poll concurrently with
     *  admission traffic on m_). */
    mutable std::mutex done_m_;
    std::deque<FrameOutcome> done_;
};

} // namespace asdr::engine

#endif // ASDR_ENGINE_FRAME_ENGINE_HPP
