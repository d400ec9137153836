/**
 * @file
 * Streaming frame-serving engine: the pipelined execution model behind
 * continuous rendering traffic (camera paths, many concurrent viewers).
 *
 * The engine owns ONE long-lived worker pool for its whole lifetime --
 * no per-frame thread construction -- and accepts FrameRequests on a
 * queue. Up to `max_frames_in_flight` admitted frames execute
 * concurrently, each as a fixed chain of five stages
 *
 *   ray setup -> Phase I probe rows -> sample-count planning
 *             -> Phase II Morton tiles -> composite/finalize
 *
 * over the shared pool: the last task of a stage submits the next
 * stage's tasks. Only a frame's own stages are ordered, so frame N's
 * Phase II tiles overlap frame N+1's Phase I probes on idle workers:
 * the serial planning/finalize stages and the straggler tails at each
 * stage boundary -- dead time in the blocking path -- are covered by
 * neighboring frames' work. This mirrors the paper's hardware, which
 * pipelines the Phase I and Phase II engines over shared CIM arrays
 * (§5.5).
 *
 * A frame's tasks all carry its one order key (FrameRequest::priority),
 * and its stage spans the QoS label of the thread that submitted it.
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

struct FrameRequest
{
    explicit FrameRequest(const nerf::Camera &cam) : camera(cam) {}

    nerf::Camera camera;
    /** The renderer whose stages draw the frame. Must outlive it. */
    const core::AsdrRenderer *renderer = nullptr;

    /**
     * Order key of this frame's pool tasks: a worker takes the ready
     * task with the smallest key, so a frame with a smaller key runs
     * ahead of co-resident frames whatever their submission order. The
     * server passes its ticket plus the class lag
     * (server::PendingFrame::key). 0 keys the frame by its engine
     * frame id, so keyless frames drain oldest first.
     */
    uint64_t priority = 0;

    /**
     * Serving-layer correlation id stamped onto every telemetry span
     * this frame's stages record (0 when the submitter has no ticket,
     * e.g. direct engine use). The engine never interprets it.
     */
    uint64_t ticket = 0;

    /**
     * Completion callback: invoked exactly once, on an engine worker,
     * with the finished frame -- (frame, null) on success, (empty
     * frame carrying the id and timestamps, error) on failure. Runs
     * outside all engine locks, so it may submit follow-up frames
     * (closed-loop streaming). The frame keeps its pipeline slot until
     * the callback returns, so it must not block for long, and it must
     * not throw.
     */
    std::function<void(Frame &&, std::exception_ptr)> on_complete;
};

class FrameEngine
{
  public:
    explicit FrameEngine(const EngineConfig &cfg = {});
    /** Drains all in-flight frames, then joins the pool's workers. */
    ~FrameEngine();

    FrameEngine(const FrameEngine &) = delete;
    FrameEngine &operator=(const FrameEngine &) = delete;

    /**
     * Enqueue a frame; admission happens as soon as a pipeline slot
     * frees up. The returned future delivers the finished frame (and
     * rethrows any render error). `req.on_complete` must be unset: the
     * future is its consumer.
     */
    std::future<Frame> submit(FrameRequest req);

    /**
     * Enqueue a frame whose outcome goes to `req.on_complete`, which
     * must be set. No future is created, so a server loop never blocks
     * in get(); outcomes arrive in completion order, which under
     * pipelining may differ from submission order.
     */
    void submitAsync(FrameRequest req);

    /** Block until every submitted frame completed and its callback
     *  returned. */
    void drain();

    /** The engine's persistent pool (exposed for diagnostics/tests). */
    ThreadPool &pool() { return pool_; }

  private:
    struct InFlight;

    /** Admit queued frames while pipeline slots are free (m_ held). */
    void pumpLocked();
    /** Submit the tasks of `stage`, or of the first later stage that
     *  has any; past the last stage, or after a failure, finish. */
    void startStage(InFlight *f, int stage);
    /** One task of a stage; the stage's last task starts the next. */
    void runTask(InFlight *f, int stage, int index);
    /** Hand the outcome to the consumer, then free the slot. */
    void finish(InFlight *f);

    EngineConfig cfg_;

    std::mutex m_;
    std::condition_variable idle_cv_;
    std::deque<std::unique_ptr<InFlight>> queue_; ///< submitted, not admitted
    int in_flight_ = 0;
    uint64_t next_id_ = 1;

    /** Declared last, so it is destroyed first: the worker that
     *  finished the last frame may still be in finish(), notifying
     *  idle_cv_, when drain() returns, so the workers are joined
     *  before the members they use are destroyed. */
    ThreadPool pool_;
};

} // namespace asdr::engine

#endif // ASDR_ENGINE_FRAME_ENGINE_HPP
