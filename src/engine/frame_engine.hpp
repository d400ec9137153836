/**
 * @file
 * Streaming frame-serving engine: the pipelined execution model behind
 * continuous rendering traffic (camera paths, many concurrent viewers).
 *
 * The engine owns its worker threads for its whole lifetime -- no
 * per-frame thread construction -- and holds submitted frames in one
 * submission-order list. The first `max_frames_in_flight` of them are
 * admitted and execute concurrently, each as a fixed chain of five
 * stages
 *
 *   ray setup -> Phase I probe rows -> sample-count planning
 *             -> Phase II Morton tiles -> composite/finalize
 *
 * An admitted frame's current stage is an index range: its task
 * count, its next unclaimed index and its count of unfinished tasks.
 * Under the engine's one mutex a free worker takes the next index of
 * the admitted frame with the smallest order key (FrameRequest::
 * priority, or the frame id when that is 0), so the order is exact;
 * the worker that finishes a stage's last index opens the next stage.
 * Indices are claimed in order; which tile a Phase II index marches is
 * the renderer's choice (FrameState::tile_order: heaviest planned cost
 * first on an adaptive frame, so the stage does not end on a heavy
 * straggler).
 * Opening a stage only resets those three counters, so it allocates
 * nothing and cannot fail. Only a frame's own stages are ordered, so
 * frame N's Phase II tiles overlap frame N+1's Phase I probes on idle
 * workers: the serial planning/finalize stages and the straggler tails
 * at each stage boundary -- dead time in the blocking path -- are
 * covered by neighboring frames' work. This mirrors the paper's
 * hardware, which pipelines the Phase I and Phase II engines over
 * shared CIM arrays (§5.5).
 *
 * The worker that completes a stage's last task stamps the stage's end
 * under the lock it already holds, so every delivered Frame carries
 * each stage's wall time (Frame::stage_s), always, tracing or not.
 *
 * Every stage is a bit-exact decomposition of AsdrRenderer::render()
 * (which is itself a one-frame facade over this engine), so pipelined
 * frames are bit-identical to sequential render() calls -- enforced by
 * tests/test_engine.cpp.
 */

#ifndef ASDR_ENGINE_FRAME_ENGINE_HPP
#define ASDR_ENGINE_FRAME_ENGINE_HPP

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/renderer.hpp"
#include "util/telemetry.hpp"

namespace asdr::engine {

/** A frame's stages, in chain order. */
enum Stage
{
    kRaySetup,
    kProbes,
    kPlanning,
    kTiles,
    kFinalize,
    kStages
};

/** Each stage's name: the span its tasks record, and the `stage`
 *  label of its asdr_stage_duration_seconds series. */
inline constexpr const char *kStageName[kStages] = {
    telemetry::kSpanRaySetup, telemetry::kSpanProbes,
    telemetry::kSpanPlanning, telemetry::kSpanTiles,
    telemetry::kSpanFinalize,
};

/** Wall seconds per stage; a stage the frame skipped has none. */
using StageSeconds = std::array<std::optional<double>, kStages>;

struct EngineConfig
{
    /** Worker threads of the engine. 0 = auto: ASDR_NUM_THREADS when
     *  set, else the hardware concurrency. */
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
     *  a pipeline slot, the last stage's end stamp (finalize's, unless
     *  a stage failed). (submitted -> started) is queue wait,
     *  (started -> finished) is pipeline residency; the serving
     *  layer's latency percentiles are built from these. */
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point started_at;
    std::chrono::steady_clock::time_point finished_at;

    /** Each stage's wall time, from the previous stage's end stamp
     *  (ray setup's from started_at) to its own, so the stages that
     *  ran sum to (started -> finished). Empty on failure. */
    StageSeconds stage_s;
};

struct FrameRequest
{
    explicit FrameRequest(const nerf::Camera &cam) : camera(cam) {}

    nerf::Camera camera;
    /** The renderer whose stages draw the frame. Must outlive it. */
    const core::AsdrRenderer *renderer = nullptr;

    /**
     * Order key of this frame's stage tasks: a worker takes the next
     * task of the admitted frame with the smallest key, so a frame
     * with a smaller key runs ahead of co-resident frames whatever
     * their submission order. The server passes its ticket plus the
     * class lag (server::PendingFrame::key). 0 keys the frame by its
     * engine frame id, so keyless frames drain oldest first.
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
    /** Resumes, delivers every submitted frame, then joins the
     *  workers. */
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

    /**
     * Test seam: while paused, workers claim no task, so submissions
     * pile up deterministically. Frames still queue and admit, and a
     * task already running finishes. resume() lets the workers go on.
     */
    void pause();
    void resume();

  private:
    struct InFlight;

    /** Stamp an admitted frame's start and open its ray setup (m_
     *  held). */
    void admitLocked(InFlight &f);
    /** Take the next index of the admitted frame with the smallest key
     *  (m_ held); null when there is none or the engine is paused. */
    InFlight *claimLocked(int &stage, int &index);
    /** Claim, run and complete tasks until stopped; the worker that
     *  completes a stage's last task opens the next stage or finishes
     *  the frame. */
    void workerLoop();
    /** Run one task of the frame's `stage`; returns what it threw. */
    static std::exception_ptr runTask(InFlight &f, int stage, int index);
    /** Hand the outcome to the consumer, then free the slot. */
    void finish(InFlight *f);
    /** Let the workers run out of work and exit; join them. */
    void stopWorkers();

    EngineConfig cfg_;

    std::mutex m_;
    std::condition_variable work_cv_; ///< wakes idle workers
    std::condition_variable idle_cv_; ///< wakes drain()
    /** Submitted frames in submission order; the first
     *  max_frames_in_flight are the admitted ones. */
    std::deque<std::unique_ptr<InFlight>> frames_;
    uint64_t next_id_ = 1;
    bool paused_ = false;
    bool stop_ = false;
    std::vector<std::thread> workers_; ///< joined before any member dies
};

} // namespace asdr::engine

#endif // ASDR_ENGINE_FRAME_ENGINE_HPP
