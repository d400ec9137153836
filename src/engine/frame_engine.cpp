#include "engine/frame_engine.hpp"

#include <atomic>
#include <stdexcept>

#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace asdr::engine {

namespace {

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

/** Every stage task records one span under its stage's name, so a
 *  trace shows the per-lane spread of probe rows and tiles. */
constexpr const char *kStageSpan[kStages] = {
    telemetry::kSpanRaySetup, telemetry::kSpanProbes,
    telemetry::kSpanPlanning, telemetry::kSpanTiles,
    telemetry::kSpanFinalize,
};

/** Tasks of `stage` for a frame of shape `s` (0 skips the stage). */
int
stageTasks(const core::FrameShape &s, int stage)
{
    switch (stage) {
    case kProbes:
        return s.adaptive ? s.gh : 0;
    case kTiles:
        return s.jobs;
    default:
        return 1;
    }
}

} // namespace

/** One frame from submission to delivery. Queued frames are owned by
 *  FrameEngine::queue_; an admitted one by its stage chain, until
 *  finish() frees it. */
struct FrameEngine::InFlight
{
    InFlight(FrameRequest r, uint64_t frame_id)
        : req(std::move(r)), fs(req.camera), id(frame_id),
          qos(telemetry::currentQos())
    {
    }

    FrameRequest req;
    core::FrameState fs;
    uint64_t id;
    /** The submitting thread's QoS label, for the stage spans. */
    uint8_t qos;
    std::chrono::steady_clock::time_point started_at; ///< admission time
    Frame frame; ///< filled by the finalize stage
    /** Tasks of the current stage still to run. */
    std::atomic<int> tasks_left{0};
    /** Set by the first task that throws; later tasks skip their work.
     *  `error` is read only by a stage's last task. */
    std::atomic<bool> failed{false};
    std::exception_ptr error;
};

FrameEngine::FrameEngine(const EngineConfig &cfg)
    : cfg_(cfg), pool_(core::resolveThreadCount(cfg.num_threads))
{
    ASDR_ASSERT(cfg.max_frames_in_flight >= 1,
                "need at least one pipeline slot");
}

FrameEngine::~FrameEngine() { drain(); }

std::future<Frame>
FrameEngine::submit(FrameRequest req)
{
    ASDR_ASSERT(!req.on_complete, "submit() delivers through its future");
    auto promise = std::make_shared<std::promise<Frame>>();
    std::future<Frame> fut = promise->get_future();
    req.on_complete = [promise](Frame &&frame, std::exception_ptr err) {
        if (err)
            promise->set_exception(err);
        else
            promise->set_value(std::move(frame));
    };
    submitAsync(std::move(req));
    return fut;
}

void
FrameEngine::submitAsync(FrameRequest req)
{
    ASDR_ASSERT(req.renderer != nullptr, "request needs a renderer");
    ASDR_ASSERT(req.on_complete, "async submission needs a callback");
    std::lock_guard<std::mutex> lock(m_);
    auto f = std::make_unique<InFlight>(std::move(req), next_id_++);
    // Wall clock starts at submission: time queued behind other
    // frames counts toward the frame's reported latency.
    f->fs.start = std::chrono::steady_clock::now();
    queue_.push_back(std::move(f));
    pumpLocked();
}

void
FrameEngine::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void
FrameEngine::pumpLocked()
{
    while (in_flight_ < cfg_.max_frames_in_flight && !queue_.empty()) {
        InFlight *f = queue_.front().release();
        queue_.pop_front();
        ++in_flight_;
        f->started_at = std::chrono::steady_clock::now();
        // Derive the chain's shape once and store it: beginFrame must
        // see exactly the shape the stages were sized from.
        f->fs.shape = f->req.renderer->frameShape(f->req.camera.width(),
                                                  f->req.camera.height());
        // Ray setup always has its one task, so this only submits: it
        // never finishes the frame (which takes m_) from here.
        startStage(f, kRaySetup);
    }
}

void
FrameEngine::startStage(InFlight *f, int stage)
{
    int tasks = 0;
    while (stage < kStages &&
           (tasks = stageTasks(f->fs.shape, stage)) == 0)
        ++stage;
    if (stage == kStages || f->error) {
        finish(f);
        return;
    }
    f->tasks_left.store(tasks, std::memory_order_release);
    // Every task of the frame carries its one key, so pipelining fills
    // idle workers without reordering frames. A submission that throws
    // would leave a frame whose queued tasks we can no longer account
    // for, so treat it as fatal rather than wedging the engine (it only
    // throws under allocation failure). After the last submission the
    // frame may already be finished and freed: nothing reads `f`.
    const uint64_t key = f->req.priority != 0 ? f->req.priority : f->id;
    try {
        for (int i = 0; i < tasks; ++i)
            pool_.submit([this, f, stage, i] { runTask(f, stage, i); },
                         key);
    } catch (...) {
        panic("frame stage submission failed");
    }
}

void
FrameEngine::runTask(InFlight *f, int stage, int index)
{
    // After a failure the rest of the frame is abandoned (its inputs
    // may be unusable, e.g. beginFrame threw before allocating the
    // buffers); the stage still completes so the error is delivered.
    if (!f->failed.load(std::memory_order_acquire)) {
        try {
            telemetry::ScopedQos qc(f->qos);
            // Closed before finish() runs the consumer callback, so a
            // slow-frame dump collecting this ticket's spans from
            // inside on_complete sees the finalize span.
            telemetry::ScopedSpan sp(kStageSpan[stage], f->id,
                                     f->req.ticket);
            const core::AsdrRenderer &r = *f->req.renderer;
            switch (stage) {
            case kRaySetup:
                // The fault sites fire once per frame, so a seeded
                // injector maps deterministically onto a frame
                // sequence: a stall models a stuck stage for the
                // watchdog, a throw a compute fault surfacing through
                // the one-result-per-ticket path.
                fault::fire(fault::kEngineStageStall); // sleeps when armed
                if (fault::fire(fault::kEngineStageThrow))
                    throw std::runtime_error("injected: engine stage fault");
                r.beginFrame(f->fs);
                break;
            case kProbes:
                r.probeRow(f->fs, index);
                break;
            case kPlanning:
                r.planBudgets(f->fs);
                break;
            case kTiles:
                r.phase2Job(f->fs, index);
                break;
            case kFinalize:
                r.finalizeFrame(f->fs, &f->frame.stats);
                f->frame.image = std::move(f->fs.img);
                f->frame.finished_at = std::chrono::steady_clock::now();
                break;
            }
        } catch (...) {
            if (!f->failed.exchange(true, std::memory_order_acq_rel))
                f->error = std::current_exception();
        }
    }
    // The last task of the stage moves the frame on; every other task
    // is done with `f`.
    if (f->tasks_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
        startStage(f, stage + 1);
}

void
FrameEngine::finish(InFlight *f)
{
    std::unique_ptr<InFlight> done(f);
    Frame frame = f->error ? Frame{} : std::move(f->frame);
    frame.id = f->id;
    frame.submitted_at = f->fs.start;
    frame.started_at = f->started_at;
    if (f->error)
        frame.finished_at = std::chrono::steady_clock::now();
    f->req.on_complete(std::move(frame), f->error);
    {
        std::lock_guard<std::mutex> lock(m_);
        --in_flight_;
        pumpLocked();
    }
    idle_cv_.notify_all();
}

} // namespace asdr::engine
