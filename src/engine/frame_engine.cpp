#include "engine/frame_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace asdr::engine {

namespace {

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

/** One frame from submission to delivery, owned by frames_ until
 *  finish() takes it out. */
struct FrameEngine::InFlight
{
    InFlight(FrameRequest r, uint64_t frame_id)
        : req(std::move(r)), fs(req.camera), id(frame_id),
          key(req.priority != 0 ? req.priority : frame_id)
    {
    }

    /** Open `s`, or the first later stage that has tasks; false past
     *  the last stage. Only the counters change, so opening a stage
     *  allocates nothing and cannot fail. */
    bool
    openStage(int s)
    {
        int n = 0;
        while (s < kStages && (n = stageTasks(fs.shape, s)) == 0)
            ++s;
        stage = s;
        tasks = unfinished = n;
        next = 0;
        return s < kStages;
    }

    FrameRequest req;
    core::FrameState fs;
    uint64_t id;
    uint64_t key; ///< order key of every task of the frame
    std::chrono::steady_clock::time_point started_at; ///< admission time
    /** The last stage's end stamp (started_at before the first). */
    std::chrono::steady_clock::time_point stage_end;
    Frame frame; ///< stage times per stage, image and stats at finalize
    /** The current stage as an index range: [next, tasks) is
     *  unclaimed, and `unfinished` tasks have not completed. */
    int stage = kRaySetup;
    int tasks = 0;
    int next = 0;
    int unfinished = 0;
    /** The first error a task threw. */
    std::exception_ptr error;
};

FrameEngine::FrameEngine(const EngineConfig &cfg) : cfg_(cfg)
{
    ASDR_ASSERT(cfg.max_frames_in_flight >= 1,
                "need at least one pipeline slot");
    const int n = core::resolveThreadCount(cfg.num_threads);
    try {
        for (int t = 0; t < n; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        stopWorkers(); // no destructor runs for a failed constructor
        throw;
    }
}

FrameEngine::~FrameEngine()
{
    resume();
    drain();
    stopWorkers();
}

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
    frames_.push_back(std::make_unique<InFlight>(std::move(req), next_id_++));
    InFlight &f = *frames_.back();
    // Wall clock starts at submission: time queued behind other
    // frames counts toward the frame's reported latency.
    f.fs.start = std::chrono::steady_clock::now();
    if (frames_.size() <= size_t(cfg_.max_frames_in_flight))
        admitLocked(f);
}

void
FrameEngine::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    idle_cv_.wait(lock, [&] { return frames_.empty(); });
}

void
FrameEngine::pause()
{
    std::lock_guard<std::mutex> lock(m_);
    paused_ = true;
}

void
FrameEngine::resume()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        paused_ = false;
    }
    work_cv_.notify_all();
}

void
FrameEngine::admitLocked(InFlight &f)
{
    f.started_at = f.stage_end = std::chrono::steady_clock::now();
    // Derive the chain's shape once and store it: beginFrame must see
    // exactly the shape the stages were sized from.
    f.fs.shape = f.req.renderer->frameShape(f.req.camera.width(),
                                            f.req.camera.height());
    f.openStage(kRaySetup); // ray setup always has its one task
    work_cv_.notify_one();
}

FrameEngine::InFlight *
FrameEngine::claimLocked(int &stage, int &index)
{
    if (paused_)
        return nullptr;
    // The admitted frames are few (one per pipeline slot), so a scan
    // finds the smallest key exactly; ties go to the older frame.
    const size_t admitted =
        std::min(frames_.size(), size_t(cfg_.max_frames_in_flight));
    InFlight *best = nullptr;
    for (size_t i = 0; i < admitted; ++i) {
        InFlight *f = frames_[i].get();
        if (f->next < f->tasks && (!best || f->key < best->key))
            best = f;
    }
    if (best) {
        stage = best->stage;
        index = best->next++;
    }
    return best;
}

void
FrameEngine::workerLoop()
{
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        int stage = 0, index = 0;
        InFlight *f = claimLocked(stage, index);
        if (!f) {
            if (stop_)
                return;
            work_cv_.wait(lock);
            continue;
        }
        lock.unlock();
        std::exception_ptr err = runTask(*f, stage, index);
        lock.lock();
        if (err && !f->error) {
            // The rest of the frame is abandoned (its inputs may be
            // unusable, e.g. beginFrame threw before allocating the
            // buffers): drop the stage's unclaimed indices, and once
            // the claimed ones are done deliver the error.
            f->error = err;
            f->unfinished -= f->tasks - f->next;
            f->next = f->tasks;
        }
        if (--f->unfinished > 0)
            continue;
        // This worker finished the stage's last index, so it stamps the
        // stage's end and moves the frame on, and takes one of the new
        // stage's indices itself when its key is the smallest.
        const auto now = std::chrono::steady_clock::now();
        f->frame.stage_s[size_t(stage)] =
            std::chrono::duration<double>(now - f->stage_end).count();
        f->stage_end = now;
        if (!f->error && f->openStage(stage + 1)) {
            if (f->tasks > 1)
                work_cv_.notify_all();
            continue;
        }
        lock.unlock();
        finish(f);
        lock.lock();
    }
}

std::exception_ptr
FrameEngine::runTask(InFlight &f, int stage, int index)
{
    try {
        // Every task records one span under its stage's name, so a
        // trace shows the per-lane spread of probe rows and tiles. The
        // span closes before finish() runs the consumer callback, so a
        // slow-frame dump collecting this ticket's spans from inside
        // on_complete sees the finalize span.
        telemetry::ScopedSpan sp(kStageName[stage], f.id, f.req.ticket);
        const core::AsdrRenderer &r = *f.req.renderer;
        switch (stage) {
        case kRaySetup:
            // The fault sites fire once per frame, so a seeded injector
            // maps deterministically onto a frame sequence: a stall
            // models a stuck stage for the watchdog, a throw a compute
            // fault surfacing through the one-result-per-ticket path.
            fault::fire(fault::kEngineStageStall); // sleeps when armed
            if (fault::fire(fault::kEngineStageThrow))
                throw std::runtime_error("injected: engine stage fault");
            r.beginFrame(f.fs);
            break;
        case kProbes:
            r.probeRow(f.fs, index);
            break;
        case kPlanning:
            r.planBudgets(f.fs);
            break;
        case kTiles:
            r.phase2Job(f.fs, index);
            break;
        case kFinalize:
            r.finalizeFrame(f.fs, &f.frame.stats);
            f.frame.image = std::move(f.fs.img);
            break;
        }
    } catch (...) {
        return std::current_exception();
    }
    return nullptr;
}

void
FrameEngine::finish(InFlight *f)
{
    Frame frame = f->error ? Frame{} : std::move(f->frame);
    frame.id = f->id;
    frame.submitted_at = f->fs.start;
    frame.started_at = f->started_at;
    frame.finished_at = f->stage_end;
    f->req.on_complete(std::move(frame), f->error);
    // Freed outside the lock: the request's callback may own state
    // whose destructor calls back into the engine.
    std::unique_ptr<InFlight> done;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = std::find_if(frames_.begin(), frames_.end(),
                               [f](const auto &p) { return p.get() == f; });
        done = std::move(*it);
        frames_.erase(it);
        // The frame leaves the admitted prefix, so the first queued
        // frame, if any, enters it.
        const size_t slots = size_t(cfg_.max_frames_in_flight);
        if (frames_.size() >= slots)
            admitLocked(*frames_[slots - 1]);
    }
    done.reset();
    idle_cv_.notify_all();
}

void
FrameEngine::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

} // namespace asdr::engine
