/**
 * @file
 * Persistent worker pool behind the streaming frame engine
 * (engine/frame_engine): fire-and-forget task execution over
 * per-worker deques with key-ordered, work-stealing pops.
 *
 * submit(task, key) places the task round-robin into a worker's
 * key-ordered queue. A worker popping work scans every queue's cached
 * front key (one relaxed atomic load per queue -- no locks on the
 * scan path) and takes the smallest; taking from another worker's
 * queue is the steal, so uneven stage tasks (cheap background tiles
 * vs. dense object tiles) re-balance without a central queue
 * bottleneck. Each queue itself is sorted by key (FIFO within a key),
 * so the smallest key wins even when later submissions carry smaller
 * keys: the engine keys every task with its frame's order key (the
 * server's ticket plus class lag, or the frame id), so a frame that
 * arrived later with a smaller key runs first, and multi-frame
 * pipelining cannot invert the order. Cross-queue ordering is
 * best-effort (fronts move between scan and pop) and tasks sharing a
 * key are mutually unordered -- completion and dependencies are the
 * submitter's job (the engine counts each stage's tasks, and a
 * stage's last task submits the next stage).
 *
 * One pool outlives many frames: the engine constructs it once and
 * reuses it for its whole lifetime (no per-frame thread construction).
 * Destruction runs every already-submitted task, then joins the
 * workers.
 */

#ifndef ASDR_UTIL_THREAD_POOL_HPP
#define ASDR_UTIL_THREAD_POOL_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace asdr {

class ThreadPool
{
  public:
    /** Spawn `workers` worker threads (at least one). */
    explicit ThreadPool(int workers)
    {
        const int n = std::max(1, workers);
        for (int t = 0; t < n; ++t)
            queues_.push_back(std::make_unique<TaskQueue>());
        try {
            for (int t = 0; t < n; ++t)
                workers_.emplace_back([this, t] { workerLoop(t); });
        } catch (...) {
            joinWorkers(); // no destructor runs for a failed constructor
            throw;
        }
    }

    /** Runs every submitted task, then joins the workers. */
    ~ThreadPool() { joinWorkers(); }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run `task` asynchronously on a worker. Smaller `key` runs sooner
     * (best-effort; see the file header); tasks sharing a key are
     * mutually unordered.
     */
    void
    submit(std::function<void()> task, uint64_t key = 0)
    {
        const size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                         queues_.size();
        {
            TaskQueue &tq = *queues_[q];
            std::lock_guard<std::mutex> lock(tq.m);
            // multimap keeps the queue key-sorted with FIFO order
            // inside a key; the new task is the front iff its key
            // undercuts everything queued.
            tq.q.emplace(key, std::move(task));
            tq.front_key.store(tq.q.begin()->first,
                               std::memory_order_release);
        }
        pending_.fetch_add(1, std::memory_order_release);
        // Empty critical section: a worker that evaluated the wait
        // predicate before the increment above cannot fall asleep until
        // we have passed through the mutex, so the notify reaches it.
        { std::lock_guard<std::mutex> lock(m_); }
        cv_.notify_one();
    }

  private:
    static constexpr uint64_t kEmptyKey = ~uint64_t(0);

    /** Let the workers drain every queued task and exit; join them. */
    void
    joinWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    struct TaskQueue
    {
        std::mutex m;
        /** Key-sorted (stable within a key): begin() is always the
         *  queue's best task, so a late low-key (high-priority)
         *  submission overtakes everything already queued here. */
        std::multimap<uint64_t, std::function<void()>> q;
        /** Key of the best task, kEmptyKey when empty -- the
         *  lock-free scan target of runOneTask. */
        std::atomic<uint64_t> front_key{kEmptyKey};
    };

    /**
     * Pop and run one task: scan every deque's cached front key (no
     * locks), lock only the winner, and take its front. Preferring
     * this worker's own deque on ties keeps its stream cache-warm;
     * taking another deque's front is the steal. The scan is a
     * best-effort snapshot -- fronts may move between scan and pop,
     * which only relaxes the ordering, never loses a task. Returns
     * false when every deque looked empty.
     */
    bool
    runOneTask(int self)
    {
        const int nq = int(queues_.size());
        for (;;) {
            int best = -1;
            uint64_t best_key = kEmptyKey;
            for (int k = 0; k < nq; ++k) {
                const int qi = (self + k) % nq;
                const uint64_t key = queues_[size_t(qi)]->front_key.load(
                    std::memory_order_acquire);
                if (key < best_key) {
                    best = qi;
                    best_key = key;
                }
            }
            if (best < 0)
                return false;
            std::function<void()> task;
            {
                TaskQueue &tq = *queues_[size_t(best)];
                std::lock_guard<std::mutex> lock(tq.m);
                if (tq.q.empty())
                    continue; // raced with another worker; rescan
                auto it = tq.q.begin();
                task = std::move(it->second);
                tq.q.erase(it);
                tq.front_key.store(tq.q.empty() ? kEmptyKey
                                                : tq.q.begin()->first,
                                   std::memory_order_release);
            }
            pending_.fetch_sub(1, std::memory_order_acq_rel);
            task();
            return true;
        }
    }

    void
    workerLoop(int self)
    {
        for (;;) {
            while (runOneTask(self)) {
            }
            std::unique_lock<std::mutex> lock(m_);
            cv_.wait(lock, [&] {
                return stop_ ||
                       pending_.load(std::memory_order_acquire) > 0;
            });
            if (stop_ && pending_.load(std::memory_order_acquire) == 0)
                return;
        }
    }

    std::vector<std::thread> workers_;
    std::vector<std::unique_ptr<TaskQueue>> queues_;
    std::mutex m_;
    std::condition_variable cv_; ///< wakes idle workers for new tasks
    std::atomic<size_t> next_queue_{0}; ///< round-robin submission target
    std::atomic<int> pending_{0};       ///< tasks sitting in deques
    bool stop_ = false;
};

} // namespace asdr

#endif // ASDR_UTIL_THREAD_POOL_HPP
