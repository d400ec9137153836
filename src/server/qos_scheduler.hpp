/**
 * @file
 * QoS-aware admission scheduler: the server's one pending queue,
 * which replaces the engine's FIFO for multi-tenant traffic.
 *
 * Every pending frame carries one order key, its ticket plus its
 * class's qosLag (server/qos.hpp), and pop() admits the eligible frame
 * with the smallest key. The engine keys the frame's stage tasks by
 * the same value, so the order the scheduler picks is the order the
 * workers run. Three guards shape admission:
 *
 *  - per-class in-flight caps: a class at its cap is ineligible until
 *    one of its frames completes, reserving pipeline slots for others;
 *  - per-scene quotas: frames of a scene at its quota are skipped, not
 *    blocked behind;
 *  - bounded per-client backlogs: an interactive client that submits
 *    faster than the server renders sheds its OLDEST pending poses
 *    (the stream stays current); standard/batch clients have the
 *    newest submission rejected instead.
 *
 * The scheduler is a plain data structure (no locks, no threads); the
 * FrameServer drives it under its own mutex and owns the in-flight
 * accounting passed into pop().
 */

#ifndef ASDR_SERVER_QOS_SCHEDULER_HPP
#define ASDR_SERVER_QOS_SCHEDULER_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "nerf/camera.hpp"
#include "server/qos.hpp"

namespace asdr::server {

/** One frame waiting for admission. */
struct PendingFrame
{
    uint64_t ticket = 0; ///< server-wide submission id
    uint64_t client = 0; ///< owning client session
    uint32_t scene = 0;  ///< SceneEntry::id (the per-scene-quota key)
    QosClass qos = QosClass::Standard;
    nerf::Camera camera{Vec3(0.0f), Vec3(0.0f, 0.0f, 1.0f),
                        Vec3(0.0f, 1.0f, 0.0f), 45.0f, 1, 1};
    std::chrono::steady_clock::time_point submitted_at;
    /**
     * Quality-ladder floor assigned at admission (a QualityRung value).
     * Normally Full; push() raises it to the ladder floor for frames
     * accepted into the degraded_backlog stretch, and the FrameServer's
     * brownout controller may raise it further before launch.
     */
    uint8_t rung = 0;

    /** The frame's order key: smaller is admitted and run sooner. */
    uint64_t key() const { return ticket + qosLag(qos); }
};

class QosScheduler
{
  public:
    explicit QosScheduler(const QosParams &params) : p_(params) {}

    /**
     * Queue a frame; frames arrive in ticket order. When the client's
     * backlog in its class is full, the shed frame(s) are appended to
     * `dropped`: the client's oldest pending frame for drop-oldest
     * classes, the pushed frame itself otherwise (check
     * `dropped[i].ticket`).
     *
     * Demote-before-drop: with QosClassParams::degraded_backlog > 0, a
     * frame that would have triggered the backlog policy is instead
     * accepted marked at the quality-ladder floor
     * (QualityRung::Quantized8) while the client's pending count is
     * under max_backlog + degraded_backlog -- served cheap beats never
     * served. Only past the stretched bound does the normal policy
     * fire.
     */
    void push(PendingFrame frame, std::vector<PendingFrame> &dropped);

    /**
     * Select the eligible frame with the smallest key() given the
     * server's per-class in-flight counts; false when nothing is
     * eligible (empty, or all backlogged classes are at their caps).
     *
     * `scene_in_flight` maps SceneEntry::id to the server's current
     * in-flight count for that scene (absent = 0). With
     * QosParams::max_in_flight_per_scene set, frames of a saturated
     * scene are skipped, so a hot scene cannot monopolize the server
     * while colder scenes have work queued. A skipped frame keeps its
     * key and its place.
     */
    bool pop(const int (&in_flight)[kQosClasses],
             const std::unordered_map<uint32_t, int> &scene_in_flight,
             PendingFrame &out);

    /** Remove every pending frame of `client` (session teardown);
     *  removed frames are appended to `dropped`. */
    void dropClient(uint64_t client, std::vector<PendingFrame> &dropped);

    /**
     * Remove every pending frame whose class deadline
     * (QosClassParams::deadline_ms) has passed at `now`; removed
     * frames are appended to `expired`. Driven by the FrameServer on
     * every admission pump and by its watchdog tick, so a queued frame
     * expires even when no new submission arrives.
     */
    void expireOverdue(std::chrono::steady_clock::time_point now,
                       std::vector<PendingFrame> &expired);

    size_t pending() const;
    size_t pendingOf(QosClass c) const { return q_[int(c)].size(); }

  private:
    QosParams p_;
    /** Pending frames per class, in ticket (and so key) order. */
    std::deque<PendingFrame> q_[kQosClasses];
    /** Pending frames per client, per class (the backlog bound is a
     *  per-(client, class) limit) -- keeps push()'s backlog check O(1)
     *  instead of scanning the class queue (the check runs under the
     *  server mutex on every submission). */
    std::unordered_map<uint64_t, int> client_pending_[kQosClasses];
};

} // namespace asdr::server

#endif // ASDR_SERVER_QOS_SCHEDULER_HPP
