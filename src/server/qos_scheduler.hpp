/**
 * @file
 * QoS-aware admission scheduler: the server's one pending queue,
 * which replaces the engine's FIFO for multi-tenant traffic.
 *
 * Ordering is weighted-fair across the three QoS classes: each class
 * keeps a virtual time advanced by 1/weight per admission, and the
 * eligible class with the smallest virtual time wins, so backlogged
 * classes share admissions in proportion to their weights (8:3:1 by
 * default) rather than first-come-first-served. Three guards shape the
 * fairness:
 *
 *  - per-class in-flight caps: a class at its cap is ineligible until
 *    one of its frames completes, reserving pipeline slots for others;
 *  - bounded per-client backlogs: an interactive client that submits
 *    faster than the server renders sheds its OLDEST pending poses
 *    (the stream stays current); standard/batch clients have the
 *    newest submission rejected instead;
 *  - starvation-free aging: an eligible head frame passed over
 *    `aging_limit` times is granted the next admission outright, so a
 *    weight-starved batch queue still makes progress under sustained
 *    interactive load.
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
    /** Admissions that selected another class while this frame was an
     *  eligible head (the aging trigger). */
    int passed_over = 0;
    /**
     * Quality-ladder floor assigned at admission (a QualityRung value).
     * Normally Full; push() raises it to the ladder floor for frames
     * accepted into the degraded_backlog stretch, and the FrameServer's
     * brownout controller may raise it further before launch.
     */
    uint8_t rung = 0;
};

class QosScheduler
{
  public:
    explicit QosScheduler(const QosParams &params) : p_(params) {}

    /**
     * Queue a frame. When the client's backlog in its class is full,
     * the shed frame(s) are appended to `dropped`: the client's oldest
     * pending frame for drop-oldest classes, the pushed frame itself
     * otherwise (check `dropped[i].ticket`).
     *
     * Demote-before-drop: with QosClassParams::degraded_backlog > 0, a
     * frame that would have triggered the backlog policy is instead
     * accepted marked at the quality-ladder floor
     * (QualityRung::Quantized8) while the client's pending count is
     * under max_backlog + degraded_backlog -- served cheap beats never
     * served. Only past the stretched bound does the normal policy
     * fire. Degraded admissions are counted in degradedAdmits().
     */
    void push(PendingFrame frame, std::vector<PendingFrame> &dropped);

    /**
     * Select the next frame to admit given the server's per-class
     * in-flight counts; false when nothing is eligible (empty, or all
     * backlogged classes are at their caps).
     *
     * `scene_in_flight` maps SceneEntry::id to the server's current
     * in-flight count for that scene (absent = 0). With
     * QosParams::max_in_flight_per_scene set, a class's candidate is
     * its OLDEST frame whose scene is under quota -- frames of a
     * saturated scene are skipped (and counted in quotaDeferrals()),
     * so a hot scene cannot monopolize the server while colder scenes
     * have work queued. Skipping preserves per-scene FIFO order and
     * the skipped frames' aging credit.
     */
    bool pop(const int (&in_flight)[kQosClasses],
             const std::unordered_map<uint32_t, int> &scene_in_flight,
             PendingFrame &out);

    /** Times a pending frame was passed over because its scene was at
     *  quota (an admission-pressure signal for dashboards/tests). */
    uint64_t quotaDeferrals() const { return quota_deferrals_; }

    /** Frames admitted into the degraded_backlog stretch at the ladder
     *  floor instead of being dropped/rejected. */
    uint64_t degradedAdmits() const { return degraded_admits_; }

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
    std::deque<PendingFrame> q_[kQosClasses];
    /** Pending frames per client, per class (the backlog bound is a
     *  per-(client, class) limit) -- keeps push()'s backlog check O(1)
     *  instead of scanning the class queue (the check runs under the
     *  server mutex on every submission). */
    std::unordered_map<uint64_t, int> client_pending_[kQosClasses];
    double vtime_[kQosClasses] = {0.0, 0.0, 0.0};
    uint64_t quota_deferrals_ = 0;
    uint64_t degraded_admits_ = 0;
    /** Virtual time of the last admission: a class going from empty to
     *  backlogged restarts at max(its vtime, vclock_) so idle periods
     *  don't bank credit. */
    double vclock_ = 0.0;
};

} // namespace asdr::server

#endif // ASDR_SERVER_QOS_SCHEDULER_HPP
