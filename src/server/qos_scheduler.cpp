#include "server/qos_scheduler.hpp"

#include <cstddef>

namespace asdr::server {

void
QosScheduler::push(PendingFrame frame, std::vector<PendingFrame> &dropped)
{
    const int c = int(frame.qos);
    const QosClassParams &cp = p_.cls[c];
    std::deque<PendingFrame> &q = q_[c];

    int &client_pending = client_pending_[c][frame.client];

    if (cp.max_backlog > 0 && client_pending >= cp.max_backlog) {
        if (cp.degraded_backlog > 0 &&
            client_pending < cp.max_backlog + cp.degraded_backlog) {
            // Demote-before-drop: admit at the ladder floor instead of
            // invoking the backlog policy -- served cheap beats never.
            frame.rung = uint8_t(QualityRung::Quantized8);
        } else if (!cp.drop_oldest) {
            dropped.push_back(std::move(frame)); // reject the newest
            return;
        } else {
            // Drop-oldest: shed the client's stalest pose so the stream
            // stays current (queue order preserved for everyone else).
            for (auto it = q.begin(); it != q.end(); ++it) {
                if (it->client == frame.client) {
                    dropped.push_back(std::move(*it));
                    q.erase(it);
                    --client_pending;
                    break;
                }
            }
            if (cp.degraded_backlog > 0) {
                // The freed slot is a stretch slot (the client is still
                // past max_backlog), so the admission stays demoted.
                frame.rung = uint8_t(QualityRung::Quantized8);
            }
        }
    }

    ++client_pending;
    q.push_back(std::move(frame));
}

bool
QosScheduler::pop(const int (&in_flight)[kQosClasses],
                  const std::unordered_map<uint32_t, int> &scene_in_flight,
                  PendingFrame &out)
{
    // A class queue is in ticket order, so its candidate -- the oldest
    // frame whose scene is under quota -- is also its smallest key.
    // The smallest candidate key across eligible classes wins; ties go
    // to the more urgent (lower) class.
    const int scene_cap = p_.max_in_flight_per_scene;
    int sel = -1;
    size_t sel_i = 0;
    for (int c = 0; c < kQosClasses; ++c) {
        const int cap = p_.cls[c].max_in_flight;
        if (cap > 0 && in_flight[c] >= cap)
            continue;
        for (size_t i = 0; i < q_[c].size(); ++i) {
            if (scene_cap > 0) {
                auto it = scene_in_flight.find(q_[c][i].scene);
                if (it != scene_in_flight.end() && it->second >= scene_cap)
                    continue;
            }
            if (sel < 0 || q_[c][i].key() < q_[sel][sel_i].key()) {
                sel = c;
                sel_i = i;
            }
            break;
        }
    }
    if (sel < 0)
        return false;

    out = std::move(q_[sel][sel_i]);
    q_[sel].erase(q_[sel].begin() + std::ptrdiff_t(sel_i));
    auto it = client_pending_[sel].find(out.client);
    if (--it->second == 0)
        client_pending_[sel].erase(it);
    return true;
}

void
QosScheduler::expireOverdue(std::chrono::steady_clock::time_point now,
                            std::vector<PendingFrame> &expired)
{
    for (int c = 0; c < kQosClasses; ++c) {
        const double deadline_ms = p_.cls[c].deadline_ms;
        if (deadline_ms <= 0.0)
            continue;
        const auto limit = std::chrono::duration<double, std::milli>(
            deadline_ms);
        std::deque<PendingFrame> &q = q_[c];
        for (auto it = q.begin(); it != q.end();) {
            if (now - it->submitted_at > limit) {
                auto cit = client_pending_[c].find(it->client);
                if (cit != client_pending_[c].end() && --cit->second == 0)
                    client_pending_[c].erase(cit);
                expired.push_back(std::move(*it));
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    }
}

void
QosScheduler::dropClient(uint64_t client, std::vector<PendingFrame> &dropped)
{
    for (auto &q : q_) {
        for (auto it = q.begin(); it != q.end();) {
            if (it->client == client) {
                dropped.push_back(std::move(*it));
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &counts : client_pending_)
        counts.erase(client);
}

size_t
QosScheduler::pending() const
{
    size_t n = 0;
    for (const auto &q : q_)
        n += q.size();
    return n;
}

} // namespace asdr::server
