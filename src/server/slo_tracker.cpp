#include "server/slo_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace asdr::server {

namespace {

/** The latency objective's implicit error budget: a p99 target allows
 *  1% of frames over it. */
constexpr double kLatencyBudget = 0.01;

/** Both windows must burn at or above this to breach: 1.0 alerts
 *  exactly when the budget is being consumed unsustainably. */
constexpr double kBreachBurn = 1.0;

std::string
breachText(QosClass c, const char *slo, bool entered, double fast,
           double slow, double objective)
{
    std::ostringstream os;
    os << "slo " << (entered ? "breach" : "recovered") << ": qos="
       << qosClassName(c) << " slo=" << slo << " fast_burn=" << fast
       << " slow_burn=" << slow << " objective=" << objective;
    return os.str();
}

} // namespace

SloTracker::SloTracker(const SloParams &p, metrics::Registry &reg)
    : p_(p), epoch_(std::chrono::steady_clock::now())
{
    // Eight slices per fast window: enough resolution that a burst
    // ages out smoothly instead of in one cliff.
    bucket_s_ = std::max(p_.fast_window_s / 8.0, 1e-3);
    fast_buckets_ = std::max<int64_t>(
        1, int64_t(std::ceil(p_.fast_window_s / bucket_s_)));
    slow_buckets_ = std::max(
        fast_buckets_,
        int64_t(std::ceil(std::max(p_.slow_window_s, p_.fast_window_s) /
                          bucket_s_)));
    for (int c = 0; c < kQosClasses; ++c) {
        ClassState &st = cls_[c];
        st.ring.assign(size_t(slow_buckets_), Bucket{});
        const std::string q =
            metrics::label("qos", qosClassName(QosClass(c)));
        const std::string fast = q + "," + metrics::label("window", "fast");
        const std::string slow = q + "," + metrics::label("window", "slow");
        st.latency = {&reg.gauge("asdr_slo_latency_burn", fast),
                      &reg.gauge("asdr_slo_latency_burn", slow),
                      &reg.gauge("asdr_slo_breach",
                                 q + "," + metrics::label("slo", "latency"))};
        st.errors = {
            &reg.gauge("asdr_slo_error_burn", fast),
            &reg.gauge("asdr_slo_error_burn", slow),
            &reg.gauge("asdr_slo_breach",
                       q + "," + metrics::label("slo", "availability"))};
        st.breach_events = &reg.counter("asdr_slo_breach_total", q);
    }
}

bool
SloTracker::recordServed(QosClass c, double latency_ms)
{
    return record(c, latency_ms, false);
}

bool
SloTracker::recordError(QosClass c)
{
    return record(c, 0.0, true);
}

bool
SloTracker::record(QosClass c, double latency_ms, bool error)
{
    const SloClassObjective &obj = p_.cls[int(c)];
    if (!obj.enabled())
        return false;
    const bool lat_bad =
        !error && obj.target_p99_ms > 0.0 && latency_ms > obj.target_p99_ms;
    std::lock_guard<std::mutex> lock(m_);
    ClassState &st = cls_[int(c)];
    advanceLocked(st, std::chrono::steady_clock::now());
    Bucket &b = st.ring[size_t(st.cur % slow_buckets_)];
    b.total++;
    if (lat_bad)
        b.lat_bad++;
    if (error)
        b.err_bad++;
    return lat_bad || (error && obj.max_error_fraction > 0.0);
}

void
SloTracker::advanceLocked(ClassState &st,
                          std::chrono::steady_clock::time_point now)
{
    const int64_t idx = int64_t(
        std::chrono::duration<double>(now - epoch_).count() / bucket_s_);
    if (st.cur < 0) {
        st.cur = idx;
        return;
    }
    // Zero every slice the clock skipped over (cap at one full ring:
    // beyond that everything is stale anyway).
    const int64_t steps = std::min(idx - st.cur, slow_buckets_);
    for (int64_t i = 1; i <= steps; ++i)
        st.ring[size_t((st.cur + i) % slow_buckets_)] = Bucket{};
    st.cur = std::max(st.cur, idx);
}

double
SloTracker::windowFraction(const ClassState &st, int64_t buckets,
                           uint64_t Bucket::*bad)
{
    uint64_t total = 0, violations = 0;
    const int64_t n = int64_t(st.ring.size());
    for (int64_t i = 0; i < std::min(buckets, n); ++i) {
        const Bucket &b =
            st.ring[size_t(((st.cur - i) % n + n) % n)];
        total += b.total;
        violations += b.*bad;
    }
    return total ? double(violations) / double(total) : 0.0;
}

void
SloTracker::evaluate()
{
    if (!p_.enabled())
        return;
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(m_);
    for (int c = 0; c < kQosClasses; ++c) {
        const SloClassObjective &obj = p_.cls[c];
        if (!obj.enabled())
            continue;
        ClassState &st = cls_[c];
        advanceLocked(st, now);
        if (obj.target_p99_ms > 0.0)
            evaluateLocked(QosClass(c), st, st.latency, "latency",
                           &Bucket::lat_bad, kLatencyBudget,
                           obj.target_p99_ms);
        if (obj.max_error_fraction > 0.0)
            evaluateLocked(QosClass(c), st, st.errors, "availability",
                           &Bucket::err_bad, obj.max_error_fraction,
                           obj.max_error_fraction);
    }
}

void
SloTracker::evaluateLocked(QosClass c, ClassState &st, Objective &obj,
                           const char *slo, uint64_t Bucket::*bad,
                           double budget, double objective)
{
    const double fast = windowFraction(st, fast_buckets_, bad) / budget;
    const double slow = windowFraction(st, slow_buckets_, bad) / budget;
    obj.fast->set(fast);
    obj.slow->set(slow);
    const bool breached = fast >= kBreachBurn && slow >= kBreachBurn;
    if (breached == (obj.breached->value() != 0.0))
        return;
    obj.breached->set(breached ? 1.0 : 0.0);
    if (breached)
        st.breach_events->inc();
    warn(breachText(c, slo, breached, fast, slow, objective));
}

void
SloTracker::read(QosClass c, QosClassStats &out) const
{
    const ClassState &st = cls_[int(c)];
    out.slo_latency_fast_burn = st.latency.fast->value();
    out.slo_latency_slow_burn = st.latency.slow->value();
    out.slo_error_fast_burn = st.errors.fast->value();
    out.slo_error_slow_burn = st.errors.slow->value();
    out.slo_latency_breached = uint8_t(st.latency.breached->value());
    out.slo_error_breached = uint8_t(st.errors.breached->value());
    out.slo_breach_events = st.breach_events->value();
}

} // namespace asdr::server
