#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace asdr {

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    ASDR_ASSERT(bins > 0 && hi > lo, "bad histogram bounds");
}

void
Histogram::add(double x, uint64_t weight)
{
    double t = (x - lo_) / (hi_ - lo_);
    long bin = static_cast<long>(t * double(counts_.size()));
    bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
    counts_[static_cast<size_t>(bin)] += weight;
    total_ += weight;
}

double
Histogram::binLo(size_t bin) const
{
    return lo_ + (hi_ - lo_) * double(bin) / double(counts_.size());
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return lo_;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * double(total_);
    double cum = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        double next = cum + double(counts_[i]);
        if (next >= target) {
            double frac =
                counts_[i] ? (target - cum) / double(counts_[i]) : 0.0;
            return binLo(i) + frac * (binHi(i) - binLo(i));
        }
        cum = next;
    }
    return hi_;
}

double
Histogram::fractionAtLeast(double x) const
{
    if (total_ == 0)
        return 0.0;
    uint64_t mass = 0;
    for (size_t i = 0; i < counts_.size(); ++i)
        if (binLo(i) >= x)
            mass += counts_[i];
    return double(mass) / double(total_);
}

} // namespace asdr
