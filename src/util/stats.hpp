/**
 * @file
 * Offline statistics helpers: a fixed-bin histogram (the analysis
 * passes' sample-count distributions) and the percentile of a sorted
 * sample vector (the wire workload's client round trips). The serving
 * stack's own latencies use metrics::Histogram (util/telemetry).
 */

#ifndef ASDR_UTIL_STATS_HPP
#define ASDR_UTIL_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asdr {

/** Fixed-width-bin histogram over [lo, hi); out-of-range goes to end bins. */
class Histogram
{
  public:
    Histogram(double lo, double hi, size_t bins);

    void add(double x, uint64_t weight = 1);
    uint64_t binCount(size_t bin) const { return counts_.at(bin); }
    size_t bins() const { return counts_.size(); }
    double binLo(size_t bin) const;
    double binHi(size_t bin) const { return binLo(bin + 1); }
    uint64_t total() const { return total_; }

    /** Value below which `q` (0..1) of the mass lies, by bin interpolation. */
    double quantile(double q) const;

    /** Fraction of mass in bins whose lower edge is >= x. */
    double fractionAtLeast(double x) const;

  private:
    double lo_;
    double hi_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/**
 * Linearly-interpolated percentile of an ASCENDING-sorted sample
 * vector; q in [0, 1]. 0 on empty input.
 */
double percentileOfSorted(const std::vector<double> &sorted, double q);

} // namespace asdr

#endif // ASDR_UTIL_STATS_HPP
