/**
 * @file
 * Offline statistics: a fixed-bin histogram over a known range (the
 * analysis passes' sample-count distributions). Serving latencies,
 * the server's and the wire workload's client round trips alike, use
 * the log-bucketed metrics::Histogram (util/telemetry).
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

} // namespace asdr

#endif // ASDR_UTIL_STATS_HPP
