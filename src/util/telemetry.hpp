/**
 * @file
 * End-to-end frame telemetry: stage-span tracing and the metrics
 * registry.
 *
 * Two cooperating namespaces:
 *
 *  - `telemetry` -- per-thread span buffers recording (frame, ticket,
 *    stage, worker lane, t_start, t_end) for every pipeline stage a
 *    frame crosses: QoS queue-wait, admission, the five engine
 *    stages, wire encode, and socket flush. Spans export as
 *    Chrome/Perfetto `trace_event` JSON (open the file in
 *    ui.perfetto.dev). Unlike the legacy per-frame TraceSink this
 *    never forces the serial path: recording is wait-free against
 *    other workers (each thread appends to its own buffer) and the
 *    disabled cost is one relaxed atomic load, the same discipline as
 *    `util/fault` -- so the instrumentation stays compiled into
 *    release builds. Spans feed traces only (the exit dump and the
 *    live stream): no metric, and no flight-recorder record, depends
 *    on tracing being on.
 *
 *  - `metrics` -- named counters, gauges, and log-bucketed histograms
 *    in a `metrics::Registry` with a Prometheus text exposition. Each
 *    server owns one; there is no process-wide registry.
 *    The histogram replaces sampling reservoirs for latency
 *    percentiles: every observation lands in one of 256 logarithmic
 *    buckets (growth 2^(1/8), ~4.5% relative error), so p99 under a
 *    burst is exact to bucket resolution instead of subject to
 *    reservoir luck.
 *
 * Env gates (process start, mirrors ASDR_FAULTS):
 *
 *  - ASDR_TRACE_OUT=<path> -- enable tracing and write the Perfetto
 *    JSON to <path> at process exit. Lets CI trace an existing binary
 *    (e.g. the fault soak) without code changes.
 */

#ifndef ASDR_UTIL_TELEMETRY_HPP
#define ASDR_UTIL_TELEMETRY_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace asdr::telemetry {

// ------------------------------------------------------------ span names
// One constant per compiled-in span site, in pipeline order. The
// README's span table and the trace tests enumerate spanNames().

/** Admission-queue wait: submit() to pumpLocked() admitting the frame. */
inline constexpr const char *kSpanQueueWait = "server.queue_wait";
/** Admission bookkeeping: ladder/brownout decisions + engine submit. */
inline constexpr const char *kSpanAdmit = "server.admit";
/** Engine stage 1: camera rays + probe-plan setup. */
inline constexpr const char *kSpanRaySetup = "engine.ray_setup";
/** Engine stage 2: Phase I probe sampling (none when not adaptive). */
inline constexpr const char *kSpanProbes = "engine.phase1_probes";
/** Engine stage 3: per-ray adaptive sample planning. */
inline constexpr const char *kSpanPlanning = "engine.sample_planning";
/** Engine stage 4: Phase II tile rendering. */
inline constexpr const char *kSpanTiles = "engine.phase2_tiles";
/** Engine stage 5: stats finalize (delivery follows the span). */
inline constexpr const char *kSpanFinalize = "engine.finalize";
/** Wire-side frame encode (raw/quantized/delta) under the session. */
inline constexpr const char *kSpanEncode = "net.encode";
/** Socket flush of queued reply bytes to one connection. */
inline constexpr const char *kSpanFlush = "net.flush";

/** One recorded interval on one worker lane. */
struct Span
{
    const char *name = "";   ///< one of the kSpan* constants
    uint64_t frame = 0;      ///< engine frame id (0 = not frame-bound)
    uint64_t ticket = 0;     ///< server ticket (0 = not ticket-bound)
    uint32_t lane = 0;       ///< recording thread's telemetry lane
    uint64_t t_start_us = 0; ///< µs since process trace epoch
    uint64_t t_end_us = 0;   ///< µs since process trace epoch
};

/** One compiled-in span site, for introspection/tooling. */
struct SpanInfo
{
    const char *name;        ///< the string that appears in the trace
    const char *description; ///< what interval it covers
};

/** Every span site compiled into production code, in pipeline order. */
const std::vector<SpanInfo> &spanNames();

namespace detail {
extern std::atomic<bool> g_enabled;
void recordSlow(const char *name, uint64_t frame, uint64_t ticket,
                uint64_t t_start_us, uint64_t t_end_us);
} // namespace detail

/** True when span recording is on (one relaxed load). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn span recording on/off. Existing spans are kept. */
void setEnabled(bool on);

/** Microseconds since the process trace epoch (steady clock). */
uint64_t nowUs();

/** Convert a steady_clock time point to trace-epoch microseconds. */
uint64_t toUs(std::chrono::steady_clock::time_point tp);

/**
 * Record one completed interval. Disabled processes pay one relaxed
 * load and branch; enabled ones append to the calling thread's own
 * buffer (uncontended mutex, no cross-thread waits). Spans feed traces
 * only; stage time is measured without them (FrameEngine's stage
 * stamps).
 */
inline void
recordSpan(const char *name, uint64_t frame, uint64_t ticket,
           uint64_t t_start_us, uint64_t t_end_us)
{
    if (!enabled())
        return;
    detail::recordSlow(name, frame, ticket, t_start_us, t_end_us);
}

/**
 * RAII span for the trace, like recordSpan: stamps t_start at
 * construction, records at destruction.
 * The enabled() check is taken once, at construction, so a span is
 * never half-recorded across a mid-scope toggle.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, uint64_t frame, uint64_t ticket)
        : armed_(enabled())
    {
        if (armed_) {
            name_ = name;
            frame_ = frame;
            ticket_ = ticket;
            t0_ = nowUs();
        }
    }
    ~ScopedSpan()
    {
        if (armed_)
            detail::recordSlow(name_, frame_, ticket_, t0_, nowUs());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool armed_;
    const char *name_ = "";
    uint64_t frame_ = 0;
    uint64_t ticket_ = 0;
    uint64_t t0_ = 0;
};

/** Total spans currently buffered across all threads. */
size_t spanCount();

/** Spans dropped because a thread hit its buffer cap. */
uint64_t droppedCount();

/** Copy out every buffered span (unsorted across lanes). */
std::vector<Span> snapshot();

/**
 * Incremental reader position over the per-thread span buffers, for
 * live streaming: each drain copies only the spans appended since the
 * previous one. One cursor per subscriber; a reset() (buffer shrank
 * under the cursor) restarts that lane from its beginning.
 */
struct CollectCursor
{
    std::vector<size_t> offsets; ///< next unread index per lane
};

/**
 * Append up to `max_spans` spans recorded since `cur` last advanced
 * (across all lanes, oldest lanes first) and move the cursor past
 * them. Returns the number appended; calling again after a short read
 * (return == max_spans) picks up where it stopped.
 */
size_t collectNewSpans(CollectCursor &cur, std::vector<Span> &out,
                       size_t max_spans);

/** Drop all buffered spans (lane ids and the epoch persist). */
void reset();

/**
 * `spans` as a Chrome trace_event JSON document, every span name
 * escaped. The exit dump and net::Client::followSpans both write
 * through it, so their files load identically in ui.perfetto.dev.
 */
std::string toJsonString(const std::vector<Span> &spans);

/** Write toJsonString(spans) to `path`. False + *err on I/O failure. */
bool writeJson(const std::string &path, const std::vector<Span> &spans,
               std::string *err = nullptr);

/** `s` escaped for use inside a JSON string literal: quote, backslash
 *  and control bytes never appear raw. */
std::string jsonEscape(const std::string &s);

} // namespace asdr::telemetry

namespace asdr::metrics {

/** Monotonic event counter (wait-free). */
class Counter
{
  public:
    void add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
    void inc() { add(1); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Log-bucketed histogram: 256 buckets from kMinValue with growth
 * 2^(1/8) per bucket (~±4.5% relative error at the bucket midpoint).
 * record() is wait-free (three relaxed atomic bumps); percentile() is
 * a 256-entry cumulative scan. The sum is kept in 1e-9 fixed point,
 * exact enough for latency seconds.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 256;
    static constexpr double kMinValue = 1e-6;

    void record(double v);
    /** Value at quantile q in [0,1]: the midpoint of the bucket the
     *  rank lands in (0 when empty). */
    double percentile(double q) const;
    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const
    {
        return double(sum_fp_.load(std::memory_order_relaxed)) * 1e-9;
    }
    double mean() const
    {
        const uint64_t n = count();
        return n ? sum() / double(n) : 0.0;
    }

    /** Observations in bucket i (for exposition/tests). */
    uint64_t bucketCount(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Upper edge of bucket i (inclusive), for tests/tooling. */
    static double bucketUpperEdge(int i);

  private:
    static int bucketIndex(double v);
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_fp_{0}; ///< 1e-9 fixed point
};

/**
 * A named-series store with a Prometheus text exposition. Each
 * FrameServer owns one and records every serving value into it, stage
 * time included. Lookup returns a stable reference: record sites
 * resolve their series once and bump them forever after.
 *
 * `labels` is the Prometheus inner label text, e.g. `qos="batch"`, or
 * empty for an unlabelled series.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &family,
                     const std::string &labels = std::string());
    Gauge &gauge(const std::string &family,
                 const std::string &labels = std::string());
    Histogram &histogram(const std::string &family,
                         const std::string &labels = std::string());

    /**
     * Prometheus text exposition of every registered series, one
     * `# TYPE` line per family. Histograms render as the native
     * `histogram` type: cumulative `family_bucket{le="..."}` lines
     * over the non-empty log buckets, ending at `le="+Inf"`, plus
     * `family_sum` / `family_count` (so `histogram_quantile()` and
     * `rate(_sum)/rate(_count)` both work).
     */
    std::string renderText() const;

  private:
    template <typename T>
    using Families =
        std::map<std::string, std::map<std::string, std::unique_ptr<T>>>;

    mutable std::mutex m_;
    Families<Counter> counters_;
    Families<Gauge> gauges_;
    Families<Histogram> histograms_;
};

/**
 * Escape a label VALUE per the Prometheus text-format spec:
 * backslash, double quote, and newline become \\, \", and \n.
 */
std::string escapeLabelValue(const std::string &v);

/** `key="value"` label text with the value escaped (runtime strings
 *  such as scene names are safe); join several with ','. Every series
 *  handed to a Registry builds its labels here. */
std::string label(const char *key, const std::string &value);

} // namespace asdr::metrics

#endif // ASDR_UTIL_TELEMETRY_HPP
