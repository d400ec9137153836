#include "util/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace asdr::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/** Per-thread span ring. Appends lock the owning thread's mutex only
 *  (uncontended on the hot path); readers lock the registry, then
 *  each ring, so recording threads never wait on each other. */
struct ThreadRing
{
    uint32_t lane = 0;
    std::mutex m;
    /** Up to kRingSpans spans; once full, the oldest is at `head`. */
    std::vector<Span> spans;
    size_t head = 0; ///< next slot to overwrite once full
    uint64_t overwritten = 0;
};

/** Rings live for the process lifetime: threads may exit, but their
 *  spans stay exportable, and a late atexit writer can still walk the
 *  list. Heap-allocated and never destroyed so the atexit trace
 *  writer cannot race static destruction. */
struct Registry
{
    std::mutex m;
    std::vector<std::unique_ptr<ThreadRing>> rings;
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

ThreadRing &
threadRing()
{
    thread_local ThreadRing *ring = nullptr;
    if (!ring) {
        auto owned = std::make_unique<ThreadRing>();
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.m);
        owned->lane = uint32_t(r.rings.size());
        ring = owned.get();
        r.rings.push_back(std::move(owned));
    }
    return *ring;
}

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return epoch;
}

/** atexit writer target for ASDR_TRACE_OUT (never destroyed). */
std::string *g_atexit_path = nullptr;

void
writeAtExit()
{
    if (!g_atexit_path)
        return;
    std::string err;
    if (!writeJson(*g_atexit_path, snapshot(), &err))
        std::fprintf(stderr, "[warn] ASDR_TRACE_OUT write failed: %s\n",
                     err.c_str());
}

/** Parse at process start so ASDR_TRACE_OUT works without code
 *  changes (mirrors ASDR_FAULTS). */
struct EnvInit
{
    EnvInit()
    {
        if (const char *path = std::getenv("ASDR_TRACE_OUT")) {
            if (*path) {
                g_atexit_path = new std::string(path);
                (void)traceEpoch();
                setEnabled(true);
                std::atexit(writeAtExit);
            }
        }
    }
};
EnvInit env_init;

} // namespace

namespace detail {

void
recordSlow(const char *name, uint64_t frame, uint64_t ticket,
           uint64_t t_start_us, uint64_t t_end_us)
{
    ThreadRing &b = threadRing();
    const Span s{name, frame, ticket, b.lane, t_start_us, t_end_us};
    std::lock_guard<std::mutex> lock(b.m);
    if (b.spans.size() < kRingSpans) {
        // Grow by doubling, but never past the ring's size.
        if (b.spans.size() == b.spans.capacity())
            b.spans.reserve(std::min(
                kRingSpans, std::max<size_t>(64, 2 * b.spans.size())));
        b.spans.push_back(s);
        return;
    }
    b.spans[b.head] = s;
    b.head = (b.head + 1) % kRingSpans;
    b.overwritten++;
}

} // namespace detail

void
setEnabled(bool on)
{
    if (on)
        (void)traceEpoch(); // pin the epoch before the first span
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
nowUs()
{
    return toUs(std::chrono::steady_clock::now());
}

uint64_t
toUs(std::chrono::steady_clock::time_point tp)
{
    const auto d = tp - traceEpoch();
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    return us > 0 ? uint64_t(us) : 0;
}

size_t
spanCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    size_t n = 0;
    for (const auto &b : r.rings) {
        std::lock_guard<std::mutex> bl(b->m);
        n += b->spans.size();
    }
    return n;
}

uint64_t
droppedCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    uint64_t n = 0;
    for (const auto &b : r.rings) {
        std::lock_guard<std::mutex> bl(b->m);
        n += b->overwritten;
    }
    return n;
}

std::vector<Span>
snapshot()
{
    std::vector<Span> out;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    for (const auto &b : r.rings) {
        std::lock_guard<std::mutex> bl(b->m);
        const auto oldest = b->spans.begin() + std::ptrdiff_t(b->head);
        out.insert(out.end(), oldest, b->spans.end());
        out.insert(out.end(), b->spans.begin(), oldest);
    }
    return out;
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.m);
    for (const auto &b : r.rings) {
        std::lock_guard<std::mutex> bl(b->m);
        b->spans.clear();
        b->head = 0;
        b->overwritten = 0;
    }
}

std::string
toJsonString(const std::vector<Span> &spans)
{
    // Chrome trace_event "complete" events: one X event per span,
    // lanes as tids under a single pid. ts/dur are microseconds.
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans) {
        if (!first)
            os << ",";
        first = false;
        const uint64_t dur =
            s.t_end_us > s.t_start_us ? s.t_end_us - s.t_start_us : 0;
        os << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"cat\":\"asdr\",\"ph\":\"X\",\"ts\":" << s.t_start_us
           << ",\"dur\":" << dur << ",\"pid\":1,\"tid\":" << s.lane
           << ",\"args\":{\"frame\":" << s.frame
           << ",\"ticket\":" << s.ticket << "}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}";
    return os.str();
}

bool
writeJson(const std::string &path, const std::vector<Span> &spans,
          std::string *err)
{
    const std::string body = toJsonString(spans);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    const size_t wrote = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = wrote == body.size() && std::fclose(f) == 0;
    if (!ok && err)
        *err = "short write to " + path;
    return ok;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(char(c));
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(char(c));
        }
    }
    return out;
}

const std::vector<SpanInfo> &
spanNames()
{
    static const std::vector<SpanInfo> k = {
        {kSpanQueueWait,
         "admission-queue wait: submit to QoS admission"},
        {kSpanAdmit,
         "admission bookkeeping: ladder/brownout + engine submit"},
        {kSpanRaySetup, "stage 1: camera rays + probe-plan setup"},
        {kSpanProbes, "stage 2: Phase I probe sampling"},
        {kSpanPlanning, "stage 3: per-ray adaptive sample planning"},
        {kSpanTiles, "stage 4: Phase II tile rendering"},
        {kSpanFinalize, "stage 5: stats finalize (delivery follows)"},
        {kSpanEncode, "wire-side frame encode for one session"},
        {kSpanFlush, "socket flush of queued reply bytes"},
    };
    return k;
}

} // namespace asdr::telemetry

namespace asdr::metrics {

namespace {

std::string
seriesName(const std::string &family, const std::string &labels,
           const std::string &suffix = std::string(),
           const std::string &extra_label = std::string())
{
    std::string inner = labels;
    if (!extra_label.empty())
        inner += (inner.empty() ? "" : ",") + extra_label;
    std::string out = family + suffix;
    if (!inner.empty())
        out += "{" + inner + "}";
    return out;
}

void
appendNumber(std::ostringstream &os, double v)
{
    // Integral values print without a fraction so counter lines stay
    // grep-friendly.
    if (v == double(int64_t(v)) && std::abs(v) < 1e15)
        os << int64_t(v);
    else
        os << v;
}

template <typename T>
T &
findOrAdd(std::map<std::string, std::map<std::string, std::unique_ptr<T>>>
              &families,
          const std::string &family, const std::string &labels)
{
    auto &slot = families[family][labels];
    if (!slot)
        slot = std::make_unique<T>();
    return *slot;
}

} // namespace

void
Histogram::record(double v)
{
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    if (v > 0.0)
        sum_fp_.fetch_add(uint64_t(v * 1e9 + 0.5),
                          std::memory_order_relaxed);
}

int
Histogram::bucketIndex(double v)
{
    if (!(v > kMinValue))
        return 0;
    // Bucket i >= 1 covers (kMin * g^(i-1), kMin * g^i] with
    // g = 2^(1/8): 8 buckets per octave, ~±4.5% at the midpoint.
    const int i = 1 + int(std::floor(std::log2(v / kMinValue) * 8.0));
    return i < kBuckets ? i : kBuckets - 1;
}

double
Histogram::bucketUpperEdge(int i)
{
    if (i <= 0)
        return kMinValue;
    return kMinValue * std::exp2(double(i) / 8.0);
}

double
Histogram::percentile(double q) const
{
    const uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the q-th observation (1-based), nearest-rank method.
    uint64_t rank = uint64_t(std::ceil(q * double(total)));
    if (rank == 0)
        rank = 1;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i].load(std::memory_order_relaxed);
        if (seen >= rank) {
            if (i == 0)
                return kMinValue * 0.5;
            // Geometric midpoint of the covering bucket.
            return kMinValue * std::exp2((double(i) - 0.5) / 8.0);
        }
    }
    return bucketUpperEdge(kBuckets - 1);
}

Counter &
Registry::counter(const std::string &family, const std::string &labels)
{
    std::lock_guard<std::mutex> lock(m_);
    return findOrAdd(counters_, family, labels);
}

Gauge &
Registry::gauge(const std::string &family, const std::string &labels)
{
    std::lock_guard<std::mutex> lock(m_);
    return findOrAdd(gauges_, family, labels);
}

Histogram &
Registry::histogram(const std::string &family, const std::string &labels)
{
    std::lock_guard<std::mutex> lock(m_);
    return findOrAdd(histograms_, family, labels);
}

std::string
escapeLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

std::string
label(const char *key, const std::string &value)
{
    return std::string(key) + "=\"" + escapeLabelValue(value) + "\"";
}

std::string
Registry::renderText() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::ostringstream os;
    for (const auto &fam : counters_) {
        os << "# TYPE " << fam.first << " counter\n";
        for (const auto &s : fam.second)
            os << seriesName(fam.first, s.first) << " "
               << s.second->value() << "\n";
    }
    for (const auto &fam : gauges_) {
        os << "# TYPE " << fam.first << " gauge\n";
        for (const auto &s : fam.second) {
            os << seriesName(fam.first, s.first) << " ";
            appendNumber(os, s.second->value());
            os << "\n";
        }
    }
    for (const auto &fam : histograms_) {
        os << "# TYPE " << fam.first << " histogram\n";
        for (const auto &s : fam.second) {
            const Histogram &h = *s.second;
            // Cumulative buckets, sparse over the 256 log buckets
            // (only edges that gained observations print), always
            // closed by the mandatory le="+Inf" == _count line.
            uint64_t cum = 0;
            for (int i = 0; i < Histogram::kBuckets; ++i) {
                const uint64_t c = h.bucketCount(i);
                if (c == 0)
                    continue;
                cum += c;
                std::ostringstream edge;
                edge << Histogram::bucketUpperEdge(i);
                os << seriesName(fam.first, s.first, "_bucket",
                                 "le=\"" + edge.str() + "\"")
                   << " " << cum << "\n";
            }
            // Writers race this scrape: one count, never below the
            // buckets already printed, closes both lines.
            const uint64_t n = std::max(cum, h.count());
            os << seriesName(fam.first, s.first, "_bucket",
                             "le=\"+Inf\"")
               << " " << n << "\n";
            os << seriesName(fam.first, s.first, "_sum") << " ";
            appendNumber(os, h.sum());
            os << "\n";
            os << seriesName(fam.first, s.first, "_count") << " " << n
               << "\n";
        }
    }
    return os.str();
}

} // namespace asdr::metrics
