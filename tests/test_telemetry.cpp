/**
 * @file
 * End-to-end frame telemetry (util/telemetry + its wiring):
 *
 *  - metrics: log-bucketed histogram percentiles stay within the
 *    published bucket error; a Registry's Prometheus text exposition
 *    round-trips names, labels, and values.
 *  - tracing: disabled recording is free (no spans, no measurable
 *    cost); a served frame records exactly 5 + gh + jobs spans, and
 *    recording them, alone or with the live stream's collect and pack,
 *    costs under 3% of the frame's render; an enabled serving run
 *    produces a well-formed Chrome trace_event JSON (span names
 *    escaped) in which every served ticket has its own
 *    queue-wait and its render_ticket has admission and all five
 *    engine stages; span ordering invariants hold (a render's
 *    queue-wait ends before its first engine stage, each engine
 *    stage's spans end before the next stage's first span starts, a
 *    joiner's queue-wait ends before its render's finalize ends; spans
 *    on one worker lane never overlap).
 *  - stage time, tracing off: each render adds one
 *    asdr_stage_duration_seconds observation per stage to its own
 *    server's registry, under its class only (a frame that joined it
 *    adds none), and a delivered frame's stage times sum to its
 *    pipeline residency; their per-render cost stays under 1% of the
 *    render.
 *  - flight recorder: a frame stalled past slow_frame_ms is retained
 *    with its render's stage times, which name the stalled stage, and
 *    surfaces in the recorder's JSON; a frame that joined its render
 *    is retained with the same stage times and names the render in
 *    render_ticket; records carry no spans (those stay in the trace),
 *    and a slow render is dumped to the log once, however many frames
 *    it answered.
 *  - wire: GetStats returns the server's exposition over a real
 *    socket, the same series the in-process typed reads see.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/render_service.hpp"
#include "nerf/camera.hpp"
#include "nerf/ngp_field.hpp"
#include "server/frame_server.hpp"
#include "server/scene_registry.hpp"
#include "util/fault.hpp"
#include "util/telemetry.hpp"

#include "exposition.hpp"

using namespace asdr;

namespace {

core::RenderConfig
smallConfig()
{
    core::RenderConfig cfg = core::RenderConfig::asdr(16, 16, 32);
    cfg.probe_stride = 4;
    cfg.num_threads = 1;
    return cfg;
}

/** Telemetry and fault state are process-global; scope every test so
 *  a failing assertion cannot leak spans or armed faults onward. */
struct TelemetryGuard
{
    TelemetryGuard()
    {
        telemetry::setEnabled(false);
        telemetry::reset();
        fault::resetAll();
    }
    ~TelemetryGuard()
    {
        telemetry::setEnabled(false);
        telemetry::reset();
        fault::resetAll();
    }
};

/**
 * Minimal recursive-descent JSON validator: accepts exactly the
 * RFC 8259 grammar (objects, arrays, strings with escapes, numbers,
 * true/false/null) and nothing else. Enough to prove the trace export
 * is machine-parseable without a JSON library in the test.
 */
struct JsonChecker
{
    const char *p;
    const char *end;

    explicit JsonChecker(const std::string &s)
        : p(s.data()), end(s.data() + s.size())
    {
    }

    void ws()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }
    bool lit(const char *s)
    {
        const size_t n = std::char_traits<char>::length(s);
        if (size_t(end - p) < n || std::string(p, n) != s)
            return false;
        p += n;
        return true;
    }
    bool string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return false;
                if (*p == 'u') {
                    for (int i = 0; i < 4; ++i)
                        if (++p >= end || !isxdigit(uint8_t(*p)))
                            return false;
                }
            } else if (uint8_t(*p) < 0x20) {
                return false; // control chars must be escaped
            }
            ++p;
        }
        if (p >= end)
            return false;
        ++p;
        return true;
    }
    bool number()
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end && isdigit(uint8_t(*p)))
            ++p;
        if (p == start || (*start == '-' && p == start + 1))
            return false;
        if (p < end && *p == '.') {
            ++p;
            if (p >= end || !isdigit(uint8_t(*p)))
                return false;
            while (p < end && isdigit(uint8_t(*p)))
                ++p;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (p >= end || !isdigit(uint8_t(*p)))
                return false;
            while (p < end && isdigit(uint8_t(*p)))
                ++p;
        }
        return true;
    }
    bool value()
    {
        ws();
        if (p >= end)
            return false;
        switch (*p) {
        case '{': {
            ++p;
            ws();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            for (;;) {
                ws();
                if (!string())
                    return false;
                ws();
                if (p >= end || *p++ != ':')
                    return false;
                if (!value())
                    return false;
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                return p < end && *p++ == '}';
            }
        }
        case '[': {
            ++p;
            ws();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            for (;;) {
                if (!value())
                    return false;
                ws();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                return p < end && *p++ == ']';
            }
        }
        case '"':
            return string();
        case 't':
            return lit("true");
        case 'f':
            return lit("false");
        case 'n':
            return lit("null");
        default:
            return number();
        }
    }
    bool document()
    {
        if (!value())
            return false;
        ws();
        return p == end;
    }
};

/** Serving run with tracing on: submit `frames` frames of
 *  one camera and return each served ticket's render_ticket. Frames
 *  submitted while an identical one is rendering join that render, so
 *  several tickets may share one. */
std::map<uint64_t, uint64_t>
tracedRun(server::FrameServer &srv, server::SceneRegistry &reg, int frames)
{
    const uint64_t client =
        srv.openSession("lego", server::QosClass::Standard);
    EXPECT_NE(client, 0u);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);
    std::set<uint64_t> tickets;
    for (int f = 0; f < frames; ++f) {
        const uint64_t t = srv.submitFrame(client, cam);
        EXPECT_NE(t, 0u);
        tickets.insert(t);
    }
    srv.waitIdle();
    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    EXPECT_EQ(results.size(), tickets.size());
    std::map<uint64_t, uint64_t> render_of;
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(tickets.count(r.ticket));
        EXPECT_TRUE(tickets.count(r.render_ticket));
        render_of[r.ticket] = r.render_ticket;
    }
    for (const auto &entry : render_of)
        EXPECT_EQ(render_of.at(entry.second), entry.second)
            << "a render's own frame names itself";
    srv.closeSession(client);
    return render_of;
}

/** Pauses the engine for its scope, so frames submitted meanwhile
 *  queue and admit but claim no work; resumes at scope exit, so a
 *  failed assertion cannot hang the test. */
struct EnginePause
{
    explicit EnginePause(engine::FrameEngine &e) : eng(e) { eng.pause(); }
    ~EnginePause() { eng.resume(); }

    engine::FrameEngine &eng;
};

/** Every span recorded under `ticket`, sorted by start time. */
std::vector<telemetry::Span>
spansOf(const std::vector<telemetry::Span> &spans, uint64_t ticket)
{
    std::vector<telemetry::Span> out;
    for (const auto &s : spans)
        if (s.ticket == ticket)
            out.push_back(s);
    std::sort(out.begin(), out.end(),
              [](const telemetry::Span &a, const telemetry::Span &b) {
                  return a.t_start_us < b.t_start_us;
              });
    return out;
}

/** The names of every span recorded under `ticket`. */
std::set<std::string>
spanNamesOf(const std::vector<telemetry::Span> &spans, uint64_t ticket)
{
    std::set<std::string> names;
    for (const auto &s : spans)
        if (s.ticket == ticket)
            names.insert(s.name);
    return names;
}

} // namespace

// ----------------------------------------------------------- histogram

TEST(Metrics, HistogramPercentilesWithinBucketError)
{
    metrics::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0); // empty: no data, no estimate

    // 1..1000 ms, uniformly: every quantile is known exactly, and the
    // log-bucket estimate must land within the published ~4.5% error
    // (plus the midpoint rounding, so allow 10% end to end).
    for (int i = 1; i <= 1000; ++i)
        h.record(double(i) * 1e-3);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_NEAR(h.sum(), 500.5, 0.01);
    EXPECT_NEAR(h.mean(), 0.5005, 1e-5);
    EXPECT_NEAR(h.percentile(0.50), 0.500, 0.050);
    EXPECT_NEAR(h.percentile(0.95), 0.950, 0.095);
    EXPECT_NEAR(h.percentile(0.99), 0.990, 0.099);

    // Zero / sub-minimum observations land in the underflow bucket and
    // keep counting.
    metrics::Histogram under;
    under.record(0.0);
    under.record(1e-9);
    EXPECT_EQ(under.count(), 2u);
    EXPECT_LE(under.percentile(0.5), metrics::Histogram::kMinValue);
}

TEST(Metrics, RegistryRenderTextExposition)
{
    metrics::Registry reg;
    metrics::Counter &c =
        reg.counter("telemetrytest_events_total", "qos=\"batch\"");
    metrics::Gauge &g = reg.gauge("telemetrytest_depth");
    metrics::Histogram &h = reg.histogram("telemetrytest_latency");
    c.add(3);
    g.set(2.5);
    h.record(0.25);
    h.record(0.25);

    const std::string text = reg.renderText();
    EXPECT_NE(text.find("# TYPE telemetrytest_events_total counter"),
              std::string::npos);
    EXPECT_NE(
        text.find("telemetrytest_events_total{qos=\"batch\"} 3"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE telemetrytest_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("telemetrytest_depth 2.5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE telemetrytest_latency histogram"),
              std::string::npos);
    EXPECT_NE(text.find("telemetrytest_latency_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("telemetrytest_latency_sum 0.5"),
              std::string::npos);
    EXPECT_NE(text.find("telemetrytest_latency_count 2"),
              std::string::npos);

    // Lookup is stable: the same (family, labels) resolves to the same
    // object, and a different label set is a different series.
    EXPECT_EQ(&reg.counter("telemetrytest_events_total", "qos=\"batch\""),
              &c);
    EXPECT_NE(
        &reg.counter("telemetrytest_events_total", "qos=\"interactive\""),
        &c);
    // Registries are independent stores.
    metrics::Registry other;
    EXPECT_EQ(other.renderText(), "");
    EXPECT_NE(&other.counter("telemetrytest_events_total", "qos=\"batch\""),
              &c);
    EXPECT_NE(other.renderText().find(
                  "telemetrytest_events_total{qos=\"batch\"} 0"),
              std::string::npos);
}

// ------------------------------------------------------- disabled cost

TEST(Telemetry, DisabledRecordingIsFreeAndRecordsNothing)
{
    TelemetryGuard guard;
    ASSERT_FALSE(telemetry::enabled());
    const size_t before = telemetry::spanCount();
    const uint64_t dropped_before = telemetry::droppedCount();

    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 200000; ++i) {
        telemetry::recordSpan(telemetry::kSpanRaySetup, 1, 2, 3, 4);
        telemetry::ScopedSpan sp(telemetry::kSpanTiles, 1, 2);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    EXPECT_EQ(telemetry::spanCount(), before);
    EXPECT_EQ(telemetry::droppedCount(), dropped_before);
    // 400k disabled probes are a few hundred microseconds of relaxed
    // loads; a full second means the gate is not the fast path it
    // claims to be (bound is deliberately loose for CI noise).
    EXPECT_LT(elapsed, 1.0);
}

// -------------------------------------------------------- tracing cost

namespace {

/** Least wall time of `reps` runs of `run`, each after `setup`. */
double
minSeconds(int reps, const std::function<void()> &setup,
           const std::function<void()> &run)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        setup();
        const auto t0 = std::chrono::steady_clock::now();
        run();
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
    return best;
}

} // namespace

// Tracing's cost, bounded as spans per frame x cost per span instead
// of a traced/untraced throughput ratio, which host noise swamps. A
// served frame records exactly 5 + gh + jobs spans: queue wait,
// admission, ray setup, planning and finalize, plus one per probe row
// and per Phase II job. Recording them -- alone, and with the live
// stream's collect and SpanBatch pack -- must cost under 3% of one
// single-threaded render() of the same shape. The always-on stage
// time -- one clock read and one histogram record per stage, and
// net.encode's two clock reads and one record -- must cost under 1%.
// Every cost is the minimum over repetitions, so a preempted
// repetition cannot fail it.
TEST(Telemetry, SpansPerFrameCostUnderThreePercentOfItsRender)
{
    TelemetryGuard guard;
    server::SceneRegistry reg;
    const server::SceneEntry *entry = reg.addProcedural(
        "lego", "Lego", nerf::NgpModelConfig::fast(), smallConfig());
    ASSERT_NE(entry, nullptr);
    const core::AsdrRenderer renderer(*entry->field, entry->config);
    const core::FrameShape shape = renderer.frameShape(16, 16);
    ASSERT_TRUE(shape.adaptive);
    const size_t spans_per_frame = size_t(5 + shape.gh + shape.jobs);

    // Distinct cameras, so no frame joins another's render.
    const int kFrames = 6;
    const auto path =
        nerf::orbitCameraPath(entry->info, 16, 16, kFrames, 0.05f);
    telemetry::setEnabled(true);
    {
        server::ServerConfig cfg;
        cfg.threads_per_shard = 2;
        server::FrameServer srv(reg, cfg);
        const uint64_t client =
            srv.openSession("lego", server::QosClass::Standard);
        ASSERT_NE(client, 0u);
        for (const nerf::Camera &cam : path)
            ASSERT_NE(srv.submitFrame(client, cam), 0u);
        srv.waitIdle();
        srv.closeSession(client);
    }
    EXPECT_EQ(telemetry::spanCount(), size_t(kFrames) * spans_per_frame);
    EXPECT_EQ(telemetry::droppedCount(), 0u);

    telemetry::setEnabled(false);
    renderer.render(path[0]); // start the renderer's engine
    const double frame_s =
        minSeconds(5, [] {}, [&] { renderer.render(path[0]); });

    telemetry::setEnabled(true);
    const int kSpans = 1000, kReps = 20;
    auto record = [&] {
        for (int i = 0; i < kSpans; ++i)
            telemetry::recordSpan(telemetry::kSpanTiles, 1, 2, 3, 4);
    };
    const double record_s = minSeconds(kReps, telemetry::reset, record) /
                            double(kSpans);
    size_t streamed = 0;
    const double stream_s =
        minSeconds(kReps, telemetry::reset,
                   [&] {
                       record();
                       telemetry::CollectCursor cursor;
                       std::vector<telemetry::Span> spans;
                       telemetry::collectNewSpans(cursor, spans,
                                                  net::kMaxSpansPerBatch);
                       net::SpanBatchMsg msg;
                       for (const telemetry::Span &s : spans)
                           msg.spans.push_back(
                               net::WireSpan{s.name, s.frame, s.ticket,
                                             s.lane, s.t_start_us,
                                             s.t_end_us});
                       if (!net::packMessage(net::MsgType::SpanBatch, msg)
                                .empty())
                           streamed += msg.spans.size();
                   }) /
        double(kSpans);
    EXPECT_EQ(streamed, size_t(kReps) * size_t(kSpans));

    const double budget_s = 0.03 * frame_s;
    EXPECT_LT(double(spans_per_frame) * record_s, budget_s)
        << spans_per_frame << " spans x " << record_s * 1e6
        << " us against a " << frame_s * 1e3 << " ms frame";
    EXPECT_LT(double(spans_per_frame) * stream_s, budget_s)
        << spans_per_frame << " spans x " << stream_s * 1e6
        << " us against a " << frame_s * 1e3 << " ms frame";

    telemetry::setEnabled(false);
    const int kCalls = 1000;
    int64_t ticks = 0;
    const double clock_s =
        minSeconds(kReps, [] {},
                   [&] {
                       for (int i = 0; i < kCalls; ++i)
                           ticks += std::chrono::steady_clock::now()
                                        .time_since_epoch()
                                        .count();
                   }) /
        double(kCalls);
    EXPECT_NE(ticks, 0);
    metrics::Histogram h;
    const double hist_s = minSeconds(kReps, [] {},
                                     [&] {
                                         for (int i = 0; i < kCalls; ++i)
                                             h.record(1e-4);
                                     }) /
                          double(kCalls);
    const int clock_reads = engine::kStages + 2; // all five stages ran
    const int records = engine::kStages + 1;
    const double untraced_s = clock_reads * clock_s + records * hist_s;
    EXPECT_LT(untraced_s, 0.01 * frame_s)
        << clock_reads << " clock reads x " << clock_s * 1e9 << " ns + "
        << records << " records x " << hist_s * 1e9 << " ns against a "
        << frame_s * 1e3 << " ms frame";
}

// ------------------------------------------------- stage time, untraced

// Stage time comes from the engine's stage stamps, not from spans, so
// it is recorded with tracing off: each render adds one observation
// per stage under its own class, in its own server's registry only. A
// frame that joined a render shares the render's class and adds
// nothing.
TEST(Telemetry, UntracedRendersRecordStageTimesPerServer)
{
    TelemetryGuard guard;
    ASSERT_FALSE(telemetry::enabled());
    server::SceneRegistry reg;
    const server::SceneEntry *entry = reg.addProcedural(
        "lego", "Lego", nerf::NgpModelConfig::fast(), smallConfig());
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(core::AsdrRenderer(*entry->field, entry->config)
                    .frameShape(16, 16)
                    .adaptive); // all five stages run
    const auto path = nerf::orbitCameraPath(entry->info, 16, 16, 2, 0.05f);

    server::ServerConfig cfg;
    cfg.threads_per_shard = 2;
    cfg.frames_in_flight_per_shard = 2;
    server::FrameServer srv(reg, cfg);
    const uint64_t inter =
        srv.openSession("lego", server::QosClass::Interactive);
    const uint64_t joiner =
        srv.openSession("lego", server::QosClass::Interactive);
    const uint64_t batch = srv.openSession("lego", server::QosClass::Batch);
    ASSERT_TRUE(inter != 0 && joiner != 0 && batch != 0);
    {
        // Paused, the first interactive frame holds its slot, so the
        // second of the same view joins it; the batch frame renders
        // on the other slot.
        EnginePause pause(srv.engine());
        ASSERT_NE(srv.submitFrame(inter, path[0]), 0u);
        ASSERT_NE(srv.submitFrame(joiner, path[0]), 0u);
        ASSERT_NE(srv.submitFrame(batch, path[1]), 0u);
    }
    srv.waitIdle();
    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    ASSERT_EQ(results.size(), 3u);
    std::set<uint64_t> renders;
    for (const server::FrameResult &r : results) {
        ASSERT_TRUE(r.ok());
        renders.insert(r.render_ticket);
        // The stage times tile the pipeline residency.
        double sum = 0.0;
        for (int k = 0; k < engine::kStages; ++k) {
            ASSERT_TRUE(r.frame.stage_s[size_t(k)].has_value())
                << engine::kStageName[k];
            EXPECT_GE(*r.frame.stage_s[size_t(k)], 0.0);
            sum += *r.frame.stage_s[size_t(k)];
        }
        EXPECT_NEAR(sum,
                    std::chrono::duration<double>(r.frame.finished_at -
                                                  r.frame.started_at)
                        .count(),
                    1e-6)
            << "ticket " << r.ticket;
        if (r.ticket == r.render_ticket) {
            EXPECT_LE(sum, r.latency_s) << "ticket " << r.ticket;
        }
    }
    EXPECT_EQ(renders.size(), 2u) << "the second frame joined the first";
    EXPECT_EQ(telemetry::spanCount(), 0u);

    // A second server in the same process has its own store.
    server::FrameServer other(reg, cfg);
    const std::string text = srv.metricsText();
    const std::string other_text = other.metricsText();
    auto count = [](const std::string &t, int stage, const char *qos) {
        return expositionValue(
            t, std::string("asdr_stage_duration_seconds_count{stage=\"") +
                   engine::kStageName[stage] + "\",qos=\"" + qos + "\"}");
    };
    for (int k = 0; k < engine::kStages; ++k) {
        EXPECT_EQ(count(text, k, "interactive"), 1.0)
            << engine::kStageName[k];
        EXPECT_EQ(count(text, k, "batch"), 1.0) << engine::kStageName[k];
        EXPECT_EQ(count(text, k, "standard"), 0.0) << engine::kStageName[k];
        for (const char *qos : {"interactive", "standard", "batch"})
            EXPECT_EQ(count(other_text, k, qos), 0.0)
                << engine::kStageName[k] << " qos=" << qos;
    }
    for (uint64_t c : {inter, joiner, batch})
        srv.closeSession(c);
}

// ------------------------------------------------------- trace export

TEST(Telemetry, TraceJsonWellFormedAndCoversEveryTicket)
{
    TelemetryGuard guard;
    telemetry::setEnabled(true);

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 2;
    server::FrameServer srv(reg, cfg);
    const std::map<uint64_t, uint64_t> render_of = tracedRun(srv, reg, 4);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    ASSERT_EQ(render_of.size(), 4u);

    // Machine-parseable Chrome trace_event JSON.
    const std::string json =
        telemetry::toJsonString(telemetry::snapshot());
    JsonChecker checker(json);
    EXPECT_TRUE(checker.document()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);

    // Every ticket crossed its own queue-wait; the render that served
    // it (its render_ticket) crossed admission and all five engine
    // stages; every recorded interval is sane.
    const std::vector<telemetry::Span> spans = telemetry::snapshot();
    EXPECT_EQ(spans.size(), telemetry::spanCount());
    EXPECT_EQ(telemetry::droppedCount(), 0u);
    const std::vector<std::string> rendered = {
        telemetry::kSpanAdmit,    telemetry::kSpanRaySetup,
        telemetry::kSpanProbes,   telemetry::kSpanPlanning,
        telemetry::kSpanTiles,    telemetry::kSpanFinalize,
    };
    for (const auto &entry : render_of) {
        const uint64_t ticket = entry.first, render = entry.second;
        EXPECT_TRUE(
            spanNamesOf(spans, ticket).count(telemetry::kSpanQueueWait))
            << "ticket " << ticket << " missing its own queue-wait";
        const std::set<std::string> names = spanNamesOf(spans, render);
        for (const std::string &want : rendered)
            EXPECT_TRUE(names.count(want))
                << "ticket " << ticket << "'s render " << render
                << " missing span " << want;
    }
    for (const auto &s : spans) {
        EXPECT_LE(s.t_start_us, s.t_end_us);
        EXPECT_NE(std::string(s.name), "");
    }

    // Every compiled-in span site is listed for tooling, and every
    // recorded name is one of them.
    std::set<std::string> known;
    for (const auto &info : telemetry::spanNames())
        known.insert(info.name);
    EXPECT_TRUE(known.count(telemetry::kSpanQueueWait));
    for (const std::string &want : rendered)
        EXPECT_TRUE(known.count(want)) << want;
    for (const auto &s : spans)
        EXPECT_TRUE(known.count(s.name)) << s.name;

    // Names are written escaped: a quote and a newline in a recorded
    // name must not break the document.
    telemetry::recordSpan("quoted \"name\"\nsecond line", 0, 0, 1, 2);
    const std::string hostile =
        telemetry::toJsonString(telemetry::snapshot());
    JsonChecker hostile_checker(hostile);
    EXPECT_TRUE(hostile_checker.document());
    EXPECT_NE(hostile.find("\"quoted \\\"name\\\"\\u000asecond line\""),
              std::string::npos);
}

TEST(Telemetry, SpanOrderingInvariants)
{
    TelemetryGuard guard;
    telemetry::setEnabled(true);

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 2;
    cfg.frames_in_flight_per_shard = 2;
    server::FrameServer srv(reg, cfg);
    const std::map<uint64_t, uint64_t> render_of = tracedRun(srv, reg, 6);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    ASSERT_EQ(render_of.size(), 6u);

    // A render's queue-wait ends no later than its first engine stage
    // starts. A frame that joined a render has no engine stages of
    // its own, and joined before that render's finalize ended.
    const std::vector<telemetry::Span> all = telemetry::snapshot();
    for (const auto &entry : render_of) {
        const uint64_t ticket = entry.first, render = entry.second;
        const std::vector<telemetry::Span> spans = spansOf(all, ticket);
        ASSERT_FALSE(spans.empty()) << "ticket " << ticket;
        uint64_t queue_end = 0;
        uint64_t first_engine = UINT64_MAX;
        for (const auto &s : spans) {
            const std::string name = s.name;
            if (name == telemetry::kSpanQueueWait)
                queue_end = std::max(queue_end, s.t_end_us);
            else if (name.rfind("engine.", 0) == 0)
                first_engine = std::min(first_engine, s.t_start_us);
        }
        EXPECT_NE(queue_end, 0u) << "ticket " << ticket;
        if (render == ticket) {
            ASSERT_NE(first_engine, UINT64_MAX) << "ticket " << ticket;
            EXPECT_LE(queue_end, first_engine) << "ticket " << ticket;
            // The engine runs a frame's stages as a chain: every span
            // of a stage ends no later than the first span of the
            // next stage starts.
            const std::string chain[] = {
                telemetry::kSpanRaySetup, telemetry::kSpanProbes,
                telemetry::kSpanPlanning, telemetry::kSpanTiles,
                telemetry::kSpanFinalize,
            };
            for (size_t k = 1; k < std::size(chain); ++k) {
                uint64_t prev_end = 0;
                uint64_t next_start = UINT64_MAX;
                for (const auto &s : spans) {
                    if (s.name == chain[k - 1])
                        prev_end = std::max(prev_end, s.t_end_us);
                    else if (s.name == chain[k])
                        next_start = std::min(next_start, s.t_start_us);
                }
                ASSERT_NE(prev_end, 0u)
                    << "ticket " << ticket << " has no " << chain[k - 1];
                ASSERT_NE(next_start, UINT64_MAX)
                    << "ticket " << ticket << " has no " << chain[k];
                EXPECT_LE(prev_end, next_start)
                    << "ticket " << ticket << ": " << chain[k - 1]
                    << " ends after " << chain[k] << " starts";
            }
            continue;
        }
        EXPECT_EQ(first_engine, UINT64_MAX)
            << "joined ticket " << ticket << " rendered on its own";
        uint64_t finalize_end = 0;
        for (const auto &s : spansOf(all, render))
            if (std::string(s.name) == telemetry::kSpanFinalize)
                finalize_end = s.t_end_us;
        ASSERT_NE(finalize_end, 0u) << "render " << render;
        EXPECT_LE(queue_end, finalize_end)
            << "ticket " << ticket << " joined render " << render
            << " after it finished";
    }

    // Scoped spans on one worker lane never overlap: each lane is one
    // thread doing one thing at a time. (Queue-wait spans are exempt:
    // their START is the submit timestamp, stamped on the submitting
    // thread, while the span is recorded by the admitting worker.)
    std::map<uint32_t, std::vector<telemetry::Span>> lanes;
    for (const auto &s : all)
        if (std::string(s.name) != telemetry::kSpanQueueWait)
            lanes[s.lane].push_back(s);
    for (auto &entry : lanes) {
        std::vector<telemetry::Span> &spans = entry.second;
        std::sort(spans.begin(), spans.end(),
                  [](const telemetry::Span &a, const telemetry::Span &b) {
                      return a.t_start_us < b.t_start_us;
                  });
        for (size_t i = 1; i < spans.size(); ++i)
            EXPECT_GE(spans[i].t_start_us, spans[i - 1].t_end_us)
                << spans[i - 1].name << " overlaps " << spans[i].name
                << " on lane " << entry.first;
    }
}

// ----------------------------------------------------- flight recorder

TEST(Telemetry, SlowFrameFlightRecorderCapturesStalledFrames)
{
    TelemetryGuard guard;
    telemetry::setEnabled(true);

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.slow_frame_ms = 10.0;
    cfg.flight_recorder_frames = 4;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Standard);
    ASSERT_NE(client, 0u);
    const uint64_t joiner =
        srv.openSession("lego", server::QosClass::Standard);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);

    // One stalled frame blows the 10ms budget; the rest stay fast. A
    // frame of the same view submitted meanwhile joins the stalled
    // render, so it is slow as well.
    fault::arm(fault::kEngineStageStall, 1.0, /*max_fires=*/1,
               /*delay_ms=*/60.0);
    const uint64_t slow_ticket = srv.submitFrame(client, cam);
    ASSERT_NE(slow_ticket, 0u);
    const uint64_t joined_ticket = srv.submitFrame(joiner, cam);
    ASSERT_NE(joined_ticket, 0u);
    srv.waitIdle();

    const server::ServerStatsSnapshot snap = srv.stats();
    EXPECT_GE(snap.slow_frame_count, 2u);
    ASSERT_FALSE(snap.slow_frames.empty());
    const server::SlowFrameRecord *rec = nullptr, *joined = nullptr;
    for (const auto &r : snap.slow_frames) {
        if (r.ticket == slow_ticket)
            rec = &r;
        if (r.ticket == joined_ticket)
            joined = &r;
    }
    ASSERT_NE(rec, nullptr) << "stalled ticket not retained";
    EXPECT_GT(rec->latency_ms, 10.0);
    EXPECT_FALSE(rec->failed);
    EXPECT_EQ(rec->render_ticket, slow_ticket);
    // The record's stage times name the stalled stage (the stall fires
    // in ray setup) and lie inside the frame's latency.
    double sum_ms = 0.0;
    for (const auto &sec : rec->stage_s)
        sum_ms += sec.value_or(0.0) * 1e3;
    ASSERT_TRUE(rec->stage_s[engine::kRaySetup].has_value());
    EXPECT_GE(*rec->stage_s[engine::kRaySetup] * 1e3, 60.0);
    EXPECT_LE(sum_ms, rec->latency_ms);

    // The joined frame's record names the render and carries the
    // render's stage times.
    ASSERT_NE(joined, nullptr) << "joined ticket not retained";
    EXPECT_EQ(joined->render_ticket, slow_ticket);
    EXPECT_EQ(joined->stage_s, rec->stage_s);

    // The stage times ride the recorder's JSON for dashboards; the
    // spans stay in the trace.
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"slow_frames\""), std::string::npos);
    EXPECT_NE(json.find("\"slow_frame_count\""), std::string::npos);
    EXPECT_NE(json.find(telemetry::kSpanRaySetup), std::string::npos);
    EXPECT_EQ(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"ticket\":" + std::to_string(joined_ticket) +
                        ",\"render_ticket\":" +
                        std::to_string(slow_ticket)),
              std::string::npos);

    // The server's slow-frame counter saw it too.
    EXPECT_GE(expositionValue(srv.metricsText(), "asdr_slow_frames_total"),
              1.0);

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    srv.closeSession(client);
    srv.closeSession(joiner);
}

TEST(Telemetry, FlightRecorderRingIsBounded)
{
    TelemetryGuard guard; // tracing stays OFF: facts still recorded

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    cfg.slow_frame_ms = 0.001; // everything is "slow"
    cfg.flight_recorder_frames = 2;
    server::FrameServer srv(reg, cfg);

    const uint64_t client =
        srv.openSession("lego", server::QosClass::Standard);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find("lego")->info, 16, 16);
    // Paused, the first frame holds its slot, so the five after it all
    // join its render: one slow render answering six tickets.
    testing::internal::CaptureStderr();
    {
        EnginePause pause(srv.engine());
        for (int f = 0; f < 6; ++f)
            EXPECT_NE(srv.submitFrame(client, cam), 0u);
    }
    srv.waitIdle();
    const std::string log = testing::internal::GetCapturedStderr();

    const server::ServerStatsSnapshot snap = srv.stats();
    EXPECT_EQ(snap.slow_frame_count, 6u); // every frame tripped it
    EXPECT_EQ(snap.slow_frames.size(), 2u); // ring keeps the last two
    // Every answered ticket has its record, but the render is dumped
    // once, naming the other tickets it answered.
    size_t dumps = 0;
    for (size_t at = log.find("slow frame:"); at != std::string::npos;
         at = log.find("slow frame:", at + 1))
        ++dumps;
    EXPECT_EQ(dumps, 1u) << log;
    EXPECT_NE(log.find("[render answered 5 other tickets]"),
              std::string::npos)
        << log;
    // The records carry facts and their render's stage times, tracing
    // on or off. The stage times lie inside the frame's latency when the
    // frame led its render; a frame that joined one may have waited
    // less than the render ran (here the ring holds two joiners).
    for (const auto &r : snap.slow_frames) {
        double sum_ms = 0.0;
        for (int k = 0; k < engine::kStages; ++k) {
            ASSERT_TRUE(r.stage_s[size_t(k)].has_value())
                << "ticket " << r.ticket << " " << engine::kStageName[k];
            EXPECT_GE(*r.stage_s[size_t(k)], 0.0);
            sum_ms += *r.stage_s[size_t(k)] * 1e3;
        }
        if (r.ticket == r.render_ticket) {
            EXPECT_LE(sum_ms, r.latency_ms) << "ticket " << r.ticket;
        }
    }
    EXPECT_NE(snap.toJson().find("\"stage_ms\":{\"engine.ray_setup\":"),
              std::string::npos);

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    srv.closeSession(client);
}

// ------------------------------------------------------- wire scrape

TEST(WireTelemetry, MetricsTextScrapeRoundTrip)
{
    TelemetryGuard guard; // tracing stays OFF: stage time is recorded

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("Lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig scfg;
    scfg.threads_per_shard = 1;
    auto srv = std::make_unique<server::FrameServer>(reg, scfg);
    auto service = std::make_unique<net::RenderService>(*srv);
    std::string err;
    ASSERT_TRUE(service->start(&err)) << err;

    net::Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", service->port(), &err)) << err;
    const uint64_t s = c.openSession("Lego", server::QosClass::Standard,
                                     net::FrameEncoding::Raw, &err);
    ASSERT_NE(s, 0u) << err;

    net::CameraSpec cs;
    const scene::SceneInfo &info = reg.find("Lego")->info;
    cs.pos = nerf::orbitPosition(info, 0.0f);
    cs.look_at = info.look_at;
    cs.fov_deg = info.fov_deg;
    cs.width = 16;
    cs.height = 16;
    for (int f = 0; f < 2; ++f) {
        ASSERT_NE(c.submitFrame(s, cs, &err), 0u) << err;
        net::ClientFrame frame;
        ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
        EXPECT_TRUE(frame.ok());
    }

    // Text scrape: the Prometheus exposition travels the wire.
    std::string text;
    ASSERT_TRUE(c.fetchMetricsText(text, &err)) << err;
    EXPECT_NE(text.find("# TYPE asdr_frames_served_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_frames_served_total{qos=\"standard\","
                        "rung=\"full\"}"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE asdr_frame_latency_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_frame_latency_seconds_bucket"),
              std::string::npos);
    // Every render's engine stage times feed per-stage duration
    // histograms, and those travel the same wire scrape.
    EXPECT_NE(text.find("# TYPE asdr_stage_duration_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("asdr_stage_duration_seconds_bucket{"
                        "stage=\"engine.phase2_tiles\",qos=\"standard\""),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE asdr_wire_frames_sent_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE asdr_wire_connections_open gauge"),
              std::string::npos);

    // The served count matches what this session just rendered, in
    // the scrape and in the typed reads of the same store.
    EXPECT_EQ(expositionValue(text, "asdr_frames_served_total{qos=\""
                                    "standard\",rung=\"full\"}"),
              2.0);
    EXPECT_EQ(srv->stats().cls[1].served, 2u);
    EXPECT_EQ(expositionValue(text, "asdr_wire_frames_sent_total"), 2.0);
    EXPECT_EQ(service->counters().frames_sent, 2u);

    c.closeSession(s, &err);
    c.disconnect();
    service.reset();
    srv.reset();
}

// --------------------------------------------------- label escaping

TEST(Metrics, LabelValuesEscapedInExposition)
{
    EXPECT_EQ(metrics::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(metrics::escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(metrics::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(metrics::escapeLabelValue("a\nb"), "a\\nb");
    EXPECT_EQ(metrics::label("scene", "a\"b"), "scene=\"a\\\"b\"");

    // A hostile scene name becomes the label of the scene's series;
    // the exposition must stay line-oriented and parseable.
    TelemetryGuard guard;
    server::SceneRegistry reg;
    const std::string hostile = "lego\"evil\\\n";
    ASSERT_NE(reg.addProcedural(hostile, "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig cfg;
    cfg.threads_per_shard = 1;
    server::FrameServer srv(reg, cfg);
    const uint64_t client =
        srv.openSession(hostile, server::QosClass::Standard);
    ASSERT_NE(client, 0u);
    const nerf::Camera cam =
        nerf::cameraForScene(reg.find(hostile)->info, 16, 16);
    ASSERT_NE(srv.submitFrame(client, cam), 0u);
    srv.waitIdle();

    const std::string text = srv.metricsText();
    // The escaped spelling is present; the raw one is not.
    EXPECT_NE(text.find("scene=\"lego\\\"evil\\\\\\n\""),
              std::string::npos);
    EXPECT_EQ(text.find("lego\"evil"), std::string::npos);
    // No exposition line may hold an odd number of quotes (a raw
    // quote or newline inside a label value splits series lines).
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        size_t quotes = 0;
        for (size_t i = 0; i < line.size(); ++i)
            if (line[i] == '"' && (i == 0 || line[i - 1] != '\\'))
                quotes++;
        EXPECT_EQ(quotes % 2, 0u) << line;
    }

    std::vector<server::FrameResult> results;
    srv.drainResults(results);
    srv.closeSession(client);
}

// ----------------------------------------- histogram bucket exposition

TEST(Metrics, HistogramBucketsAreCumulativeAndEndAtInf)
{
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("telemetrytest_bucket_shape");
    h.record(0.001);
    h.record(0.001);
    h.record(0.050);
    h.record(2.0);

    const std::string text = reg.renderText();
    std::istringstream lines(text);
    std::string line;
    uint64_t prev = 0;
    uint64_t inf_count = 0;
    int bucket_lines = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("telemetrytest_bucket_shape_bucket{", 0) != 0)
            continue;
        bucket_lines++;
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        const uint64_t cum = std::stoull(line.substr(sp + 1));
        EXPECT_GE(cum, prev) << "buckets must be cumulative: " << line;
        prev = cum;
        if (line.find("le=\"+Inf\"") != std::string::npos)
            inf_count = cum;
    }
    EXPECT_GE(bucket_lines, 4); // 3 distinct edges + the +Inf closer
    EXPECT_EQ(inf_count, h.count());
    EXPECT_NE(text.find("telemetrytest_bucket_shape_count 4"),
              std::string::npos);
}

// ------------------------------------------------- incremental cursor

TEST(Telemetry, CollectCursorDrainsOnlyNewSpans)
{
    TelemetryGuard guard;
    telemetry::setEnabled(true);

    for (uint64_t t = 1; t <= 5; ++t)
        telemetry::recordSpan(telemetry::kSpanTiles, 1, t, 10 * t,
                              10 * t + 5);

    telemetry::CollectCursor cur;
    std::vector<telemetry::Span> out;
    EXPECT_EQ(telemetry::collectNewSpans(cur, out, 1024), 5u);
    EXPECT_EQ(out.size(), 5u);
    out.clear();
    // Nothing new: the cursor advanced past everything.
    EXPECT_EQ(telemetry::collectNewSpans(cur, out, 1024), 0u);

    for (uint64_t t = 6; t <= 8; ++t)
        telemetry::recordSpan(telemetry::kSpanTiles, 1, t, 10 * t,
                              10 * t + 5);
    EXPECT_EQ(telemetry::collectNewSpans(cur, out, 1024), 3u);
    std::set<uint64_t> tickets;
    for (const auto &s : out)
        tickets.insert(s.ticket);
    EXPECT_EQ(tickets, (std::set<uint64_t>{6, 7, 8}));

    // Short reads resume where they stopped.
    for (uint64_t t = 9; t <= 12; ++t)
        telemetry::recordSpan(telemetry::kSpanTiles, 1, t, 10 * t,
                              10 * t + 5);
    out.clear();
    EXPECT_EQ(telemetry::collectNewSpans(cur, out, 2), 2u);
    EXPECT_EQ(telemetry::collectNewSpans(cur, out, 2), 2u);
    EXPECT_EQ(telemetry::collectNewSpans(cur, out, 2), 0u);

    // An independent cursor replays the full buffer from the start.
    telemetry::CollectCursor fresh;
    out.clear();
    EXPECT_EQ(telemetry::collectNewSpans(fresh, out, 1024), 12u);
}

// ------------------------------------------------------ span streaming

TEST(WireTelemetry, UnsubscribeBarrierDeliversEveryRecordedSpan)
{
    TelemetryGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("Lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig scfg;
    scfg.threads_per_shard = 1;
    auto srv = std::make_unique<server::FrameServer>(reg, scfg);
    auto service = std::make_unique<net::RenderService>(*srv);
    std::string err;
    ASSERT_TRUE(service->start(&err)) << err;

    net::Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", service->port(), &err)) << err;
    const uint64_t s = c.openSession("Lego", server::QosClass::Standard,
                                     net::FrameEncoding::Raw, &err);
    ASSERT_NE(s, 0u) << err;

    // Subscribing turns tracing on service-side when it was off.
    ASSERT_FALSE(telemetry::enabled());
    ASSERT_TRUE(c.subscribeSpans(true, &err)) << err;
    EXPECT_TRUE(telemetry::enabled());

    net::CameraSpec cs;
    const scene::SceneInfo &info = reg.find("Lego")->info;
    cs.look_at = info.look_at;
    cs.fov_deg = info.fov_deg;
    cs.width = 16;
    cs.height = 16;
    std::set<uint64_t> tickets;
    for (int f = 0; f < 3; ++f) {
        // A pose of its own per frame, so each renders: a repeat would be
        // answered from the last render and record no stage spans.
        cs.pos = nerf::orbitPosition(info, 0.1f * float(f));
        const uint64_t t = c.submitFrame(s, cs, &err);
        ASSERT_NE(t, 0u) << err;
        tickets.insert(t);
        net::ClientFrame frame;
        ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
        EXPECT_TRUE(frame.ok());
    }

    // Delivery's encode span closes on the engine completion thread
    // just after the result bytes go out, so it can land a beat after
    // nextFrame returns. Wait for the buffers to go quiescent before
    // unsubscribing -- the barrier below is about what was RECORDED
    // before the disable, not about engine scheduling.
    auto encodeSpansRecorded = [&] {
        size_t n = 0;
        for (const auto &sp : telemetry::snapshot())
            if (sp.name == std::string(telemetry::kSpanEncode) &&
                tickets.count(sp.ticket))
                n++;
        return n == tickets.size();
    };
    for (int spin = 0; spin < 400 && !encodeSpansRecorded(); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(encodeSpansRecorded());

    // The disable reply is sent after the final drain, so everything
    // recorded up to here is in hand once this returns...
    ASSERT_TRUE(c.subscribeSpans(false, &err)) << err;
    // ...and the service restored tracing off (it enabled it).
    EXPECT_FALSE(telemetry::enabled());
    EXPECT_EQ(c.spanBatchesDropped(), 0u);

    std::vector<telemetry::Span> streamed;
    c.drainSpans(streamed);

    // Streamed spans are exactly the service-side buffer contents.
    auto key = [](const std::string &name, uint64_t ticket,
                  uint64_t t0, uint64_t t1) {
        std::ostringstream os;
        os << name << "|" << ticket << "|" << t0 << "|" << t1;
        return os.str();
    };
    std::multiset<std::string> remote, local;
    for (const auto &sp : streamed)
        remote.insert(key(sp.name, sp.ticket, sp.t_start_us,
                          sp.t_end_us));
    for (const auto &sp : telemetry::snapshot())
        local.insert(key(sp.name, sp.ticket, sp.t_start_us,
                         sp.t_end_us));
    EXPECT_EQ(remote, local);

    // Full stage coverage for every served ticket.
    const std::vector<std::string> expected = {
        telemetry::kSpanQueueWait, telemetry::kSpanAdmit,
        telemetry::kSpanRaySetup,  telemetry::kSpanProbes,
        telemetry::kSpanPlanning,  telemetry::kSpanTiles,
        telemetry::kSpanFinalize,  telemetry::kSpanEncode,
    };
    for (uint64_t ticket : tickets) {
        std::set<std::string> names;
        for (const auto &sp : streamed)
            if (sp.ticket == ticket)
                names.insert(sp.name);
        for (const std::string &want : expected)
            EXPECT_TRUE(names.count(want))
                << "ticket " << ticket << " missing " << want;
    }

    // The client-side trace render is machine-parseable.
    const std::string json = telemetry::toJsonString(streamed);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.document()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    c.closeSession(s, &err);
    c.disconnect();
    service.reset();
    srv.reset();
}

namespace {

/** Every "ticket":N value in a trace_event JSON document. */
std::set<uint64_t>
ticketsInTraceJson(const std::string &json)
{
    std::set<uint64_t> out;
    const std::string needle = "\"ticket\":";
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
        const uint64_t t = std::stoull(json.substr(pos + needle.size()));
        if (t != 0)
            out.insert(t);
    }
    return out;
}

} // namespace

TEST(WireTelemetry, TraceFollowMatchesExitDumpTicketCoverage)
{
    TelemetryGuard guard;

    server::SceneRegistry reg;
    ASSERT_NE(reg.addProcedural("Lego", "Lego",
                                nerf::NgpModelConfig::fast(),
                                smallConfig()),
              nullptr);
    server::ServerConfig scfg;
    scfg.threads_per_shard = 1;
    auto srv = std::make_unique<server::FrameServer>(reg, scfg);
    auto service = std::make_unique<net::RenderService>(*srv);
    std::string err;
    ASSERT_TRUE(service->start(&err)) << err;

    // A second connection tails the spans into a growing trace file
    // while the first renders -- no server restart, no exit dump.
    const std::string path = "asdr_trace_follow_test.json";
    std::atomic<bool> stop{false};
    std::atomic<bool> follow_ok{false};
    std::string follow_err;
    const uint16_t port = service->port();
    std::thread follower([&] {
        net::Client f;
        std::string ferr;
        if (!f.connect("127.0.0.1", port, &ferr)) {
            follow_err = ferr;
            return;
        }
        follow_ok = f.followSpans(path, 30.0, &stop, &ferr);
        follow_err = ferr;
        f.disconnect();
    });

    net::Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", service->port(), &err)) << err;
    const uint64_t s = c.openSession("Lego", server::QosClass::Standard,
                                     net::FrameEncoding::Raw, &err);
    ASSERT_NE(s, 0u) << err;
    net::CameraSpec cs;
    const scene::SceneInfo &info = reg.find("Lego")->info;
    cs.pos = nerf::orbitPosition(info, 0.0f);
    cs.look_at = info.look_at;
    cs.fov_deg = info.fov_deg;
    cs.width = 16;
    cs.height = 16;
    // Give the follower a beat to attach (its subscription is what
    // turns tracing on), then render.
    for (int spin = 0; spin < 200 && !telemetry::enabled(); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(telemetry::enabled()) << follow_err;
    std::set<uint64_t> tickets;
    for (int f = 0; f < 3; ++f) {
        const uint64_t t = c.submitFrame(s, cs, &err);
        ASSERT_NE(t, 0u) << err;
        tickets.insert(t);
        net::ClientFrame frame;
        ASSERT_TRUE(c.nextFrame(frame, &err)) << err;
        EXPECT_TRUE(frame.ok());
    }

    // Same quiescence wait as the barrier test: the last encode span
    // closes on the engine completion thread a beat after delivery.
    auto encodeSpansRecorded = [&] {
        size_t n = 0;
        for (const auto &sp : telemetry::snapshot())
            if (sp.name == std::string(telemetry::kSpanEncode) &&
                tickets.count(sp.ticket))
                n++;
        return n == tickets.size();
    };
    for (int spin = 0; spin < 400 && !encodeSpansRecorded(); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(encodeSpansRecorded());

    stop = true;
    follower.join();
    EXPECT_TRUE(follow_ok.load()) << follow_err;

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string followed = buf.str();

    JsonChecker checker(followed);
    EXPECT_TRUE(checker.document()) << followed.substr(0, 400);
    EXPECT_NE(followed.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(followed.find(telemetry::kSpanFinalize),
              std::string::npos);

    // Ticket coverage equals the exit dump the server itself would
    // write: live streaming lost nothing.
    const std::set<uint64_t> followed_tickets =
        ticketsInTraceJson(followed);
    const std::set<uint64_t> dump_tickets = ticketsInTraceJson(
        telemetry::toJsonString(telemetry::snapshot()));
    EXPECT_EQ(followed_tickets, dump_tickets);
    for (uint64_t t : tickets)
        EXPECT_TRUE(followed_tickets.count(t)) << "ticket " << t;

    std::remove(path.c_str());
    c.closeSession(s, &err);
    c.disconnect();
    service.reset();
    srv.reset();
}

// ------------------------------------- concurrent flight-recorder ingest

TEST(Telemetry, FlightRecorderConcurrentIngestStaysBoundedAndRaceFree)
{
    metrics::Registry reg;
    server::ServerStats stats(reg);
    stats.setSlowFrameKeep(8);

    constexpr int kWriters = 4;
    constexpr int kPerWriter = 500;
    std::atomic<bool> done{false};
    std::atomic<bool> reader_sane{true};

    // A reader snapshots (and renders) the ring while writers race it:
    // under TSan this is the regression for torn reads of the deque.
    std::thread reader([&] {
        while (!done.load(std::memory_order_relaxed)) {
            server::ServerStatsSnapshot snap;
            stats.fill(snap);
            if (snap.slow_frames.size() > 8)
                reader_sane = false;
            const std::string json = snap.toJson();
            if (json.empty())
                reader_sane = false;
        }
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&stats, w] {
            for (int i = 0; i < kPerWriter; ++i) {
                server::SlowFrameRecord rec;
                rec.ticket = uint64_t(w) * kPerWriter + i + 1;
                rec.frame = rec.ticket;
                rec.qos = server::QosClass(w % server::kQosClasses);
                rec.latency_ms = 1.0 + i;
                rec.failed = (i % 7) == 0;
                rec.stage_s[engine::kTiles] = 5e-6 * double(i + 1);
                stats.recordSlowFrame(std::move(rec));
            }
        });
    }
    for (auto &t : writers)
        t.join();
    done = true;
    reader.join();

    EXPECT_TRUE(reader_sane.load());
    server::ServerStatsSnapshot snap;
    stats.fill(snap);
    EXPECT_EQ(snap.slow_frame_count, uint64_t(kWriters) * kPerWriter);
    EXPECT_EQ(snap.slow_frames.size(), 8u);
    for (const auto &r : snap.slow_frames)
        ASSERT_TRUE(r.stage_s[engine::kTiles].has_value());
}
