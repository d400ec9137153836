/**
 * @file
 * Streaming render trace and aggregate workload profile.
 *
 * A full frame touches tens of millions of embedding-table vertices, so
 * the trace is never stored: the renderer pushes events into TraceSink
 * implementations (cycle-level simulators, locality profilers, address
 * visualizers) that consume them online. The WorkloadProfile aggregates
 * the counts that analytic models (GPU rooflines, FLOPs breakdowns)
 * need.
 */

#ifndef ASDR_CORE_TRACE_HPP
#define ASDR_CORE_TRACE_HPP

#include <cstdint>

#include "nerf/field.hpp"

namespace asdr::core {

/** Aggregate operation counts of one rendered frame. */
struct WorkloadProfile
{
    uint64_t rays = 0;          ///< rays actually marched
    uint64_t probe_rays = 0;    ///< Phase I (adaptive sampling) rays
    /** Sampled points of the modeled pipeline (density executed at
     *  each). The host evaluates density only at samples in the
     *  occupancy grid's marked cells, plus the live anchors outside
     *  them, so it runs fewer than this counts. */
    uint64_t points = 0;
    /** Density-network executions of the modeled pipeline: one per
     *  sampled point, evaluated on the host or not (see `points`). */
    uint64_t density_execs = 0;
    /** Color-network executions of the modeled pipeline: every anchor.
     *  The batched host path evaluates only the live ones (the anchor or
     *  a point interpolated from it has nonzero sigma), so on that path
     *  this counts more than the host runs. */
    uint64_t color_execs = 0;
    uint64_t approx_colors = 0; ///< colors produced by interpolation
    uint64_t lookups = 0;       ///< embedding-table vertex lookups

    void
    merge(const WorkloadProfile &o)
    {
        rays += o.rays;
        probe_rays += o.probe_rays;
        points += o.points;
        density_execs += o.density_execs;
        color_execs += o.color_execs;
        approx_colors += o.approx_colors;
        lookups += o.lookups;
    }

    double
    encodeFlops(const nerf::FieldCosts &costs) const
    {
        return double(points) * costs.encode_flops;
    }
    double
    densityFlops(const nerf::FieldCosts &costs) const
    {
        return double(density_execs) * costs.density_flops;
    }
    double
    colorFlops(const nerf::FieldCosts &costs) const
    {
        return double(color_execs) * costs.color_flops;
    }
    double
    totalFlops(const nerf::FieldCosts &costs) const
    {
        return encodeFlops(costs) + densityFlops(costs) + colorFlops(costs);
    }
    /** Bytes fetched from embedding tables (pre-cache). */
    double
    lookupBytes(const nerf::FieldCosts &costs, int bytes_per_feature = 4,
                int features = 2) const
    {
        (void)costs;
        return double(lookups) * double(features) * double(bytes_per_feature);
    }
};

/**
 * Streaming consumer of render events. All hooks have empty defaults so
 * a sink overrides only what it needs. Events arrive in render order:
 * frameBegin, then per ray (rayBegin, per point: pointLookups +
 * densityExec, colorExec for computed colors, rayEnd), frameEnd.
 */
class TraceSink : public nerf::LookupSink
{
  public:
    virtual void onFrameBegin(int width, int height) { (void)width; (void)height; }
    /** `probe` marks Phase I adaptive-sampling rays. */
    virtual void onRayBegin(int px, int py, bool probe)
    {
        (void)px; (void)py; (void)probe;
    }
    void onPointLookups(const nerf::VertexLookup *lookups,
                        size_t count) override
    {
        (void)lookups; (void)count;
    }
    virtual void onDensityExec() {}
    virtual void onColorExec() {}
    virtual void onApproxColor() {}
    virtual void onRayEnd() {}
    virtual void onFrameEnd() {}
};

/** Fan-out: broadcasts each event to several sinks (one render pass can
 *  feed the accelerator model and a locality profiler simultaneously). */
class MultiSink : public TraceSink
{
  public:
    void add(TraceSink *sink) { sinks_.push_back(sink); }

    void
    onFrameBegin(int w, int h) override
    {
        for (auto *s : sinks_)
            s->onFrameBegin(w, h);
    }
    void
    onRayBegin(int px, int py, bool probe) override
    {
        for (auto *s : sinks_)
            s->onRayBegin(px, py, probe);
    }
    void
    onPointLookups(const nerf::VertexLookup *lookups, size_t count) override
    {
        for (auto *s : sinks_)
            s->onPointLookups(lookups, count);
    }
    void
    onDensityExec() override
    {
        for (auto *s : sinks_)
            s->onDensityExec();
    }
    void
    onColorExec() override
    {
        for (auto *s : sinks_)
            s->onColorExec();
    }
    void
    onApproxColor() override
    {
        for (auto *s : sinks_)
            s->onApproxColor();
    }
    void
    onRayEnd() override
    {
        for (auto *s : sinks_)
            s->onRayEnd();
    }
    void
    onFrameEnd() override
    {
        for (auto *s : sinks_)
            s->onFrameEnd();
    }

  private:
    std::vector<TraceSink *> sinks_;
};

} // namespace asdr::core

#endif // ASDR_CORE_TRACE_HPP
