#include "core/renderer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "core/color_approximator.hpp"
#include "engine/frame_engine.hpp"
#include "nerf/volume_render.hpp"
#include "util/exp_batch.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"

namespace asdr::core {

AsdrRenderer::AsdrRenderer(const nerf::RadianceField &field,
                           const RenderConfig &cfg)
    : field_(field), cfg_(cfg), sampler_(cfg),
      lookups_per_point_(field.costs().lookups_per_point),
      grid_(std::make_shared<GridSlot>())
{
    ASDR_ASSERT(cfg.samples_per_ray >= 2, "need at least 2 samples per ray");
    ASDR_ASSERT(cfg.approx_group >= 1, "approximation group must be >= 1");
    probe_align_ =
        sampler_.subsetAlignment(cfg.samples_per_ray, anchorGroup());
}

AsdrRenderer::AsdrRenderer(const AsdrRenderer &base, const RenderConfig &cfg)
    : AsdrRenderer(base.field_, cfg)
{
    ASDR_ASSERT(cfg.sigma_floor == base.cfg_.sigma_floor,
                "a renderer sharing an occupancy grid needs its floor");
    grid_ = base.grid_;
}

// Out of line: engine::FrameEngine is incomplete in the header.
AsdrRenderer::~AsdrRenderer() = default;

namespace {

/** One workspace per worker thread, shared by Phase I probe rows and
 *  Phase II tiles (and, through `shade`, by the scalar oracle). */
AsdrRenderer::TileWorkspace &
threadWorkspace()
{
    thread_local AsdrRenderer::TileWorkspace tws;
    return tws;
}

} // namespace

const OccupancyGrid &
AsdrRenderer::occupancy() const
{
    GridSlot &slot = *grid_;
    if (!slot.built) {
        std::lock_guard<std::mutex> lock(slot.m);
        if (!slot.built) {
            slot.grid = OccupancyGrid::build(field_, cfg_.sigma_floor);
            slot.built = true;
        }
    }
    return slot.grid;
}

void
AsdrRenderer::TileWorkspace::clear()
{
    rays.clear();
    px.clear();
    py.clear();
    budget.clear();
}

void
AsdrRenderer::TileWorkspace::add(const nerf::Camera &camera, int x, int y,
                                 int samples)
{
    px.push_back(x);
    py.push_back(y);
    budget.push_back(samples);
    rays.push_back(camera.ray(float(x) + 0.5f, float(y) + 0.5f));
}

AsdrRenderer::RayResult
AsdrRenderer::renderRay(const nerf::Ray &ray, int budget, bool probe,
                        RayWorkspace &ws, WorkloadProfile &profile,
                        TraceSink *sink) const
{
    RayResult result;
    result.color = Vec3(0.0f);

    float t0, t1;
    if (!intersectUnitCube(ray, t0, t1) || budget < 1)
        return result;
    result.hit_volume = true;

    const int n = budget;
    const float dt = (t1 - t0) / float(n);

    ws.positions.resize(size_t(n));
    ws.sigma.resize(size_t(n));
    ws.store_index.resize(size_t(n));
    ws.store.clear();
    ws.colors.resize(size_t(n));
    const OccupancyGrid &grid = occupancy();

    // ---- density pass (with early termination), point at a time; the
    // sink sees every modeled sample, evaluated on the host or not ----
    const bool use_et = cfg_.early_termination && !probe;
    int cut = n;
    float transmittance = 1.0f;
    for (int i = 0; i < n; ++i) {
        const Vec3 pos = marchPoint(ray, t0, dt, i);
        ws.positions[size_t(i)] = pos;
        if (sink) {
            field_.traceLookups(pos, *sink);
            sink->onDensityExec();
        }
        // Empty space: sigma 0 in unmarked cells, and below the floor.
        float sigma = 0.0f;
        ws.store_index[size_t(i)] = -1;
        if (grid.occupied(pos)) {
            ws.store_index[size_t(i)] = int(ws.store.size());
            ws.store.push_back(field_.density(pos));
            sigma = ws.store.back().sigma;
            if (sigma < cfg_.sigma_floor)
                sigma = 0.0f;
        }
        ws.sigma[size_t(i)] = sigma;

        if (use_et) {
            transmittance *= 1.0f - nerf::alphaFromSigma(sigma, dt);
            if (transmittance < cfg_.et_eps) {
                cut = i + 1;
                break;
            }
        }
    }
    result.points_used = cut;
    countRay(cut, profile);

    shadePoints(ray, ws.positions.data(), ws.store_index.data(),
                ws.store.data(), ws.sigma.data(), ws.colors.data(), cut,
                /*scalar=*/true, ws, sink);
    // ---- RGB unit: Eq. (1) compositing ----
    result.color =
        nerf::composite(ws.sigma.data(), ws.colors.data(), cut, dt).color;
    return result;
}

void
AsdrRenderer::countRay(int cut, WorkloadProfile &profile) const
{
    const int anchors = ColorApproximator::anchorCount(cut, anchorGroup());
    profile.points += uint64_t(cut);
    profile.density_execs += uint64_t(cut);
    profile.lookups += uint64_t(cut) * uint64_t(lookups_per_point_);
    profile.color_execs += uint64_t(anchors);
    profile.approx_colors += uint64_t(cut - anchors);
}

void
AsdrRenderer::shadePoints(const nerf::Ray &ray, const Vec3 *positions,
                          const int *store_index,
                          const nerf::DensityOutput *store,
                          const float *sigma, Vec3 *colors, int count,
                          bool scalar, RayWorkspace &ws,
                          TraceSink *sink) const
{
    // ---- color pass at anchors ----
    ColorApproximator::anchorIndices(count, anchorGroup(), ws.anchors);
    const int na = int(ws.anchors.size());
    ws.shaded.resize(size_t(na));
    int live = 0;
    // A nonzero sigma strictly between the previous anchor and this
    // one (gap_before) or this one and the next (gap_after).
    bool gap_before = false;
    for (int k = 0; k < na; ++k) {
        const int a = ws.anchors[size_t(k)];
        const int next = k + 1 < na ? ws.anchors[size_t(k + 1)] : a;
        bool gap_after = false;
        for (int i = a + 1; i < next && !gap_after; ++i)
            gap_after = sigma[i] != 0.0f;
        const bool is_live = gap_before || sigma[a] != 0.0f || gap_after;
        gap_before = gap_after;
        const Vec3 &pos = positions[size_t(a)];
        // An unshaded anchor's color is set to 0, not left as an earlier
        // ray wrote it: compositing multiplies it by alpha = 0, and
        // 0 * NaN is NaN.
        if (scalar) {
            if (store_index[a] >= 0)
                colors[size_t(a)] =
                    field_.color(pos, ray.dir, store[store_index[a]]);
            else if (is_live)
                colors[size_t(a)] =
                    field_.color(pos, ray.dir, field_.density(pos));
            else
                colors[size_t(a)] = Vec3(0.0f);
            if (sink)
                sink->onColorExec();
        } else if (is_live) {
            ws.shaded[size_t(live++)] = a;
        } else {
            colors[size_t(a)] = Vec3(0.0f);
        }
    }
    if (live > 0) {
        // The live anchors without a density output go first: their
        // density is evaluated now.
        const auto held =
            std::partition(ws.shaded.begin(), ws.shaded.begin() + live,
                           [&](int a) { return store_index[a] < 0; });
        const int skipped = int(held - ws.shaded.begin());
        ws.anchor_pos.resize(size_t(live));
        ws.anchor_den.resize(size_t(live));
        ws.anchor_col.resize(size_t(live));
        for (int k = 0; k < live; ++k)
            ws.anchor_pos[size_t(k)] = positions[size_t(ws.shaded[size_t(k)])];
        for (int k = skipped; k < live; ++k)
            ws.anchor_den[size_t(k)] = store[store_index[ws.shaded[size_t(k)]]];
        if (skipped > 0)
            field_.densityBatch(ws.anchor_pos.data(), skipped,
                                ws.anchor_den.data());
        field_.colorBatch(ws.anchor_pos.data(), ray.dir,
                          ws.anchor_den.data(), live, ws.anchor_col.data());
        for (int k = 0; k < live; ++k)
            colors[size_t(ws.shaded[size_t(k)])] = ws.anchor_col[size_t(k)];
    }
    // ---- approximation unit fills the gaps ----
    int filled = ColorApproximator::interpolate(colors, ws.anchors, count);
    if (sink)
        for (int i = 0; i < filled; ++i)
            sink->onApproxColor();
}

void
AsdrRenderer::marchRays(TileWorkspace &tws, bool probe,
                        WorkloadProfile &profile) const
{
    const int R = int(tws.rays.size());
    const bool use_et = cfg_.early_termination && !probe;
    // Transmittance is exactly 1 before a ray's range, so the range moves
    // no cut -- unless et_eps > 1, where transmittance 1 cuts every ray
    // at its first sample: such rays march whole.
    const bool clip = !(use_et && cfg_.et_eps > 1.0f);
    // A range starts at an anchor and ends at one, so its anchors are the
    // ray's own; a probe ray's range also starts at a multiple of every
    // subset stride, so selectCount's subsets keep their indices.
    const int group = anchorGroup();
    const int align = probe ? probe_align_ : group;
    // Past the first anchor at or after sample `last` of a ray of `count`
    // samples: the next multiple of the group, or the ray's last sample
    // where that comes first.
    const auto anchorEnd = [group](int last, int count) {
        const int rem = last % group;
        return rem == 0                     ? last + 1
               : group - rem < count - last ? last + group - rem + 1
                                            : count;
    };

    // ---- per-ray march setup (identical formulas to renderRay) ----
    tws.n.assign(size_t(R), 0);
    tws.t0.assign(size_t(R), 0.0f);
    tws.dt.assign(size_t(R), 0.0f);
    tws.lo.assign(size_t(R), 0);
    tws.hi.assign(size_t(R), 0);
    tws.offset.assign(size_t(R), 0);
    tws.cut.assign(size_t(R), 0);
    tws.transmittance.assign(size_t(R), 1.0f);
    tws.color.assign(size_t(R), Vec3(0.0f));
    tws.marching.clear();
    const OccupancyGrid &grid = occupancy();
    int total = 0;
    // The marching rays' first range start and last range end.
    int start = std::numeric_limits<int>::max(), reach = 0;
    for (int r = 0; r < R; ++r) {
        const size_t ri = size_t(r);
        const nerf::Ray &ray = tws.rays[ri];
        const int bud = tws.budget[ri];
        float a, b;
        tws.offset[ri] = total;
        if (!nerf::intersectUnitCube(ray, a, b) || bud < 1)
            continue;
        const float dt = (b - a) / float(bud);
        tws.n[ri] = bud;
        tws.cut[ri] = bud;
        tws.t0[ri] = a;
        tws.dt[ri] = dt;
        const OccupancyGrid::SampleRange s =
            clip ? grid.sampleRange(ray, a, dt, bud)
                 : OccupancyGrid::SampleRange{0, bud};
        if (s.lo == s.hi)
            continue; // no sample can be marked: not marched, not shaded
        tws.lo[ri] = s.lo - s.lo % align;
        tws.hi[ri] = anchorEnd(s.hi - 1, bud);
        tws.marching.push_back(r);
        start = std::min(start, tws.lo[ri]);
        reach = std::max(reach, tws.hi[ri]);
        total += tws.hi[ri] - tws.lo[ri];
    }
    tws.positions.resize(size_t(total));
    tws.sigma.resize(size_t(total));
    tws.alpha.resize(size_t(total));
    tws.store_index.resize(size_t(total));
    tws.colors.resize(size_t(total));
    // A band stages fewer than eval_batch marked samples before its last
    // depth and at most one per marching ray at it.
    const size_t band_cap = size_t(cfg_.eval_batch) + tws.marching.size();
    tws.batch_pos.resize(band_cap);
    tws.batch_slot.resize(band_cap);
    tws.batch_exp.resize(band_cap);

    // ---- depth-major banded density pass over the rays' ranges: a band
    // takes every marching ray's sample at one depth after another, in
    // staging order, so consecutive batch points are spatially adjacent
    // and share hash-table cache lines. Samples in unmarked cells join
    // no batch; their sigma and alpha read 0, as the floor would make
    // them. The band closes once it holds eval_batch marked samples, so
    // batches stay wide however few of the rays' samples the grid keeps.
    // A ray's sample at depth d sits at slot offset + d - lo of the flat
    // buffers.
    int stored = 0; // store rows written by this march
    int d0 = 0;
    while (!tws.marching.empty()) {
        // The band starts where the first marching range does, at the
        // earliest, and can reach as deep as the last one ends.
        d0 = std::max(d0, start);
        int bn = 0;
        int d1 = d0;
        do {
            // Every sample is written into the next batch row, and only
            // a marked one advances past it.
            for (int r : tws.marching) {
                const size_t ri = size_t(r);
                if (d1 < tws.lo[ri] || d1 >= tws.hi[ri])
                    continue;
                const int slot = tws.offset[ri] + (d1 - tws.lo[ri]);
                const Vec3 pos =
                    marchPoint(tws.rays[ri], tws.t0[ri], tws.dt[ri], d1);
                const bool marked = grid.occupied(pos);
                tws.positions[size_t(slot)] = pos;
                tws.store_index[size_t(slot)] = marked ? stored + bn : -1;
                tws.sigma[size_t(slot)] = 0.0f;
                tws.alpha[size_t(slot)] = 0.0f;
                tws.batch_pos[size_t(bn)] = pos;
                tws.batch_slot[size_t(bn)] = slot;
                tws.batch_exp[size_t(bn)] = tws.dt[ri];
                bn += int(marked);
            }
            ++d1;
        } while (d1 < reach && bn < cfg_.eval_batch);
        if (tws.store.size() < size_t(stored + bn))
            tws.store.resize(size_t(stored + bn));
        if (bn > 0)
            field_.densityBatch(tws.batch_pos.data(), bn,
                                tws.store.data() + stored);
        // The floor, then the marked samples' alphas: alphaFromSigma's
        // 1 - exp(-sigma * dt), the band's exps in one expBatch call,
        // which returns std::exp's bits. A floored sigma gives
        // 1 - exp(-0) = +0, as alphaFromSigma returns.
        float *e = tws.batch_exp.data();
        for (int k = 0; k < bn; ++k) {
            float sigma = tws.store[size_t(stored + k)].sigma;
            sigma = sigma < cfg_.sigma_floor ? 0.0f : sigma;
            tws.sigma[size_t(tws.batch_slot[size_t(k)])] = sigma;
            e[k] = -sigma * e[k];
        }
        expBatch(e, bn, e);
        for (int k = 0; k < bn; ++k)
            tws.alpha[size_t(tws.batch_slot[size_t(k)])] = 1.0f - e[k];
        stored += bn;

        // Early-termination scan over the band, for the rays still
        // marching only; the cut lands at exactly renderRay's index
        // (points of this band past the cut are host slack, not
        // workload). A ray leaves the list at its cut or the end of its
        // range.
        size_t still = 0;
        start = std::numeric_limits<int>::max();
        reach = 0;
        for (int r : tws.marching) {
            const size_t ri = size_t(r);
            const int lo = tws.lo[ri];
            const float *alpha = tws.alpha.data() + tws.offset[ri];
            const int end = std::min(d1, tws.hi[ri]);
            float transmittance = tws.transmittance[ri];
            bool done = end == tws.hi[ri];
            if (use_et) {
                for (int d = std::max(d0, lo); d < end; ++d) {
                    transmittance *= 1.0f - alpha[d - lo];
                    if (transmittance < cfg_.et_eps) {
                        tws.cut[ri] = d + 1;
                        done = true;
                        break;
                    }
                }
            }
            tws.transmittance[ri] = transmittance;
            if (!done) {
                tws.marching[still++] = r;
                start = std::min(start, lo);
                reach = std::max(reach, tws.hi[ri]);
            }
        }
        tws.marching.resize(still);
        d0 = d1;
    }

    // ---- narrow each range to its lit span and shade it; the work
    // charged is exactly what the modeled pipeline executes over the
    // whole ray up to the cut, whether the host skipped it or not ----
    for (int r = 0; r < R; ++r) {
        const size_t ri = size_t(r);
        if (tws.n[ri] == 0)
            continue;
        const int cut = tws.cut[ri];
        countRay(cut, profile);
        // From the first nonzero sigma to the last one before the cut,
        // rounded out as the range was; every sigma outside is 0.
        const int lo = tws.lo[ri];
        const float *sigma = tws.sigma.data() + tws.offset[ri];
        int first = lo, end = std::min(cut, tws.hi[ri]);
        while (first < end && sigma[first - lo] == 0.0f)
            ++first;
        while (end > first && sigma[end - 1 - lo] == 0.0f)
            --end;
        if (first == end) {
            // Unlit: every alpha is 0, so the color is exactly 0 and no
            // anchor is live.
            tws.hi[ri] = lo;
            continue;
        }
        tws.lo[ri] = first - first % align;
        tws.hi[ri] = anchorEnd(end - 1, cut);
        tws.offset[ri] += tws.lo[ri] - lo;
        const int off = tws.offset[ri];
        const int count = tws.hi[ri] - tws.lo[ri];
        shadePoints(tws.rays[ri], tws.positions.data() + off,
                    tws.store_index.data() + off, tws.store.data(),
                    tws.sigma.data() + off, tws.colors.data() + off, count,
                    /*scalar=*/false, tws.shade, nullptr);
        tws.color[ri] = nerf::compositeAlphas(tws.alpha.data() + off,
                                              tws.colors.data() + off, count)
                            .color;
    }
}

FrameShape
AsdrRenderer::frameShape(int w, int h) const
{
    FrameShape s;
    s.adaptive = cfg_.adaptive_sampling;
    if (s.adaptive)
        AdaptiveSampler::probeGridDims(w, h, cfg_.probe_stride, s.gw, s.gh);
    s.scalar = cfg_.eval_batch <= 1;
    const int T = std::max(1, cfg_.tile_size);
    s.tiles_x = (w + T - 1) / T;
    s.tiles_y = (h + T - 1) / T;
    s.jobs = s.scalar ? h : s.tiles_x * s.tiles_y;
    return s;
}

void
AsdrRenderer::beginFrame(FrameState &fs) const
{
    // The engine stamps `start` at submission (queue wait counts
    // toward the frame's wall clock); traced renders reach here with
    // it unset.
    if (fs.start == std::chrono::steady_clock::time_point())
        fs.start = std::chrono::steady_clock::now();
    occupancy(); // the renderer's first frame builds the grid
    const int w = fs.camera.width();
    const int h = fs.camera.height();
    // The engine derives the shape once at admission (its stages are
    // sized from it) and stores it into fs; only non-engine frames
    // (traced renders) reach here without one.
    if (fs.shape.jobs == 0) {
        fs.shape = frameShape(w, h);
        if (fs.sink) { // traced renders run the oracle in pixel order
            fs.shape.scalar = true;
            fs.shape.jobs = h;
        }
    }
    fs.img = Image(w, h);
    fs.budget_map.assign(size_t(w) * size_t(h),
                         float(cfg_.samples_per_ray));
    fs.actual_map.assign(size_t(w) * size_t(h), 0.0f);
    fs.probed.assign(size_t(w) * size_t(h), 0);
    if (fs.shape.adaptive) {
        fs.probe_counts.assign(size_t(fs.shape.gw) * size_t(fs.shape.gh),
                               cfg_.samples_per_ray);
        fs.probe_profiles.assign(size_t(fs.shape.gh), WorkloadProfile{});
    }
    fs.job_profiles.assign(size_t(fs.shape.jobs), WorkloadProfile{});
    fs.tile_order.resize(size_t(fs.shape.jobs));
    std::iota(fs.tile_order.begin(), fs.tile_order.end(), 0);
}

void
AsdrRenderer::probeRow(FrameState &fs, int gy) const
{
    // Phase I: probe every d-th pixel with the full budget, early
    // termination off. Every (gx, gy) cell maps to a unique pixel
    // (floor((h-1)/d)*d <= h-1), so rows write disjoint outputs;
    // per-row profiles are merged in row order by finalizeFrame.
    const int w = fs.camera.width();
    const int h = fs.camera.height();
    const int ns = cfg_.samples_per_ray;
    const int gw = fs.shape.gw;
    WorkloadProfile &rp = fs.probe_profiles[size_t(gy)];
    TileWorkspace &tws = threadWorkspace();
    tws.clear();
    for (int gx = 0; gx < gw; ++gx) {
        int px, py;
        AdaptiveSampler::probePixel(gx, gy, cfg_.probe_stride, w, h, px, py);
        tws.add(fs.camera, px, py, ns);
    }
    rp.rays += uint64_t(gw);
    rp.probe_rays += uint64_t(gw);

    // A probe pixel keeps its full-budget color (the hardware holds it
    // in the render buffer already) and plans its cell's budget.
    auto record = [&](int gx, const Vec3 &color, int points, int chosen) {
        const int px = tws.px[size_t(gx)];
        const int py = tws.py[size_t(gx)];
        fs.probe_counts[size_t(gy) * gw + gx] = chosen;
        fs.img.at(px, py) = color;
        fs.probed[size_t(py) * w + px] = 1;
        fs.budget_map[size_t(py) * w + px] = float(chosen);
        fs.actual_map[size_t(py) * w + px] = float(points);
    };
    if (fs.shape.scalar) {
        RayWorkspace &ws = tws.shade;
        for (int gx = 0; gx < gw; ++gx) {
            const nerf::Ray &ray = tws.rays[size_t(gx)];
            if (fs.sink)
                fs.sink->onRayBegin(tws.px[size_t(gx)], tws.py[size_t(gx)],
                                    /*probe=*/true);
            const RayResult rr =
                renderRay(ray, ns, /*probe=*/true, ws, rp, fs.sink);
            if (fs.sink)
                fs.sink->onRayEnd();
            int chosen = cfg_.min_samples;
            if (rr.hit_volume) {
                float t0, t1;
                intersectUnitCube(ray, t0, t1);
                chosen = sampler_.selectCount(ws.sigma.data(),
                                              ws.colors.data(), ns, ns,
                                              (t1 - t0) / float(ns));
            }
            record(gx, rr.color, rr.points_used, chosen);
        }
        return;
    }
    // Batched: the whole row in one march; each ray's sigma/color
    // segment over its lit span stays in the workspace for the
    // difficulty evaluation (an unlit ray's empty span composites to 0
    // at every stride, as its sigma 0 would).
    marchRays(tws, /*probe=*/true, rp);
    for (int gx = 0; gx < gw; ++gx) {
        const size_t r = size_t(gx);
        const int off = tws.offset[r];
        const int count = tws.hi[r] - tws.lo[r];
        const int chosen =
            tws.n[r] > 0
                ? sampler_.selectCount(tws.sigma.data() + off,
                                       tws.colors.data() + off, count,
                                       tws.n[r], tws.dt[r])
                : cfg_.min_samples;
        record(gx, tws.color[r], tws.cut[r], chosen);
    }
}

void
AsdrRenderer::planBudgets(FrameState &fs) const
{
    if (!fs.shape.adaptive)
        return;
    const int w = fs.camera.width();
    const int h = fs.camera.height();
    fs.budgets = sampler_.interpolateCounts(fs.probe_counts, fs.shape.gw,
                                            fs.shape.gh, w, h);
    if (fs.shape.scalar)
        return;
    // A tile's planned samples predict its march time (correlation 0.96
    // on fitted NGP Lego), so the engine, which hands out indices in
    // order, starts the heaviest tiles first and ends the stage on
    // light ones instead of on a heavy straggler.
    const int T = std::max(1, cfg_.tile_size);
    std::vector<int64_t> cost(size_t(fs.shape.jobs), 0);
    for (int t = 0; t < fs.shape.jobs; ++t) {
        const int x0 = (t % fs.shape.tiles_x) * T;
        const int y0 = (t / fs.shape.tiles_x) * T;
        for (int y = y0; y < std::min(y0 + T, h); ++y)
            for (int x = x0; x < std::min(x0 + T, w); ++x)
                if (!fs.probed[size_t(y) * w + x])
                    cost[size_t(t)] += fs.budgets[size_t(y) * w + x];
    }
    // Largest planned cost first, ties in index order.
    std::sort(fs.tile_order.begin(), fs.tile_order.end(), [&](int a, int b) {
        const int64_t ca = cost[size_t(a)], cb = cost[size_t(b)];
        return ca != cb ? ca > cb : a < b;
    });
}

void
AsdrRenderer::phase2Job(FrameState &fs, int j) const
{
    // Phase II: render every remaining pixel with its budget. The
    // batched path marches one Morton tile (cache-line reuse across
    // adjacent rays); the scalar oracle walks one image row in pixel
    // order. Frames are bit-identical either way, whichever index
    // claimed which job.
    const int w = fs.camera.width();
    const int h = fs.camera.height();
    const bool adaptive = fs.shape.adaptive;
    const int job = fs.tile_order[size_t(j)];
    WorkloadProfile &jp = fs.job_profiles[size_t(job)];
    TileWorkspace &tws = threadWorkspace();
    tws.clear();
    auto stage = [&](int x, int y) {
        if (adaptive && fs.probed[size_t(y) * w + x])
            return;
        tws.add(fs.camera, x, y,
                adaptive ? fs.budgets[size_t(y) * w + x]
                         : cfg_.samples_per_ray);
    };
    if (fs.shape.scalar) {
        for (int x = 0; x < w; ++x)
            stage(x, job);
        const int R = int(tws.rays.size());
        tws.color.resize(size_t(R));
        tws.cut.resize(size_t(R));
        for (int r = 0; r < R; ++r) {
            if (fs.sink)
                fs.sink->onRayBegin(tws.px[size_t(r)], tws.py[size_t(r)],
                                    /*probe=*/false);
            const RayResult rr =
                renderRay(tws.rays[size_t(r)], tws.budget[size_t(r)],
                          /*probe=*/false, tws.shade, jp, fs.sink);
            if (fs.sink)
                fs.sink->onRayEnd();
            tws.color[size_t(r)] = rr.color;
            tws.cut[size_t(r)] = rr.points_used;
        }
    } else {
        const int T = std::max(1, cfg_.tile_size);
        const int x0 = (job % fs.shape.tiles_x) * T;
        const int y0 = (job / fs.shape.tiles_x) * T;
        forEachMorton2D(std::min(T, w - x0), std::min(T, h - y0),
                        [&](int ux, int uy) { stage(x0 + ux, y0 + uy); });
        marchRays(tws, /*probe=*/false, jp);
    }

    // ---- scatter back to pixel order ----
    const int R = int(tws.rays.size());
    jp.rays += uint64_t(R);
    for (int r = 0; r < R; ++r) {
        const int x = tws.px[size_t(r)];
        const int y = tws.py[size_t(r)];
        fs.img.at(x, y) = tws.color[size_t(r)];
        fs.budget_map[size_t(y) * w + x] = float(tws.budget[size_t(r)]);
        fs.actual_map[size_t(y) * w + x] = float(tws.cut[size_t(r)]);
    }
}

void
AsdrRenderer::finalizeFrame(FrameState &fs, RenderStats *stats) const
{
    if (!stats)
        return;
    WorkloadProfile profile;
    for (const auto &rp : fs.probe_profiles)
        profile.merge(rp);
    for (const auto &jp : fs.job_profiles)
        profile.merge(jp);
    stats->profile = profile;
    double budget_sum = 0.0, actual_sum = 0.0;
    for (float c : fs.budget_map)
        budget_sum += c;
    for (float c : fs.actual_map)
        actual_sum += c;
    const double pixels = double(fs.budget_map.size());
    stats->avg_points_per_pixel = budget_sum / pixels;
    stats->avg_actual_points_per_pixel = actual_sum / pixels;
    stats->sample_count_map = std::move(fs.budget_map);
    stats->actual_points_map = std::move(fs.actual_map);
    stats->wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - fs.start)
                              .count();
}

Image
AsdrRenderer::renderTraced(const nerf::Camera &camera, RenderStats *stats,
                           TraceSink &sink) const
{
    // Serial in-thread render over the same stage functions the engine
    // pipelines: trace sinks observe a strictly ordered per-point event
    // stream, so stages run one after another on this thread and the
    // attached sink puts both phases on the scalar oracle in pixel
    // order (beginFrame).
    FrameState fs(camera);
    fs.sink = &sink;
    beginFrame(fs);
    sink.onFrameBegin(camera.width(), camera.height());
    if (fs.shape.adaptive)
        for (int gy = 0; gy < fs.shape.gh; ++gy)
            probeRow(fs, gy);
    planBudgets(fs);
    for (int j = 0; j < fs.shape.jobs; ++j)
        phase2Job(fs, j);
    sink.onFrameEnd();
    finalizeFrame(fs, stats);
    return std::move(fs.img);
}

Image
AsdrRenderer::render(const nerf::Camera &camera, RenderStats *stats,
                     TraceSink *sink) const
{
    if (sink)
        return renderTraced(camera, stats, *sink);

    // Thin synchronous facade over the streaming engine: the workers
    // persist across render() calls instead of being rebuilt per
    // frame, and one frame's stages flow through the same stage chain
    // the pipelined path uses (max_frames_in_flight = 1 here -- the
    // caller blocks on the frame anyway).
    std::call_once(engine_once_, [&] {
        engine::EngineConfig ec;
        ec.num_threads = cfg_.num_threads;
        ec.max_frames_in_flight = 1;
        engine_ = std::make_unique<engine::FrameEngine>(ec);
    });
    engine::FrameRequest req(camera);
    req.renderer = this;
    engine::Frame frame = engine_->submit(std::move(req)).get();
    if (stats)
        *stats = std::move(frame.stats);
    return std::move(frame.image);
}

} // namespace asdr::core
