/**
 * @file
 * The two-phase ASDR renderer (paper §5.5 dataflow, in software):
 *
 * Phase I  (when adaptive sampling is on): probe every d-th pixel with
 *          the full ns samples, evaluate the Eq. (3) rendering
 *          difficulty on strided subsets, and choose per-pixel budgets;
 *          budgets for unprobed pixels come from bilinear interpolation.
 * Phase II render every remaining pixel with its budget. Per ray the
 *          pipeline is density-first: (1) density network for all points
 *          with optional early termination, (2) color network at group
 *          anchors only (when the approximation is on), (3) linear
 *          interpolation of missing colors, (4) Eq. (1) compositing --
 *          exactly the hardware's engine ordering, so software counts
 *          and simulated cycles describe the same work. The counts
 *          (WorkloadProfile) are the modeled pipeline's: step (2) counts
 *          every anchor. The batched host path runs the color network
 *          only at anchors that can reach the pixel, where the anchor
 *          or a point interpolated from it has nonzero sigma; the
 *          others composite with alpha = 0, so skipping them leaves the
 *          frame bit-identical.
 *
 * Host execution has one batched path and one scalar oracle. The batched
 * path stages a list of rays -- one Phase I probe row, or one Phase II
 * tile walked along a Z-curve -- and marches them depth-major through
 * the field's batch API (marchRays), so each density batch holds
 * adjacent rays at similar depths. Probe rows march with early
 * termination off; tiles cut each ray at exactly the index the oracle
 * would. The scalar oracle (renderRay) evaluates one point at a time in
 * pixel order; it runs when a trace sink is attached, so the event
 * stream keeps the seed ordering, or when eval_batch <= 1. Probe rows
 * and tiles are jobs over a thread pool with per-thread workspaces,
 * merged in index order. Frames are bit-identical for every thread
 * count, tile size and batch size, and to the scalar oracle.
 */

#ifndef ASDR_CORE_RENDERER_HPP
#define ASDR_CORE_RENDERER_HPP

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "core/adaptive_sampler.hpp"
#include "core/render_config.hpp"
#include "core/trace.hpp"
#include "image/image.hpp"
#include "nerf/camera.hpp"
#include "nerf/field.hpp"

namespace asdr::engine {
class FrameEngine;
}

namespace asdr::core {

/** Everything a render pass reports besides the image itself. */
struct RenderStats
{
    WorkloadProfile profile;
    /**
     * Per-pixel *assigned* sample budgets (the Fig. 7 heatmap source):
     * the adaptive budget when adaptive sampling is on, samples_per_ray
     * otherwise. Consistent across modes, unlike the actual-points map
     * below which reflects early termination and cube misses.
     */
    std::vector<float> sample_count_map;
    /** Per-pixel points actually marched (post early termination; 0 for
     *  rays that miss the volume). */
    std::vector<float> actual_points_map;
    /** Mean of sample_count_map (the paper's "average points/pixel"). */
    double avg_points_per_pixel = 0.0;
    /** Mean of actual_points_map. */
    double avg_actual_points_per_pixel = 0.0;
    /** Host wall-clock of the render (used by the Fig. 24 experiment). */
    double wall_seconds = 0.0;
};

/**
 * Static shape of one frame's stage chain, derivable from the config
 * and resolution alone (before any rendering): how many Phase I probe
 * rows and Phase II jobs the frame decomposes into. The engine sizes
 * its stages from this without touching the field.
 */
struct FrameShape
{
    int gw = 0, gh = 0;           ///< probe grid (0x0 when not adaptive)
    int tiles_x = 0, tiles_y = 0; ///< Morton tile grid
    int jobs = 0;                 ///< Phase II job count (tiles or rows)
    /** Both phases run the scalar oracle, and Phase II jobs are image
     *  rows (eval_batch <= 1, or a trace sink attached). */
    bool scalar = false;
    bool adaptive = false;        ///< Phase I runs this frame
};

/**
 * All per-frame state of one render pass, threaded through the stage
 * API below. One FrameState corresponds to one in-flight frame of the
 * streaming engine; the synchronous render() facade uses exactly the
 * same stages, so both paths are bit-identical by construction.
 */
struct FrameState
{
    explicit FrameState(const nerf::Camera &cam) : camera(cam) {}

    nerf::Camera camera;
    FrameShape shape;
    Image img;
    std::vector<float> budget_map;
    std::vector<float> actual_map;
    std::vector<char> probed;
    std::vector<int> probe_counts; ///< per probe cell, gw x gh
    std::vector<int> budgets;      ///< per pixel, after planBudgets
    /** Per-job profiles, merged in index order at finalize. */
    std::vector<WorkloadProfile> probe_profiles;
    std::vector<WorkloadProfile> job_profiles;

    /**
     * Traced renders (renderTraced) attach the sink, which puts the
     * frame on the scalar oracle in pixel order. It must stay unset for
     * engine frames (stages would race on the sink's ordered event
     * stream).
     */
    TraceSink *sink = nullptr;

    std::chrono::steady_clock::time_point start;
};

class AsdrRenderer
{
  public:
    AsdrRenderer(const nerf::RadianceField &field, const RenderConfig &cfg);
    ~AsdrRenderer();

    const RenderConfig &config() const { return cfg_; }

    /**
     * Render a frame. `stats` and `sink` may be null; attaching a sink
     * streams the full lookup/execution trace through it.
     *
     * This is a thin synchronous facade over the streaming frame
     * engine: the first non-traced render lazily starts a per-renderer
     * engine::FrameEngine (one persistent worker pool sized by
     * cfg.num_threads), and every subsequent render reuses it -- no
     * per-frame thread construction. Traced renders (`sink` attached)
     * run the serial in-thread path so the event stream keeps its
     * exact ordering.
     */
    Image render(const nerf::Camera &camera, RenderStats *stats = nullptr,
                 TraceSink *sink = nullptr) const;

    // ------------------------------------------------------------------
    // Frame-stage API (the engine's view of a render): a bit-exact
    // decomposition of render() into five stages
    //
    //   beginFrame -> probeRow* -> planBudgets -> phase2Job* -> finalize
    //
    // Stages of one frame must respect that order (the engine runs
    // them as a fixed chain, each stage's last task starting the
    // next); stages of *different*
    // frames may interleave freely, which is what multi-frame
    // pipelining exploits. probeRow/phase2Job calls with distinct
    // indices are independent and may run concurrently.
    // ------------------------------------------------------------------

    /** Stage-chain shape for a frame at `w` x `h` under this config. */
    FrameShape frameShape(int w, int h) const;

    /** Ray/buffer setup: allocates the image and per-pixel maps. */
    void beginFrame(FrameState &fs) const;

    /** Phase I: probe row `gy` of the probe grid (full-budget rays +
     *  Eq. (3) difficulty -> per-cell budgets). */
    void probeRow(FrameState &fs, int gy) const;

    /** Sample-count planning: bilinear budget interpolation. */
    void planBudgets(FrameState &fs) const;

    /** Phase II job `j`: one Morton tile (one image row on the scalar
     *  oracle). */
    void phase2Job(FrameState &fs, int j) const;

    /** Merge per-job profiles (index order) and fill `stats`. */
    void finalizeFrame(FrameState &fs, RenderStats *stats) const;

    /** Reusable per-ray scratch buffers (the scalar oracle's samples,
     *  and the anchor rows of every color pass). */
    struct RayWorkspace
    {
        std::vector<Vec3> positions;
        std::vector<float> sigma;
        std::vector<nerf::DensityOutput> density;
        std::vector<Vec3> colors;
        std::vector<int> anchors; ///< every anchor (what the model counts)
        // Gathered rows of the live anchors only: the ones the batched
        // color pass evaluates on the host, with their point indices.
        std::vector<Vec3> anchor_pos;
        std::vector<nerf::DensityOutput> anchor_den;
        std::vector<Vec3> anchor_col;
        std::vector<int> shaded;
    };

    /** Result of marching a single ray. */
    struct RayResult
    {
        Vec3 color;
        int points_used = 0; ///< points after early termination
        bool hit_volume = false;
    };

    /**
     * The scalar oracle: march one ray with `budget` samples, one field
     * evaluation at a time. Every batched result must match it bit for
     * bit. Exposed for unit tests and the analysis tools; `probe`
     * disables early termination (probe rays need every point for the
     * subset comparisons) and retains sigma/colors in `ws` for the
     * difficulty evaluation.
     */
    RayResult renderRay(const nerf::Ray &ray, int budget, bool probe,
                        RayWorkspace &ws, WorkloadProfile &profile,
                        TraceSink *sink) const;

    /**
     * Per-thread scratch of the batched march: SoA ray state plus flat
     * ray-major sample buffers (per-ray segments at `offset[r]`),
     * reused across probe rows and tiles.
     */
    struct TileWorkspace
    {
        /** Drop the staged rays; buffers keep their capacity. */
        void clear();
        /** Stage the ray through pixel (x, y) with `samples` budget. */
        void add(const nerf::Camera &camera, int x, int y, int samples);

        // Per-ray state, in staging order.
        std::vector<nerf::Ray> rays;
        std::vector<int> px, py;
        std::vector<int> budget;   ///< assigned samples (the budget map)
        std::vector<int> n;        ///< marched samples (0 = cube miss)
        std::vector<float> t0, dt;
        std::vector<int> offset;   ///< segment start in the flat buffers
        std::vector<int> cut;      ///< early-termination index (== n if none)
        std::vector<int> scanned;  ///< sigma/ET progress along the ray
        std::vector<float> transmittance;
        std::vector<char> alive;
        std::vector<Vec3> color;   ///< composited color (0 on a miss)
        // Flat per-ray sample segments.
        std::vector<Vec3> positions;
        std::vector<float> sigma;
        std::vector<nerf::DensityOutput> density;
        std::vector<Vec3> colors;
        // Depth-major evaluation chunk (gather order + scatter targets).
        std::vector<Vec3> batch_pos;
        std::vector<int> batch_slot;
        std::vector<nerf::DensityOutput> batch_den;
        RayWorkspace shade; ///< anchor scratch for the color pass
    };

  private:
    /**
     * The color + approximation + compositing tail of a marched ray
     * (shared by renderRay and marchRays): color network at anchors,
     * gap interpolation, Eq. (1) compositing. `scalar` selects the
     * oracle's per-point color path, which evaluates every anchor. The
     * batched path evaluates only the live anchors, those whose own
     * sigma or the sigma of a point interpolated from them is nonzero,
     * in one colorBatch call (none when no anchor is live), and writes
     * 0 for the rest: compositing weighs those colors by alpha = 0, so
     * the result is the oracle's bit for bit. `profile.color_execs`
     * counts every anchor on both paths.
     */
    Vec3 shadePoints(const nerf::Ray &ray, const Vec3 *positions,
                     const nerf::DensityOutput *density,
                     const float *sigma, Vec3 *colors, int cut, float dt,
                     bool scalar, RayWorkspace &ws,
                     WorkloadProfile &profile, TraceSink *sink) const;

    /**
     * The batched march over the rays staged in `tws`, depth-major:
     * each density batch holds the surviving rays at a band of
     * consecutive depths, in staging order, maximizing hash-table
     * cache-line sharing. Early termination (off for `probe` rays) cuts
     * each ray at exactly the index renderRay would. Leaves per-ray
     * results in `tws`: `color`, `cut`, and the sigma/color segments.
     * A segment color equals the oracle's wherever that point's sigma
     * is nonzero; where it is 0 the color may differ (dead anchors are
     * not shaded), and composite/compositeMulti weigh it by alpha = 0.
     * Counts the points' work into `profile`; callers count the rays.
     */
    void marchRays(TileWorkspace &tws, bool probe,
                   WorkloadProfile &profile) const;

    /** Serial in-thread render used when a trace sink is attached. */
    Image renderTraced(const nerf::Camera &camera, RenderStats *stats,
                       TraceSink &sink) const;

    const nerf::RadianceField &field_;
    RenderConfig cfg_;
    AdaptiveSampler sampler_;
    int lookups_per_point_; ///< hoisted from costs() (hot path)

    /** Lazily-started engine behind the synchronous facade (one
     *  persistent pool per renderer, shared by all its frames). */
    mutable std::unique_ptr<engine::FrameEngine> engine_;
    mutable std::once_flag engine_once_;
};

} // namespace asdr::core

#endif // ASDR_CORE_RENDERER_HPP
