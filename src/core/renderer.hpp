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
 *          and simulated cycles describe the same work.
 *
 * Host execution is batch-at-a-time and tile-parallel: sample positions
 * are generated up front and evaluated through the field's batch API in
 * eval_batch-sized chunks (early termination stays exact), and both
 * phases are split into row jobs over a thread pool with per-job
 * workspaces, merged in row order. Frames are bit-identical for every
 * thread count and batch size; an attached trace sink forces the serial
 * scalar path so the event stream keeps the seed ordering.
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
 * Static shape of one frame's stage graph, derivable from the config
 * and resolution alone (before any rendering): how many Phase I probe
 * rows and Phase II jobs the frame decomposes into. The engine sizes
 * its task graph from this without touching the field.
 */
struct FrameShape
{
    int gw = 0, gh = 0;           ///< probe grid (0x0 when not adaptive)
    int tiles_x = 0, tiles_y = 0; ///< Morton tile grid
    int jobs = 0;                 ///< Phase II job count (tiles or rows)
    bool morton = false;          ///< tile-Z-curve Phase II ordering
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
     * Injected probe plan (RenderSession probe reuse): when
     * `probes_reused` is set, Phase I is skipped entirely and
     * planBudgets() splats these cached per-cell results instead --
     * probe-pixel colors into the image and the counts into the
     * interpolation. Bit-identical to a fresh render when the camera
     * is unchanged; an approximation across small camera deltas.
     */
    bool probes_reused = false;
    std::vector<int> reused_counts;
    std::vector<Vec3> reused_colors;
    std::vector<float> reused_actual;

    /**
     * Traced renders (renderTraced) force row-major Phase II jobs and
     * attach the sink; both must stay unset for engine frames (stages
     * would race on the sink's ordered event stream).
     */
    bool force_row_order = false;
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
    // decomposition of render() into graph nodes
    //
    //   beginFrame -> probeRow* -> planBudgets -> phase2Job* -> finalize
    //
    // Stages of one frame must respect that order (the engine's
    // FrameGraph encodes it as dependencies); stages of *different*
    // frames may interleave freely, which is what multi-frame
    // pipelining exploits. probeRow/phase2Job calls with distinct
    // indices are independent and may run concurrently.
    // ------------------------------------------------------------------

    /** Stage-graph shape for a frame at `w` x `h` under this config. */
    FrameShape frameShape(int w, int h) const;

    /** Ray/buffer setup: allocates the image and per-pixel maps. */
    void beginFrame(FrameState &fs) const;

    /** Phase I: probe row `gy` of the probe grid (full-budget rays +
     *  Eq. (3) difficulty -> per-cell budgets). */
    void probeRow(FrameState &fs, int gy) const;

    /** Sample-count planning: bilinear budget interpolation (or the
     *  cached-probe splat when `fs.probes_reused`). */
    void planBudgets(FrameState &fs) const;

    /** Phase II job `j`: one Morton tile (or one image row when tile
     *  ordering is off). */
    void phase2Job(FrameState &fs, int j) const;

    /** Merge per-job profiles (index order) and fill `stats`. */
    void finalizeFrame(FrameState &fs, RenderStats *stats) const;

    /** Reusable per-ray scratch buffers. */
    struct RayWorkspace
    {
        std::vector<Vec3> positions;
        std::vector<float> sigma;
        std::vector<nerf::DensityOutput> density;
        std::vector<Vec3> colors;
        std::vector<int> anchors;
        // Gathered anchor rows for the batched color pass.
        std::vector<Vec3> anchor_pos;
        std::vector<nerf::DensityOutput> anchor_den;
        std::vector<Vec3> anchor_col;
    };

    /** Result of marching a single ray. */
    struct RayResult
    {
        Vec3 color;
        int points_used = 0; ///< points after early termination
        bool hit_volume = false;
    };

    /**
     * March one ray with `budget` samples. Exposed for unit tests and
     * the analysis tools; `probe` disables early termination (probe
     * rays need every point for the subset comparisons) and retains
     * sigma/colors in `ws` for the difficulty evaluation.
     */
    RayResult renderRay(const nerf::Ray &ray, int budget, bool probe,
                        RayWorkspace &ws, WorkloadProfile &profile,
                        TraceSink *sink) const;

    /**
     * Per-tile scratch of the Morton-ordered Phase II loop: SoA ray
     * state plus flat ray-major sample buffers (per-ray segments at
     * `offset[r]`), reused across tiles per thread.
     */
    struct TileWorkspace
    {
        // Per-ray state, in Z-curve traversal order.
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
     * (shared by renderRay and renderTile): color network at anchors,
     * gap interpolation, Eq. (1) compositing. `scalar` selects the
     * per-point color path (trace sinks / eval_batch <= 1).
     */
    Vec3 shadePoints(const nerf::Ray &ray, const Vec3 *positions,
                     const nerf::DensityOutput *density,
                     const float *sigma, Vec3 *colors, int cut, float dt,
                     bool scalar, RayWorkspace &ws,
                     WorkloadProfile &profile, TraceSink *sink) const;

    /**
     * March one tile of Phase II rays in Z-curve order, depth-major:
     * each density batch holds the tile's surviving rays at a band of
     * consecutive depths, maximizing hash-table cache-line sharing.
     * Early termination cuts each ray at exactly the index the per-ray
     * path would, and results are scattered to pixel order, so the
     * frame is bit-identical to renderRay over the same pixels.
     */
    void renderTile(const nerf::Camera &camera, int x0, int y0, int tw,
                    int th, const int *budgets, const char *probed,
                    TileWorkspace &tws, Image &img, float *budget_map,
                    float *actual_map, WorkloadProfile &profile) const;

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
