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
 *          (WorkloadProfile) are the modeled pipeline's: step (1) counts
 *          every sample and step (2) every anchor.
 *
 * The host runs less than the model counts, in two ways. An occupancy
 * grid (core/occupancy_grid.hpp), built once per renderer from the
 * field's densityBatch on its first frame and shared with renderers made
 * from it, marks where sigma can reach sigma_floor; both host paths
 * evaluate density only at samples in marked cells and set sigma = 0
 * elsewhere, as the floor would. And the batched path runs the color
 * network only at live anchors, where the anchor or a point interpolated
 * from it has nonzero sigma; the others composite with alpha = 0, so
 * skipping them leaves the frame bit-identical. A live anchor whose
 * density the grid skipped is evaluated before it is shaded, so the
 * color network always sees the field's own geometry features.
 *
 * Host execution has one batched path and one scalar oracle. The batched
 * path stages a list of rays -- one Phase I probe row, or one Phase II
 * tile walked along a Z-curve -- and marches them depth-major through
 * the field's batch API (marchRays), so each density batch holds
 * adjacent rays at similar depths; a batch closes once it holds
 * eval_batch samples in marked cells. Probe rows march with early
 * termination off; tiles cut each ray at exactly the index the oracle
 * would. The march's own work follows what the grid keeps. Each ray
 * gets one sample range from the bounding box of the grid's marked
 * cells (OccupancyGrid::sampleRange), aligned to its anchors; every
 * sample outside lies in an unmarked cell, so it has sigma 0, alpha +0
 * and no effect on any composite. The march and the early-termination
 * scan touch only that range, and a ray with no sample in it is neither
 * marched nor shaded. The shading and Phase I's selectCount touch only
 * the range's lit span, from the first nonzero sigma to the last before
 * the cut, aligned alike; a ray whose span is empty is not shaded (its
 * color is exactly 0). Inside the range a sample costs 36 bytes of
 * segment state and a grid test, density outputs are stored only for
 * the samples evaluated, and each alpha is computed once: 0 outside
 * marked cells, and for a band's marked samples by one batched exp
 * (util/exp_batch.hpp) after its density batch, so the
 * early-termination scan only multiplies. The scalar oracle
 * (renderRay) evaluates one point at a time in pixel order over the
 * whole ray; it runs when a trace sink is attached, so the event stream
 * keeps the seed ordering, or when eval_batch <= 1. Probe rows and
 * tiles are jobs on the frame engine's workers with per-thread
 * workspaces, their profiles merged in job order; an adaptive frame's
 * tiles are handed out heaviest planned cost first. Frames are
 * bit-identical for every
 * thread count, tile size and batch size, and to the scalar oracle.
 */

#ifndef ASDR_CORE_RENDERER_HPP
#define ASDR_CORE_RENDERER_HPP

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "core/adaptive_sampler.hpp"
#include "core/occupancy_grid.hpp"
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
    /**
     * The Phase II job that claimed index j runs: job tile_order[j].
     * Index order from beginFrame; on the batched path of an adaptive
     * frame planBudgets sorts the tiles by descending planned cost, so
     * workers claiming indices in order start the heaviest tiles first
     * and the stage ends on light ones.
     */
    std::vector<int> tile_order;
    /** Per-job profiles (by job, not by claimed index), merged in job
     *  order at finalize. */
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
    /**
     * A renderer of `base`'s field under `cfg` that shares base's
     * occupancy grid, so one build serves both. The grid depends only on
     * the field and the floor: `cfg.sigma_floor` must equal base's.
     */
    AsdrRenderer(const AsdrRenderer &base, const RenderConfig &cfg);
    ~AsdrRenderer();

    const RenderConfig &config() const { return cfg_; }

    /**
     * Render a frame. `stats` and `sink` may be null; attaching a sink
     * streams the full lookup/execution trace through it.
     *
     * This is a thin synchronous facade over the streaming frame
     * engine: the first non-traced render lazily starts a per-renderer
     * engine::FrameEngine (cfg.num_threads persistent workers), and
     * every subsequent render reuses it -- no per-frame thread
     * construction. Traced renders (`sink` attached) run the serial
     * in-thread path so the event stream keeps its exact ordering.
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

    /** Ray/buffer setup: allocates the image and per-pixel maps, and
     *  builds the occupancy grid on the renderer's first frame (a build
     *  that throws fails the frame; the next frame builds again). */
    void beginFrame(FrameState &fs) const;

    /** Phase I: probe row `gy` of the probe grid (full-budget rays +
     *  Eq. (3) difficulty -> per-cell budgets). */
    void probeRow(FrameState &fs, int gy) const;

    /**
     * Sample-count planning: bilinear budget interpolation. On the
     * batched path it also orders the tiles by planned cost, the sum of
     * the budgets of a tile's unprobed pixels, largest first, ties in
     * index order (FrameState::tile_order). The scalar oracle, traced
     * renders and non-adaptive frames keep index order.
     */
    void planBudgets(FrameState &fs) const;

    /** Phase II index `j`: job fs.tile_order[j], one Morton tile (one
     *  image row on the scalar oracle). It writes that job's profile. */
    void phase2Job(FrameState &fs, int j) const;

    /** Merge per-job profiles (job order) and fill `stats`. */
    void finalizeFrame(FrameState &fs, RenderStats *stats) const;

    /** Reusable per-ray scratch buffers (the scalar oracle's samples,
     *  and the anchor rows of every color pass). */
    struct RayWorkspace
    {
        std::vector<Vec3> positions;
        std::vector<float> sigma;
        /** Per sample: its row in `store`, or -1 where density was not
         *  evaluated (outside the grid's marked cells). */
        std::vector<int> store_index;
        std::vector<nerf::DensityOutput> store; ///< evaluated samples only
        std::vector<Vec3> colors;
        std::vector<int> anchors; ///< every anchor (what the model counts)
        // Gathered rows of the live anchors only: the ones the batched
        // color pass evaluates on the host, with their point indices,
        // those outside the grid's marked cells first.
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
     * bit. It calls density() only at samples in the occupancy grid's
     * marked cells (building the grid if no frame has), and shades
     * every anchor except the dead ones whose density it skipped.
     * Exposed for unit tests and the analysis tools; `probe` disables
     * early termination (probe rays need every point for the subset
     * comparisons) and retains sigma/colors in `ws` for the difficulty
     * evaluation.
     */
    RayResult renderRay(const nerf::Ray &ray, int budget, bool probe,
                        RayWorkspace &ws, WorkloadProfile &profile,
                        TraceSink *sink) const;

    /**
     * Per-thread scratch of the batched march, reused across probe rows
     * and tiles: SoA ray state, flat ray-major sample segments of 36
     * bytes a sample, and a compact store of the density outputs the
     * host evaluated, which densityBatch writes into directly. Ray r's
     * segment holds the samples of its range [lo[r], hi[r]) from
     * `offset[r]` on, sample d at offset[r] + d - lo[r]; samples outside
     * the range cost nothing, and a sample outside the grid's marked
     * cells costs no store row.
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
        std::vector<int> n;        ///< modeled samples (0 = cube miss)
        std::vector<float> t0, dt;
        /** The samples that can lie in a marked cell, rounded out to
         *  anchors (and on probe rays to subset strides); lo == hi when
         *  none can. marchRays narrows it to the lit span: from the
         *  first nonzero sigma to the last before the cut, rounded out
         *  alike, and empty when there is none. Every sigma outside the
         *  range is 0. */
        std::vector<int> lo, hi;
        std::vector<int> offset;   ///< slot of sample lo in the flat buffers
        std::vector<int> cut;      ///< early-termination index (== n if none)
        std::vector<float> transmittance;
        std::vector<Vec3> color;   ///< composited color (0 on a miss)
        std::vector<int> marching; ///< rays not yet cut, in staging order
        // Flat per-ray sample segments, written up to the last band.
        std::vector<Vec3> positions;
        std::vector<float> sigma;     ///< floored; 0 outside marked cells
        std::vector<float> alpha;     ///< 0 outside marked cells
        std::vector<int> store_index; ///< row in `store`, or -1
        std::vector<Vec3> colors;
        // One band's marked samples (gather order), their segment slots
        // and their rays' dt, overwritten in place by exp(-sigma * dt);
        // `store` rows past the march's count are stale.
        std::vector<Vec3> batch_pos;
        std::vector<int> batch_slot;
        std::vector<float> batch_exp;
        std::vector<nerf::DensityOutput> store;
        RayWorkspace shade; ///< anchor scratch for the color pass
    };

  private:
    /**
     * The color + approximation tail of a marched ray (shared by
     * renderRay and marchRays): color network at anchors, then gap
     * interpolation, into colors[0, count). The points [0, count) begin
     * at one of the ray's anchors and end at one, so their anchors are
     * anchorIndices(count, anchorGroup()): the whole ray up to its cut
     * on the oracle, a ray's lit span on the batched path.
     * An anchor is live when its own sigma or the sigma of a point
     * interpolated from it is nonzero. Point i's density output is
     * `store[store_index[i]]`, held only where the host evaluated it
     * (store_index -1 elsewhere); a live anchor without one has its
     * density evaluated here first (on the batched path, in one
     * densityBatch call per ray). `scalar` selects the oracle's
     * per-point color path, which shades every other anchor whose
     * density it holds. The batched path shades only the live anchors,
     * in one colorBatch call (none when no anchor is live). Both write 0
     * for the anchors they do not shade: compositing weighs those colors
     * by alpha = 0, so the results agree bit for bit. The caller
     * composites and counts (countRay).
     */
    void shadePoints(const nerf::Ray &ray, const Vec3 *positions,
                     const int *store_index,
                     const nerf::DensityOutput *store, const float *sigma,
                     Vec3 *colors, int count, bool scalar,
                     RayWorkspace &ws, TraceSink *sink) const;

    /** Count the modeled work of a ray cut at `cut` into `profile`: its
     *  density pass and every anchor's color execution up to the cut,
     *  whatever the host skipped. */
    void countRay(int cut, WorkloadProfile &profile) const;

    /**
     * The batched march over the rays staged in `tws`, depth-major, each
     * over its sample range only (TileWorkspace::lo/hi): samples outside
     * lie in unmarked cells, and a ray with an empty range is neither
     * marched nor shaded. Transmittance stays exactly 1 before the
     * range, so no cut moves, except at et_eps > 1, where transmittance
     * 1 cuts at the first sample and rays march whole. A band adds whole
     * depths -- every marching ray's sample at that depth, in staging
     * order, so consecutive batch points share hash-table cache lines --
     * until it holds eval_batch samples in the occupancy grid's marked
     * cells (a march's last band may hold fewer); those go to
     * densityBatch in one call, which writes into the workspace's
     * compact store, and the others get sigma 0 with no store row. The
     * early-termination scan then reads the band's floored sigma for the
     * rays still marching, keeps each sample's alpha, and (not on
     * `probe` rays) cuts each ray at exactly the index renderRay would;
     * band samples past a cut are host slack, not workload. Each range
     * then narrows to its lit span (TileWorkspace::lo/hi). A ray whose
     * span is empty, sigma 0 everywhere before its cut, composites to
     * exactly 0, so it is not shaded; only its anchors are counted. A
     * lit ray is shaded over its span and composited from the kept
     * alphas. Leaves per-ray results in `tws`: `color`, `cut`, the span,
     * and for probe rays the sigma/color segments over the span that
     * Phase I reads. A segment color equals the oracle's wherever that
     * point's sigma is nonzero; where it is 0 the color may differ (dead
     * anchors are not shaded), and composite/compositeMulti weigh it by
     * alpha = 0. Counts every modeled sample's work into `profile`,
     * evaluated on the host or not; callers count the rays.
     */
    void marchRays(TileWorkspace &tws, bool probe,
                   WorkloadProfile &profile) const;

    /** Anchor spacing along a ray: approx_group with color
     *  approximation on, else 1 (every point is an anchor). */
    int
    anchorGroup() const
    {
        return cfg_.color_approx ? cfg_.approx_group : 1;
    }

    /** Serial in-thread render used when a trace sink is attached. */
    Image renderTraced(const nerf::Camera &camera, RenderStats *stats,
                       TraceSink &sink) const;

    /** The occupancy grid, built on first use (under the slot's mutex;
     *  a build that throws leaves it unbuilt for the next caller). */
    const OccupancyGrid &occupancy() const;

    /** The lazily built grid, shared by the renderers made from one
     *  another: `grid` is written once, under `m`, before `built` is
     *  set, and read without the lock after. */
    struct GridSlot
    {
        std::mutex m;
        std::atomic<bool> built{false};
        OccupancyGrid grid;
    };

    const nerf::RadianceField &field_;
    RenderConfig cfg_;
    AdaptiveSampler sampler_;
    int lookups_per_point_; ///< hoisted from costs() (hot path)
    /** A probe ray's range starts at a multiple of this: the anchor
     *  group and every subset stride (AdaptiveSampler::subsetAlignment). */
    int probe_align_ = 1;
    std::shared_ptr<GridSlot> grid_;

    /** Lazily-started engine behind the synchronous facade (one set
     *  of persistent workers per renderer, shared by all its frames). */
    mutable std::unique_ptr<engine::FrameEngine> engine_;
    mutable std::once_flag engine_once_;
};

} // namespace asdr::core

#endif // ASDR_CORE_RENDERER_HPP
