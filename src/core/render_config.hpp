/**
 * @file
 * All knobs of the ASDR rendering pipeline (paper §4-5): adaptive
 * sampling (probe stride d, difficulty threshold delta, candidate point
 * counts), volume-rendering approximation (group size n), early
 * termination, and frame geometry.
 */

#ifndef ASDR_CORE_RENDER_CONFIG_HPP
#define ASDR_CORE_RENDER_CONFIG_HPP

#include <cstdlib>
#include <thread>
#include <vector>

namespace asdr::core {

/**
 * Resolve RenderConfig::num_threads. 0 = auto: the ASDR_NUM_THREADS
 * environment variable when set, else the hardware concurrency.
 * Shared by the renderer facade and the frame engine so both start
 * the same number of workers.
 */
inline int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("ASDR_NUM_THREADS")) {
        int v = std::atoi(env);
        if (v > 0)
            return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? int(hw) : 1;
}

struct RenderConfig
{
    int width = 96;
    int height = 96;
    /** Fixed samples per ray ns (paper: 192 for the LEGO scene). */
    int samples_per_ray = 192;

    // --- Adaptive sampling (§4.2) ---
    bool adaptive_sampling = false;
    /** Probe-pixel stride d: (D/d)^2 pixels are probed in Phase I. */
    int probe_stride = 5;
    /** Difficulty threshold delta of Eq. (3); 0 = lossless criterion. */
    float delta = 0.0f;
    /**
     * Candidate subset strides: candidate count ns_i = ns / stride_i
     * (strided subsets reuse the probe ray's already-predicted points,
     * so Phase I costs no extra network work). Descending strides =
     * ascending candidate counts; the first candidate with
     * rd_i <= delta wins.
     */
    std::vector<int> subset_strides{16, 8, 4, 2};
    /** Lower bound on per-pixel samples after interpolation. */
    int min_samples = 8;

    // --- Volume-rendering approximation (§4.3) ---
    bool color_approx = false;
    /** Group size n: one color-network execution per n points. */
    int approx_group = 2;

    // --- Early termination (§6.6) ---
    bool early_termination = false;
    /** Terminate the march once transmittance falls below this. */
    float et_eps = 1e-3f;

    // --- Host execution (batching + threading) ---
    /**
     * Worker threads for the tile-parallel frame loop. 0 = auto: the
     * ASDR_NUM_THREADS environment variable when set, otherwise the
     * hardware concurrency. Frames are bit-identical for every value;
     * an attached trace sink forces the serial path regardless.
     */
    int num_threads = 0;
    /**
     * The fewest samples in the occupancy grid's marked cells that a
     * band of the batched march gathers before it calls densityBatch;
     * only a march's last band may hold fewer. The batched march takes
     * a list of rays -- one Phase I probe row, or one Phase II tile
     * walked along a Z-curve -- and evaluates them depth-major: a band
     * adds every marching ray's sample at one depth after another, so
     * consecutive points come from adjacent rays at similar depths and
     * hit overlapping hash-table cache lines (Cicero-style memory
     * ordering). Early termination stays exact (each ray stops at the
     * point the one-at-a-time path would; band samples past the cut
     * are evaluated but not counted), and results are scattered back to
     * pixel order. Values <= 1 select the scalar oracle: one point at a
     * time, pixel order (the bench's scalar reference). Frames are
     * bit-identical for every value.
     */
    int eval_batch = 32;
    /** Tile edge (pixels) of the batched Phase II march. */
    int tile_size = 8;

    /**
     * Densities below this are treated as exactly zero. Without it a
     * trained field emits tiny nonzero densities everywhere and the
     * delta = 0 lossless criterion of Fig. 7 can never fire on
     * background pixels. The floor also builds the renderer's occupancy
     * grid (core/occupancy_grid.hpp), the software counterpart of
     * Instant-NGP's: the cells where the field's sampled sigma reaches
     * the floor, dilated by one cell. The host evaluates density only
     * at samples in those cells and sets sigma = 0 elsewhere (a floor
     * <= 0 marks every cell). The batched march clips each ray to the
     * samples inside the marked cells' bounding box, keeps a density
     * output only for the samples it evaluated, and does not shade a
     * ray whose sigma is 0 up to its cut. And the floor decides which
     * anchors the batched host path shades: an anchor whose sigma and
     * whose interpolated points' sigmas are all 0 composites with
     * alpha = 0, so its color network is not run. The workload
     * counters count every sample and anchor either way.
     */
    float sigma_floor = 0.1f;

    // Convenience named configurations used across the benches.
    static RenderConfig
    baseline(int w, int h, int ns = 192)
    {
        RenderConfig cfg;
        cfg.width = w;
        cfg.height = h;
        cfg.samples_per_ray = ns;
        return cfg;
    }

    static RenderConfig
    asdr(int w, int h, int ns = 192)
    {
        RenderConfig cfg = baseline(w, h, ns);
        cfg.adaptive_sampling = true;
        cfg.delta = 1.0f / 2048.0f; // the paper's sweet spot (Fig. 21a)
        cfg.color_approx = true;
        cfg.approx_group = 2;
        cfg.early_termination = true;
        return cfg;
    }
};

} // namespace asdr::core

#endif // ASDR_CORE_RENDER_CONFIG_HPP
