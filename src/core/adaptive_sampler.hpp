/**
 * @file
 * Adaptive sampling with rendering-difficulty awareness (paper §4.2).
 *
 * Phase I probes every d-th pixel: the probe ray is rendered with the
 * full ns points, then re-composited on strided subsets (ns_i = ns /
 * stride_i, reusing the already-predicted points). The rendering
 * difficulty of candidate i is Eq. (3):
 *     rd_i = max(|r_ns - r_nsi|, |g_ns - g_nsi|, |b_ns - b_nsi|)
 * and the pixel's budget becomes the smallest ns_i with rd_i <= delta.
 * Pixels that were not probed receive a budget by bilinear
 * interpolation of the four surrounding probe budgets (Fig. 6a).
 */

#ifndef ASDR_CORE_ADAPTIVE_SAMPLER_HPP
#define ASDR_CORE_ADAPTIVE_SAMPLER_HPP

#include <algorithm>
#include <vector>

#include "core/render_config.hpp"
#include "nerf/volume_render.hpp"
#include "util/vec.hpp"

namespace asdr::core {

class AdaptiveSampler
{
  public:
    explicit AdaptiveSampler(const RenderConfig &cfg);

    /** Eq. (3): the difficulty of a candidate against the full render. */
    static float renderingDifficulty(const Vec3 &full_color,
                                     const Vec3 &subset_color);

    /**
     * Pick the per-pixel budget from a fully-predicted probe ray of `ns`
     * points at spacing `dt`, given as its points [lo, lo + count):
     * `sigma` and `color` start at point lo, lo is a multiple of
     * subsetAlignment(ns, ...), and every point outside has sigma 0.
     * Each strided subset then keeps its indices, and every composite
     * equals the whole ray's bit for bit (count == ns is the whole ray).
     * @return the chosen number of samples (ns when no candidate passes)
     */
    int selectCount(const float *sigma, const Vec3 *color, int count,
                    int ns, float dt) const;

    /**
     * The least common multiple of `multiple` and every subset stride
     * selectCount uses at `ns` points, capped at ns + 1: a probe
     * sub-range may start at any multiple of it (past the cap, only at
     * 0).
     */
    int subsetAlignment(int ns, int multiple) const;

    /** Probe-grid dimensions for a frame. */
    static void probeGridDims(int width, int height, int stride, int &gw,
                              int &gh);

    /**
     * Pixel probed by cell (gx, gy); every cell maps to a unique pixel
     * (floor((h-1)/d)*d <= h-1), so probe rows write disjoint pixels.
     */
    static void
    probePixel(int gx, int gy, int stride, int width, int height, int &px,
               int &py)
    {
        px = std::min(gx * stride, width - 1);
        py = std::min(gy * stride, height - 1);
    }

    /**
     * Bilinearly interpolate per-pixel budgets from the probe grid
     * (gw x gh budgets at stride `cfg.probe_stride`), clamped to
     * [min_samples, samples_per_ray].
     */
    std::vector<int> interpolateCounts(const std::vector<int> &probe_counts,
                                       int gw, int gh, int width,
                                       int height) const;

  private:
    RenderConfig cfg_;
};

} // namespace asdr::core

#endif // ASDR_CORE_ADAPTIVE_SAMPLER_HPP
