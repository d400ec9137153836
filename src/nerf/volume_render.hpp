/**
 * @file
 * Volume rendering along a ray (paper Eq. 1):
 *   C = sum_i T_i * alpha_i * c_i,  T_i = prod_{j<i} (1 - alpha_j),
 *   alpha_i = 1 - exp(-sigma_i * delta_i).
 *
 * Also provides the *strided subset* compositing the adaptive sampler
 * uses to evaluate rendering difficulty (Eq. 3) on already-predicted
 * points, and the early-termination scan of §6.6.
 */

#ifndef ASDR_NERF_VOLUME_RENDER_HPP
#define ASDR_NERF_VOLUME_RENDER_HPP

#include <vector>

#include "util/vec.hpp"

namespace asdr::nerf {

/** Result of compositing one ray. */
struct CompositeResult
{
    Vec3 color;          ///< accumulated radiance (black background)
    float opacity = 0.0f; ///< 1 - final transmittance
};

/**
 * Composite `n` points with uniform spacing `dt`, using every
 * `stride`-th point starting at index 0 (the stride scales the
 * effective spacing so total optical depth is preserved).
 */
CompositeResult composite(const float *sigma, const Vec3 *color, int n,
                          float dt, int stride = 1);

/**
 * composite(sigma, color, n, dt) from the points' alphas, alpha[i] =
 * alphaFromSigma(sigma[i], dt), bit for bit: the batched march computes
 * each alpha once, a band's in one batched exp after its density batch,
 * and composites from them.
 */
CompositeResult compositeAlphas(const float *alpha, const Vec3 *color,
                                int n);

/**
 * Composite the same point buffers at `count` strides in a single pass
 * over sigma/color (one memory walk instead of one per candidate --
 * Phase I evaluates all its candidate subsets this way). out[k] is
 * bit-identical to composite(sigma, color, n, dt, strides[k]).
 */
void compositeMulti(const float *sigma, const Vec3 *color, int n, float dt,
                    const int *strides, int count, CompositeResult *out);

/**
 * First index at which transmittance drops below `eps` (the paper's
 * early termination: stop once accumulated opacity saturates). Returns
 * `n` when the ray never saturates.
 */
int earlyTerminationIndex(const float *sigma, int n, float dt, float eps);

/**
 * alpha_i for one sample. A sigma of exactly 0 (either sign) returns +0
 * without calling exp: for any finite dt, 1 - exp(-0 * dt) is exactly
 * +0, and after the floor and the occupancy grid most samples have
 * sigma 0.
 */
inline float
alphaFromSigma(float sigma, float dt)
{
    if (sigma == 0.0f)
        return 0.0f;
    return 1.0f - std::exp(-sigma * dt);
}

} // namespace asdr::nerf

#endif // ASDR_NERF_VOLUME_RENDER_HPP
