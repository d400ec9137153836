/**
 * @file
 * Analytic volumetric scenes built from soft signed-distance primitives.
 *
 * These stand in for the paper's datasets (Synthetic-NeRF, NSVF,
 * BlendedMVS, Tanks&Temples, iNGP-Fox): we cannot ship trained NeRF
 * checkpoints, so each named scene is a deterministic procedural density
 * + color field over the unit cube. Ground-truth images come from densely
 * sampled volume rendering of the analytic field, and the hash-grid NeRF
 * substrate is *fitted* to these fields by distillation (nerf/trainer),
 * which makes every quality comparison in the evaluation meaningful.
 */

#ifndef ASDR_SCENE_ANALYTIC_SCENE_HPP
#define ASDR_SCENE_ANALYTIC_SCENE_HPP

#include <memory>
#include <string>
#include <vector>

#include "util/vec.hpp"

namespace asdr::scene {

/** Density and emitted color at a point for a given view direction. */
struct SceneSample
{
    float sigma = 0.0f; ///< volume density (1/unit length)
    Vec3 color;         ///< emitted radiance, in [0,1]
};

/** One soft-SDF primitive with a color pattern. */
struct Primitive
{
    enum class Shape { Sphere, Box, Torus, CylinderY, Ellipsoid };
    enum class Pattern { Solid, Checker, GradientY, StripesX };

    Shape shape = Shape::Sphere;
    Vec3 center{0.5f, 0.5f, 0.5f};
    /** Shape parameters: Sphere r=params.x; Box half-extents = params;
     *  Torus major=params.x minor=params.y; CylinderY r=params.x
     *  halfheight=params.y; Ellipsoid radii = params. */
    Vec3 params{0.1f, 0.1f, 0.1f};
    Vec3 color_a{0.8f, 0.8f, 0.8f};
    Vec3 color_b{0.2f, 0.2f, 0.2f};
    Pattern pattern = Pattern::Solid;
    float pattern_scale = 8.0f; ///< checker/stripe frequency
    float density_amp = 40.0f;  ///< peak density inside the surface
    float softness = 0.015f;    ///< SDF-to-density transition width
    Vec3 shade_dir{0.0f, 1.0f, 0.0f}; ///< mild view-dependent tint axis

    /** Signed distance from `pos` to this primitive's surface. */
    float sdf(const Vec3 &pos) const;
    /** Base (view-independent) color at `pos`. */
    Vec3 baseColor(const Vec3 &pos) const;
};

/** Static description of a named scene (paper Table 1 row). */
struct SceneInfo
{
    std::string name;
    std::string dataset;   ///< e.g. "Synthetic-NeRF"
    int full_width = 800;  ///< paper-resolution frame
    int full_height = 800;
    bool synthetic = true;
    Vec3 cam_pos{0.5f, 0.6f, -0.9f};
    Vec3 look_at{0.5f, 0.5f, 0.5f};
    float fov_deg = 45.0f;
};

/**
 * A scene composed of soft primitives over the unit cube. Density is the
 * (capped) sum of primitive densities; color is the density-weighted
 * average of primitive colors with a mild view-dependent term, so the
 * color MLP of the fitted field has something real to learn.
 *
 * Both are built from each primitive's falloff term
 * t_i = 1 + exp(sdf_i(pos) / softness_i): primitive i adds
 * density_amp_i / t_i to the density and weighs its color by
 * density_amp_i * (1 / t_i). density() can hand the terms it computed to
 * a later sample() at the same point, which then skips the SDFs and
 * exps, and densityBatch() computes them one primitive at a time over a
 * chunk of points. Every path evaluates the one SDF body per formula
 * (analytic_scene.cpp) and the falloff's same float operations,
 * densityBatch() taking a chunk's exps from one expBatch call
 * (util/exp_batch.hpp), which returns std::exp's bits; so all of them
 * agree bit for bit.
 */
class AnalyticScene
{
  public:
    /** Most points one densityBatch() call takes: its x/y/z staging
     *  arrays live on the stack. */
    static constexpr int kBatch = 64;

    AnalyticScene(SceneInfo info, std::vector<Primitive> prims);

    const SceneInfo &info() const { return info_; }
    const std::vector<Primitive> &primitives() const { return prims_; }

    /**
     * Full query: density and view-dependent color. `terms[i]` for
     * i < `nterms` may hold primitive i's falloff term at `pos`, as
     * density() or densityBatch() wrote it; the terms of the other
     * primitives are computed here.
     */
    SceneSample sample(const Vec3 &pos, const Vec3 &dir,
                       const float *terms = nullptr, int nterms = 0) const;

    /** Density only (used by occupancy statistics and distillation).
     *  Also writes the falloff terms of the first `nterms` primitives
     *  (fewer when the scene has fewer) to `terms`. */
    float density(const Vec3 &pos, float *terms = nullptr,
                  int nterms = 0) const;

    /**
     * density() of `count` <= kBatch points, primitive-major: each
     * primitive's SDF and falloff run over every point before the next
     * primitive's, and the densities sum in primitive order, so
     * `sigma[p]` equals density(pos[p]) bit for bit. `terms[p * nterms
     * + i]` receives primitive i's falloff term at pos[p] for the first
     * `nterms` primitives, as density() writes them.
     */
    void densityBatch(const Vec3 *pos, int count, float *sigma,
                      float *terms, int nterms) const;

    /** Fraction of uniformly-sampled unit-cube points with sigma below
     *  `thresh`; the "background fraction" the paper quotes (~40%). */
    double emptyFraction(float thresh = 0.5f, int samples = 20000) const;

  private:
    SceneInfo info_;
    std::vector<Primitive> prims_;
};

} // namespace asdr::scene

#endif // ASDR_SCENE_ANALYTIC_SCENE_HPP
