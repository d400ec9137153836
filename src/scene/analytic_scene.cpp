#include "scene/analytic_scene.hpp"

#include <algorithm>
#include <cmath>

#include "util/exp_batch.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace asdr::scene {

namespace {

// One body per signed-distance formula, on the coordinates (x, y, z)
// relative to the primitive's center. Primitive::sdf calls them per
// point and AnalyticScene::densityBatch inside its SIMD loops, so both
// evaluate the same float operations in the same order.

inline float
sdSphere(float x, float y, float z, float r)
{
    return std::sqrt(x * x + y * y + z * z) - r;
}

inline float
sdBox(float x, float y, float z, float hx, float hy, float hz)
{
    const float qx = std::fabs(x) - hx;
    const float qy = std::fabs(y) - hy;
    const float qz = std::fabs(z) - hz;
    const float ox = std::max(qx, 0.0f);
    const float oy = std::max(qy, 0.0f);
    const float oz = std::max(qz, 0.0f);
    const float outside = std::sqrt(ox * ox + oy * oy + oz * oz);
    const float inside = std::min(std::max(std::max(qx, qy), qz), 0.0f);
    return outside + inside;
}

inline float
sdTorus(float x, float y, float z, float major, float minor)
{
    const float qx = std::sqrt(x * x + z * z) - major;
    return std::sqrt(qx * qx + y * y) - minor;
}

inline float
sdCylinderY(float x, float y, float z, float r, float halfh)
{
    const float dxz = std::sqrt(x * x + z * z) - r;
    const float dy = std::fabs(y) - halfh;
    const float ox = std::max(dxz, 0.0f);
    const float oy = std::max(dy, 0.0f);
    const float outside = std::sqrt(ox * ox + oy * oy);
    return outside + std::min(std::max(dxz, dy), 0.0f);
}

inline float
sdEllipsoid(float x, float y, float z, float rx, float ry, float rz)
{
    const float qx = x / rx;
    const float qy = y / ry;
    const float qz = z / rz;
    const float k = std::sqrt(qx * qx + qy * qy + qz * qz);
    // Approximate SDF (exact ellipsoid SDF has no closed form).
    return (k - 1.0f) * std::min(std::min(rx, ry), rz);
}

/** Calls `f` with `prim`'s SDF, as a callable on center-relative
 *  coordinates, and returns what `f` returns. */
template <class F>
decltype(auto)
withSdf(const Primitive &prim, F &&f)
{
    using Shape = Primitive::Shape;
    const Vec3 a = prim.params;
    switch (prim.shape) {
      case Shape::Sphere:
        return f([r = a.x](float x, float y, float z) {
            return sdSphere(x, y, z, r);
        });
      case Shape::Box:
        return f([a](float x, float y, float z) {
            return sdBox(x, y, z, a.x, a.y, a.z);
        });
      case Shape::Torus:
        return f([a](float x, float y, float z) {
            return sdTorus(x, y, z, a.x, a.y);
        });
      case Shape::CylinderY:
        return f([a](float x, float y, float z) {
            return sdCylinderY(x, y, z, a.x, a.y);
        });
      case Shape::Ellipsoid:
        break;
    }
    return f([a](float x, float y, float z) {
        return sdEllipsoid(x, y, z, a.x, a.y, a.z);
    });
}

/** Logistic falloff through the surface: smooth density the hash grid
 *  + MLP can fit well while keeping crisp silhouettes. Returns the term
 *  t = 1 + exp(d / softness); density is amp / t, occupancy 1 / t. */
inline float
falloff(float d, float softness)
{
    return 1.0f + std::exp(d / softness);
}

inline float
falloff(const Primitive &prim, const Vec3 &pos)
{
    return falloff(prim.sdf(pos), prim.softness);
}

} // namespace

float
Primitive::sdf(const Vec3 &pos) const
{
    const Vec3 p = pos - center;
    return withSdf(*this, [&](auto sd) { return sd(p.x, p.y, p.z); });
}

Vec3
Primitive::baseColor(const Vec3 &pos) const
{
    switch (pattern) {
      case Pattern::Solid:
        return color_a;
      case Pattern::Checker: {
        int cx = static_cast<int>(std::floor(pos.x * pattern_scale));
        int cy = static_cast<int>(std::floor(pos.y * pattern_scale));
        int cz = static_cast<int>(std::floor(pos.z * pattern_scale));
        return ((cx + cy + cz) & 1) ? color_b : color_a;
      }
      case Pattern::GradientY:
        return lerp(color_a, color_b, std::clamp(pos.y, 0.0f, 1.0f));
      case Pattern::StripesX: {
        float s = 0.5f + 0.5f * std::sin(pos.x * pattern_scale * 6.2831853f);
        return lerp(color_a, color_b, s);
      }
    }
    return color_a;
}

AnalyticScene::AnalyticScene(SceneInfo info, std::vector<Primitive> prims)
    : info_(std::move(info)), prims_(std::move(prims))
{
    ASDR_ASSERT(!prims_.empty(), "scene needs at least one primitive");
}

SceneSample
AnalyticScene::sample(const Vec3 &pos, const Vec3 &dir, const float *terms,
                      int nterms) const
{
    float sigma = 0.0f;
    Vec3 color_acc(0.0f);
    float weight_acc = 0.0f;
    for (size_t i = 0; i < prims_.size(); ++i) {
        const Primitive &prim = prims_[i];
        const float t = int(i) < nterms ? terms[i] : falloff(prim, pos);
        float occ = 1.0f / t;
        float s = prim.density_amp * occ;
        if (s < 1e-4f)
            continue;
        sigma += s;
        // Mild view dependence so the color network is exercised; kept
        // small so the paper's color-wise locality (Fig. 8) holds.
        float vd = 0.85f + 0.15f * dot(dir, prim.shade_dir);
        color_acc += prim.baseColor(pos) * (s * vd);
        weight_acc += s;
    }
    SceneSample out;
    out.sigma = std::min(sigma, 200.0f);
    out.color = weight_acc > 0.0f ? clamp01(color_acc / weight_acc)
                                  : Vec3(0.0f);
    return out;
}

float
AnalyticScene::density(const Vec3 &pos, float *terms, int nterms) const
{
    float sigma = 0.0f;
    for (size_t i = 0; i < prims_.size(); ++i) {
        const float t = falloff(prims_[i], pos);
        if (int(i) < nterms)
            terms[i] = t;
        sigma += prims_[i].density_amp / t;
    }
    return std::min(sigma, 200.0f);
}

void
AnalyticScene::densityBatch(const Vec3 *pos, int count, float *sigma,
                            float *terms, int nterms) const
{
    ASDR_ASSERT(count >= 0 && count <= kBatch, "batch of ", count);
    float x[kBatch], y[kBatch], z[kBatch], acc[kBatch], t[kBatch];
    for (int p = 0; p < count; ++p) {
        x[p] = pos[p].x;
        y[p] = pos[p].y;
        z[p] = pos[p].z;
        acc[p] = 0.0f;
    }
    // Per primitive: its SDF over the chunk, then the falloff, then the
    // density sum. The SDF and sum loops vectorize (CMakeLists.txt gives
    // this file the two flags GCC needs for the SDFs), and SIMD lanes
    // round as scalar code does. The falloff is falloff()'s
    // 1 + exp(d / softness) in three passes, its exps in one expBatch
    // call, which returns std::exp's bits.
    for (size_t i = 0; i < prims_.size(); ++i) {
        const Primitive &prim = prims_[i];
        const Vec3 c = prim.center;
        withSdf(prim, [&](auto sd) {
#pragma omp simd
            for (int p = 0; p < count; ++p)
                t[p] = sd(x[p] - c.x, y[p] - c.y, z[p] - c.z);
        });
        const float softness = prim.softness;
#pragma omp simd
        for (int p = 0; p < count; ++p)
            t[p] = t[p] / softness;
        expBatch(t, count, t);
        const float amp = prim.density_amp;
#pragma omp simd
        for (int p = 0; p < count; ++p) {
            t[p] = 1.0f + t[p];
            acc[p] += amp / t[p];
        }
        if (int(i) < nterms)
            for (int p = 0; p < count; ++p)
                terms[p * nterms + int(i)] = t[p];
    }
    for (int p = 0; p < count; ++p)
        sigma[p] = std::min(acc[p], 200.0f);
}

double
AnalyticScene::emptyFraction(float thresh, int samples) const
{
    Rng rng(0xBADC0FFEull, 7);
    int empty = 0;
    for (int i = 0; i < samples; ++i)
        if (density(rng.nextVec3()) < thresh)
            ++empty;
    return double(empty) / double(samples);
}

} // namespace asdr::scene
