#include "nerf/volume_render.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace asdr::nerf {

CompositeResult
composite(const float *sigma, const Vec3 *color, int n, float dt, int stride)
{
    ASDR_ASSERT(stride >= 1, "stride must be >= 1");
    CompositeResult out;
    float transmittance = 1.0f;
    float dt_eff = dt * float(stride);
    for (int i = 0; i < n; i += stride) {
        float alpha = alphaFromSigma(sigma[i], dt_eff);
        float w = transmittance * alpha;
        out.color += color[i] * w;
        transmittance *= (1.0f - alpha);
        if (transmittance < 1e-5f)
            break;
    }
    out.opacity = 1.0f - transmittance;
    return out;
}

CompositeResult
compositeAlphas(const float *alpha, const Vec3 *color, int n)
{
    // Exactly composite()'s per-point update at stride 1.
    CompositeResult out;
    float transmittance = 1.0f;
    for (int i = 0; i < n; ++i) {
        float w = transmittance * alpha[i];
        out.color += color[i] * w;
        transmittance *= (1.0f - alpha[i]);
        if (transmittance < 1e-5f)
            break;
    }
    out.opacity = 1.0f - transmittance;
    return out;
}

void
compositeMulti(const float *sigma, const Vec3 *color, int n, float dt,
               const int *strides, int count, CompositeResult *out)
{
    constexpr int kMax = 32;
    ASDR_ASSERT(count >= 0 && count <= kMax, "too many strides");
    float trans[kMax];
    float dt_eff[kMax];
    int next[kMax]; ///< next point index candidate k consumes
    bool done[kMax];
    for (int k = 0; k < count; ++k) {
        ASDR_ASSERT(strides[k] >= 1, "stride must be >= 1");
        out[k] = CompositeResult{};
        trans[k] = 1.0f;
        dt_eff[k] = dt * float(strides[k]);
        next[k] = 0;
        done[k] = false;
    }
    int active = count;
    for (int i = 0; i < n && active > 0; ++i) {
        for (int k = 0; k < count; ++k) {
            if (next[k] != i)
                continue;
            next[k] += strides[k];
            if (done[k])
                continue;
            // Exactly composite()'s per-point update for candidate k.
            float alpha = alphaFromSigma(sigma[i], dt_eff[k]);
            float w = trans[k] * alpha;
            out[k].color += color[i] * w;
            trans[k] *= (1.0f - alpha);
            if (trans[k] < 1e-5f) {
                done[k] = true;
                --active;
            }
        }
    }
    for (int k = 0; k < count; ++k)
        out[k].opacity = 1.0f - trans[k];
}

int
earlyTerminationIndex(const float *sigma, int n, float dt, float eps)
{
    float transmittance = 1.0f;
    for (int i = 0; i < n; ++i) {
        transmittance *= (1.0f - alphaFromSigma(sigma[i], dt));
        if (transmittance < eps)
            return i + 1;
    }
    return n;
}

} // namespace asdr::nerf
