#include "core/adaptive_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/logging.hpp"

namespace asdr::core {

AdaptiveSampler::AdaptiveSampler(const RenderConfig &cfg) : cfg_(cfg)
{
    ASDR_ASSERT(cfg.probe_stride >= 1, "probe stride must be >= 1");
    ASDR_ASSERT(cfg.subset_strides.size() <= 31, "too many subset strides");
    for (int s : cfg.subset_strides)
        ASDR_ASSERT(s >= 2, "subset strides must be >= 2");
}

float
AdaptiveSampler::renderingDifficulty(const Vec3 &full_color,
                                     const Vec3 &subset_color)
{
    return maxAbsDiff(full_color, subset_color);
}

int
AdaptiveSampler::selectCount(const float *sigma, const Vec3 *color,
                             int count, int ns, float dt) const
{
    // The full render and every candidate subset composite in a single
    // pass over the probe ray's already-batched sigma/color buffers
    // (results bit-identical to one composite() call per candidate).
    int strides[32];
    int candidates = 0;
    strides[candidates++] = 1;
    for (int stride : cfg_.subset_strides)
        if (stride < ns)
            strides[candidates++] = stride;
    nerf::CompositeResult res[32];
    nerf::compositeMulti(sigma, color, count, dt, strides, candidates, res);

    // Strides are tried largest-first (fewest points first); the first
    // candidate within the threshold wins, giving the smallest budget.
    for (int k = 1; k < candidates; ++k) {
        float rd = renderingDifficulty(res[0].color, res[k].color);
        if (rd <= cfg_.delta)
            return std::max(cfg_.min_samples,
                            (ns + strides[k] - 1) / strides[k]);
    }
    return ns;
}

int
AdaptiveSampler::subsetAlignment(int ns, int multiple) const
{
    // Once past ns the lcm stays past it, so the cap keeps it in range.
    const int64_t cap = int64_t(ns) + 1;
    int64_t align = std::min<int64_t>(multiple, cap);
    for (int stride : cfg_.subset_strides)
        if (stride < ns)
            align = std::min(std::lcm(align, int64_t(stride)), cap);
    return int(align);
}

void
AdaptiveSampler::probeGridDims(int width, int height, int stride, int &gw,
                               int &gh)
{
    gw = (width + stride - 1) / stride;
    gh = (height + stride - 1) / stride;
}

std::vector<int>
AdaptiveSampler::interpolateCounts(const std::vector<int> &probe_counts,
                                   int gw, int gh, int width,
                                   int height) const
{
    ASDR_ASSERT(probe_counts.size() == size_t(gw) * size_t(gh),
                "probe grid size mismatch");
    std::vector<int> counts(size_t(width) * size_t(height));
    const int d = cfg_.probe_stride;
    auto probe = [&](int gx, int gy) {
        gx = std::clamp(gx, 0, gw - 1);
        gy = std::clamp(gy, 0, gh - 1);
        return float(probe_counts[size_t(gy) * gw + gx]);
    };
    for (int y = 0; y < height; ++y) {
        float gyf = float(y) / float(d);
        int gy0 = int(gyf);
        float fy = gyf - float(gy0);
        for (int x = 0; x < width; ++x) {
            float gxf = float(x) / float(d);
            int gx0 = int(gxf);
            float fx = gxf - float(gx0);
            float top = lerp(probe(gx0, gy0), probe(gx0 + 1, gy0), fx);
            float bot = lerp(probe(gx0, gy0 + 1), probe(gx0 + 1, gy0 + 1), fx);
            int c = int(std::lround(lerp(top, bot, fy)));
            counts[size_t(y) * width + x] =
                std::clamp(c, cfg_.min_samples, cfg_.samples_per_ray);
        }
    }
    return counts;
}

} // namespace asdr::core
