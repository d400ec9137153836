#include "nerf/hash_grid.hpp"

#include <algorithm>
#include <cmath>

#include "nerf/kernels.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace asdr::nerf {

GridGeometry::GridGeometry(const HashGridConfig &cfg) : cfg_(cfg)
{
    ASDR_ASSERT(cfg.levels >= 1 && cfg.levels <= 32, "bad level count");
    ASDR_ASSERT(cfg.log2_table_size >= 8 && cfg.log2_table_size <= 24,
                "bad table size");
    ASDR_ASSERT(cfg.max_resolution >= cfg.base_resolution,
                "max resolution below base");

    double growth = 1.0;
    if (cfg.levels > 1) {
        growth = std::exp((std::log(double(cfg.max_resolution)) -
                           std::log(double(cfg.base_resolution))) /
                          double(cfg.levels - 1));
    }

    uint32_t table = 1u << cfg.log2_table_size;
    uint32_t offset = 0;
    for (int l = 0; l < cfg.levels; ++l) {
        GridLevelInfo info;
        info.resolution = int(std::floor(
            double(cfg.base_resolution) * std::pow(growth, double(l)) + 0.5));
        uint64_t lattice = uint64_t(info.resolution + 1) *
                           uint64_t(info.resolution + 1) *
                           uint64_t(info.resolution + 1);
        info.dense = lattice <= table;
        info.table_entries = info.dense ? uint32_t(lattice) : table;
        info.param_offset = offset;
        offset += info.table_entries * uint32_t(cfg.features_per_level);
        levels_.push_back(info);
    }
}

uint32_t
GridGeometry::index(int l, const Vec3i &v) const
{
    const GridLevelInfo &info = levels_[size_t(l)];
    if (info.dense)
        return denseIndex(v, uint32_t(info.resolution + 1));
    return spatialHash(v, cfg_.log2_table_size);
}

int
GridGeometry::denseLevels() const
{
    int n = 0;
    for (const auto &info : levels_)
        if (info.dense)
            ++n;
    return n;
}

size_t
GridGeometry::paramCount() const
{
    size_t total = 0;
    for (const auto &info : levels_)
        total += size_t(info.table_entries) * size_t(cfg_.features_per_level);
    return total;
}

void
GridGeometry::locate(int l, const Vec3 &pos, Vec3i &voxel, Vec3 &frac) const
{
    const GridLevelInfo &info = levels_[size_t(l)];
    float res = float(info.resolution);
    // Clamp to the cube so boundary samples index valid lattice vertices.
    float sx = std::clamp(pos.x, 0.0f, 1.0f) * res;
    float sy = std::clamp(pos.y, 0.0f, 1.0f) * res;
    float sz = std::clamp(pos.z, 0.0f, 1.0f) * res;
    int vx = std::min(int(sx), info.resolution - 1);
    int vy = std::min(int(sy), info.resolution - 1);
    int vz = std::min(int(sz), info.resolution - 1);
    voxel = {vx, vy, vz};
    frac = {sx - float(vx), sy - float(vy), sz - float(vz)};
}

void
GridGeometry::voxelVertices(const Vec3i &voxel, Vec3i out[8])
{
    for (int i = 0; i < 8; ++i) {
        out[i] = {voxel.x + (i & 1), voxel.y + ((i >> 1) & 1),
                  voxel.z + ((i >> 2) & 1)};
    }
}

void
GridGeometry::trilinearWeights(const Vec3 &frac, float out[8])
{
    float wx[2] = {1.0f - frac.x, frac.x};
    float wy[2] = {1.0f - frac.y, frac.y};
    float wz[2] = {1.0f - frac.z, frac.z};
    for (int i = 0; i < 8; ++i)
        out[i] = wx[i & 1] * wy[(i >> 1) & 1] * wz[(i >> 2) & 1];
}

kernels::LevelSetup
GridGeometry::levelSetup(int l) const
{
    const GridLevelInfo &info = levels_[size_t(l)];
    kernels::LevelSetup s;
    s.res = float(info.resolution);
    s.last = info.resolution - 1;
    s.verts = uint32_t(info.resolution + 1);
    s.mask = (1u << cfg_.log2_table_size) - 1u;
    s.dense = info.dense;
    return s;
}

void
GridGeometry::gatherSetup(int l, const Vec3 &pos, uint32_t idx[8],
                          float w[8]) const
{
    const kernels::LevelSetup s = levelSetup(l);
    if (s.dense)
        kernels::setupPoint<true>(s, pos.x, pos.y, pos.z, idx, w);
    else
        kernels::setupPoint<false>(s, pos.x, pos.y, pos.z, idx, w);
}

void
EncodeReuseStats::reset(int levels)
{
    lookups.assign(size_t(levels), 0);
    unique.assign(size_t(levels), 0);
    coherent.assign(size_t(levels), 0);
}

double
EncodeReuseStats::reuseFactor(int level) const
{
    const size_t l = size_t(level);
    if (l >= unique.size() || unique[l] == 0)
        return 1.0;
    return double(lookups[l]) / double(unique[l]);
}

double
EncodeReuseStats::coherentFraction(int level) const
{
    const size_t l = size_t(level);
    if (l >= lookups.size() || lookups[l] == 0)
        return 0.0;
    return double(coherent[l]) / double(lookups[l]);
}

HashGrid::HashGrid(const HashGridConfig &cfg, uint64_t seed) : geom_(cfg)
{
    params_.resize(geom_.paramCount());
    // Instant-NGP initializes embeddings uniformly in [-1e-4, 1e-4].
    uint64_t s = seed;
    for (auto &p : params_) {
        uint64_t r = splitmix64(s);
        p = (float(r >> 40) / float(1 << 24) - 0.5f) * 2e-4f;
    }
}

void
HashGrid::levelInterpolate(int l, const uint32_t idx[8], const float w[8],
                           float *dst) const
{
    const int F = geom_.config().features_per_level;
    const float *base = params_.data() + geom_.level(l).param_offset;
    for (int f = 0; f < F; ++f)
        dst[f] = 0.0f;
    for (int i = 0; i < 8; ++i) {
        const float *entry = base + size_t(idx[i]) * size_t(F);
        for (int f = 0; f < F; ++f)
            dst[f] += w[i] * entry[f];
    }
}

void
HashGrid::encode(const Vec3 &pos, float *out) const
{
    const int F = geom_.config().features_per_level;
    for (int l = 0; l < geom_.levels(); ++l) {
        uint32_t idx[8];
        float w[8];
        geom_.gatherSetup(l, pos, idx, w);
        levelInterpolate(l, idx, w, out + size_t(l) * size_t(F));
    }
}

void
HashGrid::encodeBatch(const Vec3 *pos, int count, float *out,
                      int out_stride, EncodeReuseStats *stats) const
{
    const int F = geom_.config().features_per_level;
    const int L = geom_.levels();
    if (count <= 0)
        return;
    if (stats && int(stats->lookups.size()) != L)
        stats->reset(L);

    // Corner-major SoA workspaces for one slice: corner i of slice
    // point p lives at [i * kEncSlice + p], so the gather pass reads
    // each corner's index/weight lane unit-stride. One slice's
    // workspace is 8 * kEncSlice * 8 bytes = 32 KB, so it stays cache-
    // resident between the setup and gather passes for any batch size.
    using kernels::kEncSlice;
    thread_local std::vector<uint32_t> ws_idx;
    thread_local std::vector<float> ws_w;
    thread_local std::vector<uint32_t> ws_sorted; // stats scratch
    ws_idx.resize(8 * size_t(kEncSlice));
    ws_w.resize(8 * size_t(kEncSlice));
    const kernels::Variant &k = kernels::active();

    for (int l = 0; l < L; ++l) {
        const kernels::LevelSetup setup = geom_.levelSetup(l);
        const float *base = params_.data() + geom_.level(l).param_offset;
        if (stats) {
            ws_sorted.clear();
            ws_sorted.reserve(size_t(count) * 8);
        }
        uint32_t prev[8] = {};
        uint64_t coherent = 0;
        bool has_prev = false;

        for (int c0 = 0; c0 < count; c0 += kEncSlice) {
            const int cn = std::min(kEncSlice, count - c0);
            k.encode_setup(setup, pos + c0, cn, ws_idx.data(), ws_w.data());

            if (stats) {
                for (int i = 0; i < 8; ++i) {
                    const uint32_t *lane = ws_idx.data() +
                                           size_t(i) * kEncSlice;
                    if (has_prev && lane[0] == prev[i])
                        ++coherent;
                    for (int p = 1; p < cn; ++p)
                        if (lane[p] == lane[p - 1])
                            ++coherent;
                    prev[i] = lane[cn - 1];
                    ws_sorted.insert(ws_sorted.end(), lane, lane + cn);
                }
                has_prev = true;
            }

            k.encode_gather(base, F, ws_idx.data(), ws_w.data(), cn,
                            out + size_t(c0) * size_t(out_stride) +
                                size_t(l) * size_t(F),
                            out_stride);
        }

        if (stats) {
            stats->lookups[size_t(l)] += uint64_t(count) * 8;
            stats->coherent[size_t(l)] += coherent;
            std::sort(ws_sorted.begin(), ws_sorted.end());
            uint64_t uniq = 0;
            for (size_t j = 0; j < ws_sorted.size(); ++j)
                if (j == 0 || ws_sorted[j] != ws_sorted[j - 1])
                    ++uniq;
            stats->unique[size_t(l)] += uniq;
        }
    }
}

void
HashGrid::encode(const Vec3 &pos, float *out, EncodeCache &cache) const
{
    const int F = geom_.config().features_per_level;
    const size_t slots = size_t(geom_.levels()) * 8;
    cache.indices.resize(slots);
    cache.weights.resize(slots);
    for (int l = 0; l < geom_.levels(); ++l) {
        uint32_t idx[8];
        float w[8];
        geom_.gatherSetup(l, pos, idx, w);
        for (int i = 0; i < 8; ++i) {
            cache.indices[size_t(l) * 8 + size_t(i)] = idx[i];
            cache.weights[size_t(l) * 8 + size_t(i)] = w[i];
        }
        levelInterpolate(l, idx, w, out + size_t(l) * size_t(F));
    }
}

void
HashGrid::backward(const EncodeCache &cache, const float *dout)
{
    if (grads_.empty())
        grads_.resize(params_.size(), 0.0f);
    const int F = geom_.config().features_per_level;
    for (int l = 0; l < geom_.levels(); ++l) {
        float *base = grads_.data() + geom_.level(l).param_offset;
        for (int i = 0; i < 8; ++i) {
            uint32_t idx = cache.indices[size_t(l) * 8 + i];
            float w = cache.weights[size_t(l) * 8 + i];
            for (int f = 0; f < F; ++f)
                base[size_t(idx) * size_t(F) + f] += w * dout[l * F + f];
        }
    }
}

void
HashGrid::zeroGrad()
{
    std::fill(grads_.begin(), grads_.end(), 0.0f);
}

void
HashGrid::adamStep(float lr, float beta1, float beta2, float eps)
{
    if (grads_.empty())
        return;
    if (adam_m_.empty()) {
        adam_m_.resize(params_.size(), 0.0f);
        adam_v_.resize(params_.size(), 0.0f);
    }
    ++adam_t_;
    float bc1 = 1.0f - std::pow(beta1, float(adam_t_));
    float bc2 = 1.0f - std::pow(beta2, float(adam_t_));
    for (size_t i = 0; i < params_.size(); ++i) {
        float g = grads_[i];
        if (g == 0.0f)
            continue; // sparse update: untouched embeddings skip the step
        adam_m_[i] = beta1 * adam_m_[i] + (1.0f - beta1) * g;
        adam_v_[i] = beta2 * adam_v_[i] + (1.0f - beta2) * g * g;
        float mhat = adam_m_[i] / bc1;
        float vhat = adam_v_[i] / bc2;
        params_[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
}

double
HashGrid::encodeFlops() const
{
    // Per level: weight computation (~12), 8 hash/dense index computations
    // (~6 each), 8 vertices x F features x 2 (mul+add).
    const int F = geom_.config().features_per_level;
    return double(geom_.levels()) * (12.0 + 8.0 * 6.0 + 8.0 * F * 2.0);
}

} // namespace asdr::nerf
