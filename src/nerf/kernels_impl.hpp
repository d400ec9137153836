/**
 * @file
 * The kernel bodies behind kernels::Variant, included by exactly two
 * sources: kernels.cpp compiles them for the build's target and
 * kernels_avx2.cpp with -mavx2; each builds its Variant from them.
 *
 * Everything here has internal linkage, and no standard-library
 * template is instantiated, so no out-of-line copy compiled for AVX2
 * can be merged into code that runs on every x86-64.
 */

#ifndef ASDR_NERF_KERNELS_IMPL_HPP
#define ASDR_NERF_KERNELS_IMPL_HPP

#include <cstddef>
#include <cstdint>

#include "nerf/kernels.hpp"

namespace asdr::nerf::kernels {

namespace {

// Native vector width of this build. The MLP's lane block is a whole
// number of these, so GCC keeps every accumulator in a register.
#if defined(__AVX512F__)
constexpr int kVec = 16;
#elif defined(__AVX__)
constexpr int kVec = 8;
#else
constexpr int kVec = 4;
#endif
typedef float Vf __attribute__((vector_size(kVec * sizeof(float))));

static_assert(kMlpLanes % kVec == 0, "lane block is whole vectors");

inline Vf
splat(float s)
{
    Vf v;
    for (int k = 0; k < kVec; ++k)
        v[k] = s;
    return v;
}

inline Vf
loadVf(const float *p)
{
    Vf v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

inline void
storeVf(float *p, Vf v)
{
    __builtin_memcpy(p, &v, sizeof v);
}

/** Vectors per lane block. */
constexpr int kBlockVecs = kMlpLanes / kVec;

/**
 * acc[r][n] = bias[o+r] + w[o+r][0]*lanes0 + w[o+r][1]*lanes1 + ... for
 * R outputs at once: each input lane is loaded once for all R, and the
 * R * kBlockVecs accumulators are independent add chains. Each lane
 * still adds its products in input order, as forward() does.
 */
template <int R>
inline void
accumulate(const LayerView &L, int o, const float *__restrict lanes,
           Vf (&acc)[R][kBlockVecs])
{
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
        const Vf b = splat(L.b[o + r]);
#pragma GCC unroll 8
        for (int n = 0; n < kBlockVecs; ++n)
            acc[r][n] = b;
    }
    const float *__restrict w = L.w + size_t(o) * size_t(L.in);
    for (int i = 0; i < L.in; ++i) {
        Vf x[kBlockVecs];
#pragma GCC unroll 8
        for (int n = 0; n < kBlockVecs; ++n)
            x[n] = loadVf(lanes + size_t(i) * kMlpLanes + size_t(n) * kVec);
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            const float wv = w[size_t(r) * size_t(L.in) + size_t(i)];
#pragma GCC unroll 8
            for (int n = 0; n < kBlockVecs; ++n)
                acc[r][n] += wv * x[n];
        }
    }
}

/** Where one block's layer outputs go. */
struct BlockOut
{
    float *lanes;   ///< next layer's input lanes (hidden layers)
    float *rows;    ///< row-major destination, or null
    int row_stride; ///< floats between rows
    int bn;         ///< live points of the block
};

/** Outputs [o, o + R) of one layer for one block: ReLU into the next
 *  layer's lanes (hidden layers) or the linear value (last layer), and
 *  a row-major copy of the live points when `dst.rows` is set. */
template <int R>
inline void
outputPass(const LayerView &L, int o, bool last, const float *lanes,
           const BlockOut &dst)
{
    Vf acc[R][kBlockVecs];
    accumulate<R>(L, o, lanes, acc);
    float out_lanes[R * kMlpLanes];
    float *v = last ? out_lanes : dst.lanes + size_t(o) * kMlpLanes;
    const Vf zero = {};
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
        for (int n = 0; n < kBlockVecs; ++n)
            // std::max(acc, 0.0f): a -0 or NaN sum passes through.
            storeVf(v + r * kMlpLanes + n * kVec,
                    last ? acc[r][n]
                         : (acc[r][n] < zero ? zero : acc[r][n]));
    if (dst.rows)
        for (int p = 0; p < dst.bn; ++p)
            for (int r = 0; r < R; ++r)
                dst.rows[size_t(p) * size_t(dst.row_stride) +
                         size_t(o + r)] = v[r * kMlpLanes + p];
}

/** Outputs [o, L.out): passes of R outputs, then one narrower pass for
 *  what is left. */
template <int R>
inline void
layerOutputs(const LayerView &L, int o, bool last, const float *lanes,
             const BlockOut &dst)
{
    for (; o + R <= L.out; o += R)
        outputPass<R>(L, o, last, lanes, dst);
    if constexpr (R > 1)
        if (o < L.out)
            layerOutputs<R - 1>(L, o, last, lanes, dst);
}

/** Outputs per pass: as many as keep the accumulators within 8 vector
 *  registers, at most 4 (4 on AVX2, 2 on SSE2). */
constexpr int kOutputsPerPass = 8 / kBlockVecs < 4 ? 8 / kBlockVecs : 4;

/** Points p0 .. p0 + bn (bn <= kMlpLanes) through every layer. A
 *  block's activations are held feature-major (lane p of feature i at
 *  [i * kMlpLanes + p]), so each weight row streams once per block. */
void
forwardBlock(const LayerView *layers, int n_layers, const float *in,
             int in_stride, float *out, int out_stride, float *const *keep,
             int p0, int bn, float *lanes_a, float *lanes_b)
{
    // Transpose the block's inputs into lanes; dead lanes are zeroed so
    // the arithmetic stays finite.
    for (int i = 0; i < layers[0].in; ++i) {
        float *lane = lanes_a + size_t(i) * kMlpLanes;
        for (int p = 0; p < bn; ++p)
            lane[p] =
                in[size_t(p0 + p) * size_t(in_stride) + size_t(i)];
        for (int p = bn; p < kMlpLanes; ++p)
            lane[p] = 0.0f;
    }
    float *src = lanes_a;
    float *dst = lanes_b;
    for (int li = 0; li < n_layers; ++li) {
        const LayerView &L = layers[li];
        const bool last = li + 1 == n_layers;
        BlockOut o{dst, nullptr, L.out, bn};
        if (last) {
            o.rows = out + size_t(p0) * size_t(out_stride);
            o.row_stride = out_stride;
        } else if (keep) {
            o.rows = keep[li] + size_t(p0) * size_t(L.out);
        }
        layerOutputs<kOutputsPerPass>(L, 0, last, src, o);
        float *t = src;
        src = dst;
        dst = t;
    }
}

void
mlpForward(const LayerView *layers, int n_layers, const float *in,
           int count, int in_stride, float *out, int out_stride,
           float *const *keep, float *scratch)
{
    int width = layers[0].in;
    for (int li = 0; li < n_layers; ++li)
        width = layers[li].out > width ? layers[li].out : width;
    float *lanes_a = scratch;
    float *lanes_b = scratch + size_t(width) * kMlpLanes;
    for (int p0 = 0; p0 < count; p0 += kMlpLanes) {
        const int bn = count - p0 < kMlpLanes ? count - p0 : kMlpLanes;
        forwardBlock(layers, n_layers, in, in_stride, out, out_stride, keep,
                     p0, bn, lanes_a, lanes_b);
    }
}

template <bool kDense>
inline void
setupSlice(const LevelSetup &s, const Vec3 *__restrict pos, int count,
           uint32_t *__restrict idx, float *__restrict w)
{
    for (int p = 0; p < count; ++p) {
        uint32_t ci[8];
        float cw[8];
        setupPoint<kDense>(s, pos[p].x, pos[p].y, pos[p].z, ci, cw);
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            idx[i * kEncSlice + p] = ci[i];
            w[i * kEncSlice + p] = cw[i];
        }
    }
}

void
encodeSetup(const LevelSetup &s, const Vec3 *pos, int count, uint32_t *idx,
            float *w)
{
    if (s.dense)
        setupSlice<true>(s, pos, count, idx, w);
    else
        setupSlice<false>(s, pos, count, idx, w);
}

/** Points per register block of the gather pass. */
constexpr int kEncBlock = 64;

/**
 * Gather + interpolate, register-blocked across points. Each feature
 * accumulates corners 0..7 in order, as the scalar interpolate does, so
 * results are bit-identical; the level's table segment is the only
 * gathered region, so it alone streams through the cache.
 */
void
encodeGather(const float *__restrict table, int features,
             const uint32_t *__restrict idx, const float *__restrict w,
             int count, float *out, int out_stride)
{
    for (int p0 = 0; p0 < count; p0 += kEncBlock) {
        const int bn = count - p0 < kEncBlock ? count - p0 : kEncBlock;
        if (features == 2) {
            // The common NGP config: both features of a corner share one
            // 8-byte entry.
            float acc0[kEncBlock];
            float acc1[kEncBlock];
            for (int p = 0; p < bn; ++p) {
                acc0[p] = 0.0f;
                acc1[p] = 0.0f;
            }
            for (int i = 0; i < 8; ++i) {
                const uint32_t *__restrict ci =
                    idx + i * kEncSlice + p0;
                const float *__restrict cw =
                    w + i * kEncSlice + p0;
#pragma omp simd
                for (int p = 0; p < bn; ++p) {
                    const float *__restrict e = table + size_t(ci[p]) * 2;
                    acc0[p] += cw[p] * e[0];
                    acc1[p] += cw[p] * e[1];
                }
            }
            for (int p = 0; p < bn; ++p) {
                float *dst = out + size_t(p0 + p) * size_t(out_stride);
                dst[0] = acc0[p];
                dst[1] = acc1[p];
            }
            continue;
        }
        for (int f = 0; f < features; ++f) {
            float acc[kEncBlock];
            for (int p = 0; p < bn; ++p)
                acc[p] = 0.0f;
            for (int i = 0; i < 8; ++i) {
                const uint32_t *__restrict ci =
                    idx + i * kEncSlice + p0;
                const float *__restrict cw =
                    w + i * kEncSlice + p0;
#pragma omp simd
                for (int p = 0; p < bn; ++p)
                    acc[p] += cw[p] * table[size_t(ci[p]) *
                                                size_t(features) +
                                            size_t(f)];
            }
            for (int p = 0; p < bn; ++p)
                out[size_t(p0 + p) * size_t(out_stride) + size_t(f)] =
                    acc[p];
        }
    }
}

} // namespace

} // namespace asdr::nerf::kernels

#endif // ASDR_NERF_KERNELS_IMPL_HPP
