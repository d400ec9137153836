/**
 * @file
 * The NGP field's hot kernels -- the batched MLP forward and the two
 * passes of the batched hash encode -- compiled twice from one source
 * (kernels_impl.hpp): once for the build's own target (baseline x86-64
 * unless -DASDR_NATIVE_ARCH=ON) and once for AVX2. dispatched() picks
 * one build per process from the CPU (`__builtin_cpu_supports`), so the
 * default build runs at AVX2 width where the CPU has it and still runs
 * on every x86-64.
 *
 * Every build keeps the scalar oracle's operation order in each lane,
 * and -ffp-contract=off keeps multiply and add apart, so every variant
 * equals Mlp::forward() / HashGrid::encode() bit for bit.
 *
 * Mlp::forwardBatch and HashGrid::encodeBatch call active(); tests and
 * benches run a chosen variant through them with a ScopedVariant.
 */

#ifndef ASDR_NERF_KERNELS_HPP
#define ASDR_NERF_KERNELS_HPP

#include <cstdint>
#include <vector>

#include "util/hashing.hpp"
#include "util/vec.hpp"

namespace asdr::nerf::kernels {

/** One dense layer as the MLP kernel reads it: `w` is out x in,
 *  row-major; `b` holds `out` biases. */
struct LayerView
{
    const float *w = nullptr;
    const float *b = nullptr;
    int in = 0;
    int out = 0;
};

/** Points per MLP lane block; the scratch a caller hands mlp_forward
 *  holds 2 * kMlpLanes * (widest of input and every layer) floats. */
constexpr int kMlpLanes = 16;

/** Points per encode slice: the setup pass writes each corner's lane of
 *  a slice kEncSlice floats apart, and the gather pass reads them so. */
constexpr int kEncSlice = 512;

/** The constants of one hash-grid level that the lookup setup reads. */
struct LevelSetup
{
    float res = 0.0f;    ///< voxels per axis, as float
    int last = 0;        ///< highest voxel coordinate (resolution - 1)
    uint32_t verts = 0;  ///< vertices per axis (dense levels)
    uint32_t mask = 0;   ///< table size - 1 (hashed levels)
    bool dense = false;
};

/**
 * The lookup setup of one point at one level: GridGeometry::locate,
 * trilinearWeights and the 8 corner indices of index(), in
 * voxelVertices() order. This one body serves GridGeometry::gatherSetup
 * and the encode kernel's setup pass, which runs it vectorized across a
 * slice's points; `kDense` picks the indexing rule at compile time, so
 * that loop has no per-point branch.
 *
 * The 8 indices share per-axis partial products, so the hash costs 3
 * multiplies instead of 24; uint32 arithmetic is associative, so the
 * bits equal index()'s. The clamp and min are spelled as std::clamp and
 * std::min define them (a -0 coordinate stays -0), and the body has
 * internal linkage, so the AVX2 build's copy never stands in for the
 * baseline's.
 */
template <bool kDense>
static inline void
setupPoint(const LevelSetup &s, float px, float py, float pz,
           uint32_t idx[8], float w[8])
{
    // locate(): clamp to the cube so boundary samples index valid
    // lattice vertices.
    const float cx = px < 0.0f ? 0.0f : (1.0f < px ? 1.0f : px);
    const float cy = py < 0.0f ? 0.0f : (1.0f < py ? 1.0f : py);
    const float cz = pz < 0.0f ? 0.0f : (1.0f < pz ? 1.0f : pz);
    const float sx = cx * s.res;
    const float sy = cy * s.res;
    const float sz = cz * s.res;
    const int tx = int(sx);
    const int ty = int(sy);
    const int tz = int(sz);
    const int vx = s.last < tx ? s.last : tx;
    const int vy = s.last < ty ? s.last : ty;
    const int vz = s.last < tz ? s.last : tz;

    // trilinearWeights(), the same (wx * wy) * wz products.
    const float fx = sx - float(vx);
    const float fy = sy - float(vy);
    const float fz = sz - float(vz);
    const float wx[2] = {1.0f - fx, fx};
    const float wy[2] = {1.0f - fy, fy};
    const float wz[2] = {1.0f - fz, fz};
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i)
        w[i] = wx[i & 1] * wy[(i >> 1) & 1] * wz[(i >> 2) & 1];

    const uint32_t x0 = uint32_t(vx);
    const uint32_t y0 = uint32_t(vy);
    const uint32_t z0 = uint32_t(vz);
    if constexpr (kDense) {
        // denseIndex(v) = (z*V + y)*V + x; the 8 corners share per-axis
        // partial sums ((z[+1])*V + y[+1])*V and x[+1].
        const uint32_t V = s.verts;
        const uint32_t x1 = x0 + 1u;
        const uint32_t y1 = y0 + 1u;
        const uint32_t zv0 = z0 * V;
        const uint32_t zv1 = (z0 + 1u) * V;
        const uint32_t r0 = (zv0 + y0) * V;
        const uint32_t r1 = (zv0 + y1) * V;
        const uint32_t r2 = (zv1 + y0) * V;
        const uint32_t r3 = (zv1 + y1) * V;
        idx[0] = r0 + x0;
        idx[1] = r0 + x1;
        idx[2] = r1 + x0;
        idx[3] = r1 + x1;
        idx[4] = r2 + x0;
        idx[5] = r2 + x1;
        idx[6] = r3 + x0;
        idx[7] = r3 + x1;
    } else {
        // Eq. (2) hash of all 8 corners from 6 per-axis products:
        // (x+1)*pi = x*pi + pi in uint32, so the corner hashes are XORs
        // of precomputed halves -- identical bits to spatialHash().
        const uint32_t hx0 = x0 * kHashPrime1;
        const uint32_t hx1 = hx0 + kHashPrime1;
        const uint32_t hy0 = y0 * kHashPrime2;
        const uint32_t hy1 = hy0 + kHashPrime2;
        const uint32_t hz0 = z0 * kHashPrime3;
        const uint32_t hz1 = hz0 + kHashPrime3;
        idx[0] = (hx0 ^ hy0 ^ hz0) & s.mask;
        idx[1] = (hx1 ^ hy0 ^ hz0) & s.mask;
        idx[2] = (hx0 ^ hy1 ^ hz0) & s.mask;
        idx[3] = (hx1 ^ hy1 ^ hz0) & s.mask;
        idx[4] = (hx0 ^ hy0 ^ hz1) & s.mask;
        idx[5] = (hx1 ^ hy0 ^ hz1) & s.mask;
        idx[6] = (hx0 ^ hy1 ^ hz1) & s.mask;
        idx[7] = (hx1 ^ hy1 ^ hz1) & s.mask;
    }
}

/** One compiled build of the kernels. */
struct Variant
{
    const char *isa; ///< "baseline" (the build's target) or "avx2"

    /**
     * Runs `count` points through `layers` (ReLU between layers, linear
     * output). Point p reads `in + p * in_stride` and writes
     * `out + p * out_stride`. When `keep` is non-null, keep[li] receives
     * hidden layer li's activations row-major (count x layers[li].out),
     * the record the training forward keeps for backward().
     */
    void (*mlp_forward)(const LayerView *layers, int n_layers,
                        const float *in, int count, int in_stride,
                        float *out, int out_stride, float *const *keep,
                        float *scratch);

    /**
     * Setup pass of one level over a slice of `count` <= kEncSlice
     * points: the 8 corner indices and trilinear weights, corner-major
     * (corner i of point p at [i * kEncSlice + p]).
     */
    void (*encode_setup)(const LevelSetup &s, const Vec3 *pos, int count,
                         uint32_t *idx, float *w);

    /**
     * Gather pass of one level over the slice encode_setup wrote: point
     * p's `features` interpolated features, the sum over corners 0..7 of
     * w * table entry, written at `out + p * out_stride`.
     */
    void (*encode_gather)(const float *table, int features,
                          const uint32_t *idx, const float *w, int count,
                          float *out, int out_stride);
};

/** The build for the compile target; runs on every CPU. */
const Variant &baseline();

/** The variants this CPU can run, baseline first. */
std::vector<const Variant *> available();

/** The variant picked once per process: AVX2 where the build has it
 *  and the CPU runs it, else baseline. */
const Variant &dispatched();

/** The calling thread's ScopedVariant if one is live, else
 *  dispatched(). */
const Variant &active();

/** Runs the calling thread's kernels on `v` while in scope. */
class ScopedVariant
{
  public:
    explicit ScopedVariant(const Variant &v);
    ~ScopedVariant();
    ScopedVariant(const ScopedVariant &) = delete;
    ScopedVariant &operator=(const ScopedVariant &) = delete;

  private:
    const Variant *prev_;
};

} // namespace asdr::nerf::kernels

#endif // ASDR_NERF_KERNELS_HPP
