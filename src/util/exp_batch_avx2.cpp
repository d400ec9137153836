/**
 * @file
 * The FMA build of expBatch: glibc's expf sequence as glibc's own FMA
 * build runs it, over 4 doubles per AVX2 vector. Per lane, for x with
 * |x| < 88:
 *
 *   kd = x * InvLn2N + Shift      k = round(x * 32 / ln 2) in kd's low bits
 *   r  = x * InvLn2N - (kd - Shift)
 *   s  = bits(kExpTab[k % 32] + (k << 47))     2^(k / 32)
 *   y  = ((C0 * r + C1) * r^2 + (C2 * r + 1)) * s
 *
 * in double precision, then rounded to float, with both x * InvLn2N
 * steps and the three polynomial steps fused. The constants equal
 * __exp2f_data in glibc 2.36's libm byte for byte.
 *
 * CMakeLists.txt compiles this file alone with -mavx2 -mfma;
 * exp_batch.cpp calls it only on a CPU with both, and only when libm
 * rounds as it does. Everything here but expBatchFmaBuild has internal
 * linkage, as in nerf/kernels_impl.hpp.
 */

#include "util/exp_batch_table.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace asdr {

/** Processes `n` floats of `in` into `out` (which may be `in`). */
using ExpBatchFn = void (*)(const float *in, int n, float *out);

#if defined(__AVX2__) && defined(__FMA__)
namespace {

constexpr double kInvLn2N = 0x1.71547652b82fep+5; ///< 32 / ln 2
constexpr double kShift = 0x1.8p52; ///< rounds to an integer in the low bits
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;

/**
 * Stores the 4 results `y` of the inputs `xf` at `out`, except that a
 * lane whose input has |x| >= 88 (bits 0x42b00000 and up: larger
 * magnitudes, infinities and NaNs) gets std::exp(x), which handles
 * overflow, underflow and NaN payloads. __builtin_expf is that call
 * without <cmath>'s inline wrapper.
 */
inline void
storeExp4(__m128 xf, __m128 y, float *out)
{
    const __m128i special = _mm_cmpgt_epi32(
        _mm_and_si128(_mm_castps_si128(xf), _mm_set1_epi32(0x7fffffff)),
        _mm_set1_epi32(0x42b00000 - 1));
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(special));
    _mm_storeu_ps(out, y);
    if (mask != 0) {
        float x[4];
        _mm_storeu_ps(x, xf);
        for (int l = 0; l < 4; ++l)
            if (mask & (1 << l))
                out[l] = __builtin_expf(x[l]);
    }
}

inline void
exp4Fma(const float *in, float *out)
{
    const __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
    const __m256d shift = _mm256_set1_pd(kShift);
    const __m128 xf = _mm_loadu_ps(in);
    const __m256d xd = _mm256_cvtps_pd(xf);
    __m256d kd = _mm256_fmadd_pd(xd, inv_ln2n, shift);
    const __m256i ki = _mm256_castpd_si256(kd);
    kd = _mm256_sub_pd(kd, shift);
    const __m256d r = _mm256_fmsub_pd(xd, inv_ln2n, kd);
    __m256i t = _mm256_i64gather_epi64(
        reinterpret_cast<const long long *>(kExpTab),
        _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
    t = _mm256_add_epi64(t, _mm256_slli_epi64(ki, 47));
    const __m256d s = _mm256_castsi256_pd(t);
    const __m256d z =
        _mm256_fmadd_pd(_mm256_set1_pd(kC0), r, _mm256_set1_pd(kC1));
    const __m256d r2 = _mm256_mul_pd(r, r);
    __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
    y = _mm256_fmadd_pd(z, r2, y);
    y = _mm256_mul_pd(y, s);
    storeExp4(xf, _mm256_cvtpd_ps(y), out);
}

/** Runs whole groups of 4, then the tail padded to 4 with zeros in a
 *  local buffer, so every lane runs the same code. */
void
expFma(const float *in, int n, float *out)
{
    int i = 0;
    for (; i + 4 <= n; i += 4)
        exp4Fma(in + i, out + i);
    if (i < n) {
        float buf[4] = {0.0f, 0.0f, 0.0f, 0.0f};
        for (int k = 0; k < n - i; ++k)
            buf[k] = in[i + k];
        exp4Fma(buf, buf);
        for (int k = 0; k < n - i; ++k)
            out[i + k] = buf[k];
    }
}

} // namespace
#endif

/** The FMA build, or null where this build has none. */
ExpBatchFn
expBatchFmaBuild()
{
#if defined(__AVX2__) && defined(__FMA__)
    return expFma;
#else
    return nullptr;
#endif
}

} // namespace asdr
