/**
 * @file
 * A batched expf that equals libm's bit for bit: expBatch writes
 * out[i] = std::exp(in[i]) for a whole array, 4 lanes at a time.
 *
 * glibc's expf is a 32-entry table of 2^(i/32) and a cubic, evaluated in
 * double precision, and where the CPU has AVX2 and FMA, libm runs a
 * build of it that fuses five of its steps. exp_batch_avx2.cpp ports
 * that build with explicit FMAs. It is picked once per process if it
 * equals this process's libm on a set of probe inputs where glibc's
 * builds, or a correctly rounded exp, disagree; anywhere else expBatch
 * runs a std::exp loop. Lanes with |x| >= 88, an infinity or a NaN take
 * std::exp.
 *
 * The choice follows libm, not the CPU (GLIBC_TUNABLES can make glibc
 * take its non-FMA build on an FMA CPU), and nerf::kernels'
 * ScopedVariant does not touch it.
 */

#ifndef ASDR_UTIL_EXP_BATCH_HPP
#define ASDR_UTIL_EXP_BATCH_HPP

namespace asdr {

/** out[i] = std::exp(in[i]) bit for bit, for i < n; `out` may be `in`. */
void expBatch(const float *in, int n, float *out);

/** The build expBatch runs: "fma" (AVX2 + FMA) or "scalar" (a std::exp
 *  loop). */
const char *expBatchIsa();

} // namespace asdr

#endif // ASDR_UTIL_EXP_BATCH_HPP
