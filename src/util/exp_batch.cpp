/**
 * @file
 * expBatch's std::exp loop, and the one-time choice between it and the
 * FMA build (exp_batch_avx2.cpp) by what libm returns.
 */

#include "util/exp_batch.hpp"

#include <cmath>
#include <cstring>

namespace asdr {

/** Processes `n` floats of `in` into `out` (which may be `in`). */
using ExpBatchFn = void (*)(const float *in, int n, float *out);

/** The FMA build (exp_batch_avx2.cpp), or null where the build has
 *  none. */
ExpBatchFn expBatchFmaBuild();

namespace {

void
expScalar(const float *in, int n, float *out)
{
    for (int i = 0; i < n; ++i)
        out[i] = std::exp(in[i]);
}

#if defined(__x86_64__)
/**
 * True when `fn` equals libm on every probe: two inputs where glibc's
 * FMA and SSE2 builds round apart (0x1.04845ep+5 gives 0x1.f93e38p+46
 * with FMA and 0x1.f93e36p+46 without; -0x1.f8cbb2p+5 gives
 * 0x1.f45326p-92 and 0x1.f45324p-92), and three where both builds
 * round away from the correctly rounded exp, so that a libm with
 * another algorithm fails too. The inputs pass through volatile so GCC
 * cannot fold std::exp at compile time.
 */
bool
matchesLibm(ExpBatchFn fn)
{
    static const float kProbes[] = {0x1.04845ep+5f, -0x1.f8cbb2p+5f,
                                    0x1.af1eaep+1f, 0x1.1cba6ep-8f,
                                    0x1.ff01acp+4f};
    constexpr int n = int(sizeof kProbes / sizeof kProbes[0]);
    float got[n];
    fn(kProbes, n, got);
    for (int i = 0; i < n; ++i) {
        volatile float x = kProbes[i];
        const float want = std::exp(float(x));
        if (std::memcmp(&got[i], &want, sizeof want) != 0)
            return false;
    }
    return true;
}
#endif

struct ExpBuild
{
    const char *isa;
    ExpBatchFn fn;
};

const ExpBuild &
chosen()
{
    static const ExpBuild build = []() -> ExpBuild {
#if defined(__x86_64__)
        // The CPU test guards only against running instructions it
        // lacks; libm's own results make the choice.
        __builtin_cpu_init();
        const ExpBatchFn fma = expBatchFmaBuild();
        if (fma && __builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("fma") && matchesLibm(fma))
            return {"fma", fma};
#endif
        return {"scalar", expScalar};
    }();
    return build;
}

} // namespace

void
expBatch(const float *in, int n, float *out)
{
    chosen().fn(in, n, out);
}

const char *
expBatchIsa()
{
    return chosen().isa;
}

} // namespace asdr
