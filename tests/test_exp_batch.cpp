/**
 * @file
 * expBatch against libm: the build picked for this process must return
 * std::exp's bits on every input, NaN payloads included, at every
 * length and in place. The inputs reach std::exp at run time (through
 * volatile), so GCC cannot fold a call with its own correctly rounded
 * result.
 *
 * ExpBatch.DISABLED_EqualsLibmOnEveryFloat sweeps all 2^32 floats
 * (about 40 s); CI runs it, and runs
 * ExpBatch.PicksTheFmaBuildWhereLibmRunsIt again under
 * GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA, where glibc runs its
 * non-FMA expf and the selector must fall back to the std::exp loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nerf/kernels.hpp"
#include "util/exp_batch.hpp"
#include "util/exp_batch_table.hpp"

using namespace asdr;

namespace {

float
fromBits(uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof f);
    return f;
}

uint32_t
bitsOf(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

float
libmExp(float x)
{
    volatile float v = x;
    return std::exp(float(v));
}

std::string
hex(float f)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a (0x%08x)", double(f), bitsOf(f));
    return buf;
}

/** Counts the outputs `got` of expBatch over `in` whose bits differ
 *  from std::exp's; the first few go to `report`. */
int
mismatches(const std::vector<float> &in, const std::vector<float> &got,
           std::string &report)
{
    int bad = 0;
    for (size_t i = 0; i < in.size(); ++i) {
        const float want = libmExp(in[i]);
        if (bitsOf(got[i]) != bitsOf(want) && ++bad <= 8)
            report += "exp(" + hex(in[i]) + "): libm " + hex(want) +
                      ", batch " + hex(got[i]) + "\n";
    }
    return bad;
}

/** Every float bit pattern 0, stride, 2 * stride, ... below 2^32, in
 *  chunks of 4,096. */
void
sweep(uint64_t stride)
{
    std::vector<float> in, out(4096);
    in.reserve(4096);
    std::string report;
    int bad = 0;
    for (uint64_t b = 0; b < (uint64_t(1) << 32); b += stride) {
        in.push_back(fromBits(uint32_t(b)));
        if (in.size() == 4096 || b + stride >= (uint64_t(1) << 32)) {
            expBatch(in.data(), int(in.size()), out.data());
            bad += mismatches(in, out, report);
            in.clear();
        }
    }
    EXPECT_EQ(bad, 0) << expBatchIsa() << " build:\n" << report;
}

} // namespace

TEST(ExpBatch, EqualsLibmOnEvery97thFloat)
{
    sweep(97);
}

TEST(ExpBatch, EqualsLibmOnSpecialValuesAndThresholds)
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> in = {
        0.0f, -0.0f, inf, -inf,
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        -std::numeric_limits<float>::signaling_NaN(),
        fromBits(0x7fc12345u), fromBits(0xff812345u), // payloads
        88.0f, -88.0f,
        0x1.62e42ep6f,   // largest x whose exp is finite
        -0x1.9fe368p6f,  // below it exp underflows to 0
        std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
        // The selector's probes: glibc's FMA and non-FMA builds differ
        // on the first two, and round away from exp's exact value on
        // the rest.
        0x1.04845ep+5f, -0x1.f8cbb2p+5f, 0x1.af1eaep+1f, 0x1.1cba6ep-8f,
        0x1.ff01acp+4f,
    };
    // Both sides of 88 and of each threshold, a few ULPs out.
    for (const float edge : {88.0f, -88.0f, 0x1.62e42ep6f, -0x1.9fe368p6f}) {
        float lo = edge, hi = edge;
        for (int k = 0; k < 4; ++k) {
            lo = std::nextafter(lo, -inf);
            hi = std::nextafter(hi, inf);
            in.push_back(lo);
            in.push_back(hi);
        }
    }
    // Subnormal results: exp(x) < 2^-126 from x < -87.34, through the
    // vector lanes up to -88 and through std::exp beyond.
    for (float x = -87.0f; x > -104.5f; x -= 0.0371f)
        in.push_back(x);
    for (float x = -87.5f; x > -88.0f; x = std::nextafter(x, -inf))
        if (bitsOf(x) % 61 == 0)
            in.push_back(x);
    // Out of place, then in place.
    std::vector<float> out(in.size());
    expBatch(in.data(), int(in.size()), out.data());
    std::string report;
    EXPECT_EQ(mismatches(in, out, report), 0) << expBatchIsa()
                                              << " build:\n" << report;
    out = in;
    expBatch(out.data(), int(out.size()), out.data());
    EXPECT_EQ(mismatches(in, out, report), 0) << "in place:\n" << report;
}

TEST(ExpBatch, EveryLengthAndTailWritesOnlyItsOutputs)
{
    // Lengths 0-67 at every offset into the buffer run each tail of
    // the 4-lane body, out of place and in place; the floats around the
    // outputs must stay untouched. Every 9th input is special.
    std::vector<float> src(80);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = i % 9 == 4 ? 90.0f + float(i) : -20.0f + 0.53f * float(i);
    for (int n = 0; n <= 67; ++n) {
        for (int at = 0; at < 4; ++at) {
            for (const bool inplace : {false, true}) {
                std::vector<float> out(size_t(at + n + 4), 12345.0f);
                const float *in = src.data() + at;
                if (inplace) {
                    std::copy(in, in + n, out.begin() + at);
                    in = out.data() + at;
                }
                expBatch(in, n, out.data() + at);
                for (int i = 0; i < at; ++i)
                    EXPECT_EQ(out[size_t(i)], 12345.0f);
                for (int i = 0; i < n; ++i)
                    ASSERT_EQ(bitsOf(out[size_t(at + i)]),
                              bitsOf(libmExp(src[size_t(at + i)])))
                        << "n " << n << " at " << at << " i " << i
                        << (inplace ? " in place" : "");
                for (int i = at + n; i < at + n + 4; ++i)
                    EXPECT_EQ(out[size_t(i)], 12345.0f) << "n " << n;
            }
        }
    }
}

TEST(ExpBatch, TableHoldsTwoToTheIOver32)
{
    // glibc's table: 2^(i/32) rounded to double, less i << 47.
    for (int i = 0; i < 32; ++i) {
        const double want = double(std::exp2l((long double)i / 32));
        uint64_t bits;
        std::memcpy(&bits, &want, sizeof bits);
        EXPECT_EQ(kExpTab[i] + (uint64_t(i) << 47), bits) << "entry " << i;
    }
}

TEST(ExpBatch, PicksTheFmaBuildWhereLibmRunsIt)
{
    const std::string isa = expBatchIsa();
    RecordProperty("exp_batch_isa", isa);
    // glibc's FMA and non-FMA builds round this probe apart.
    const bool libm_fma =
        bitsOf(libmExp(0x1.04845ep+5f)) == bitsOf(0x1.f93e38p+46f);
    if (isa == "fma") {
        EXPECT_TRUE(libm_fma);
    }
#if defined(__x86_64__)
    // glibc runs its FMA build where the CPU has AVX2 and FMA; there
    // the port must run, never the std::exp loop.
    __builtin_cpu_init();
    if (libm_fma && __builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma")) {
        EXPECT_EQ(isa, "fma");
    }
#endif
    // The NGP kernels' per-thread override does not reach it.
    nerf::kernels::ScopedVariant scoped(nerf::kernels::baseline());
    EXPECT_EQ(std::string(expBatchIsa()), isa);
}

TEST(ExpBatch, DISABLED_EqualsLibmOnEveryFloat)
{
    sweep(1);
}
