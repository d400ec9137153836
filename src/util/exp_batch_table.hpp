/**
 * @file
 * glibc's expf table, which expBatch's FMA build (exp_batch_avx2.cpp)
 * reads and test_exp_batch checks against 2^(i/32). It equals the
 * table of __exp2f_data in glibc 2.36's libm byte for byte.
 */

#ifndef ASDR_UTIL_EXP_BATCH_TABLE_HPP
#define ASDR_UTIL_EXP_BATCH_TABLE_HPP

#include <cstdint>

namespace asdr {

/** 2^(i/32) as double bits, less i << 47, so that adding k << 47 for
 *  k = i (mod 32) scales it by 2^((k - i) / 32). */
constexpr uint64_t kExpTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

} // namespace asdr

#endif // ASDR_UTIL_EXP_BATCH_TABLE_HPP
