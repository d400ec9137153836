/**
 * @file
 * The AVX2 build of the kernels: kernels_impl.hpp again, compiled with
 * -mavx2 (CMakeLists.txt). -mavx2 does not enable FMA, so this build
 * has no fused multiply-add to contract into. kernels.cpp calls it only
 * after the CPU reports AVX2.
 */

#include "nerf/kernels.hpp"

#if defined(__AVX2__)
#include "nerf/kernels_impl.hpp"
#endif

namespace asdr::nerf::kernels {

const Variant *
avx2Build()
{
#if defined(__AVX2__)
    static const Variant avx2{"avx2", mlpForward, encodeSetup,
                              encodeGather};
    return &avx2;
#else
    return nullptr;
#endif
}

} // namespace asdr::nerf::kernels
