/**
 * @file
 * The baseline build of the kernels (kernels_impl.hpp for the build's
 * own target) and the one-time choice between it and the AVX2 build.
 */

#include "nerf/kernels_impl.hpp"

namespace asdr::nerf::kernels {

/** The AVX2 build (kernels_avx2.cpp), or null where the build has
 *  none. */
const Variant *avx2Build();

namespace {

const Variant kBaseline{"baseline", mlpForward, encodeSetup, encodeGather};

/** The AVX2 build if this CPU runs it, else null. */
const Variant *
avx2IfSupported()
{
#if defined(__x86_64__) || defined(__i386__)
    // A plain CPUID test, not GCC's target_clones: its ifunc resolver
    // runs before ThreadSanitizer's runtime is up, and g++ 12's
    // -fsanitize=thread binaries then crash at start-up.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return avx2Build();
#endif
    return nullptr;
}

thread_local const Variant *tl_forced = nullptr;

} // namespace

const Variant &
baseline()
{
    return kBaseline;
}

std::vector<const Variant *>
available()
{
    std::vector<const Variant *> out{&kBaseline};
    if (const Variant *v = avx2IfSupported())
        out.push_back(v);
    return out;
}

const Variant &
dispatched()
{
    static const Variant *const chosen = [] {
        const Variant *v = avx2IfSupported();
        return v ? v : &kBaseline;
    }();
    return *chosen;
}

const Variant &
active()
{
    return tl_forced ? *tl_forced : dispatched();
}

ScopedVariant::ScopedVariant(const Variant &v) : prev_(tl_forced)
{
    tl_forced = &v;
}

ScopedVariant::~ScopedVariant()
{
    tl_forced = prev_;
}

} // namespace asdr::nerf::kernels
