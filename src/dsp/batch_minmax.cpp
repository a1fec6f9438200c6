/**
 * @file
 * Runtime SIMD dispatch shared by the batch analysis kernels.
 */

#include "dsp/batch_minmax.hpp"

#include <cstdlib>
#include <cstring>

namespace emprof::dsp {

namespace detail {

static bool
cpuHasAvx2()
{
#if !defined(EMPROF_DISABLE_SIMD) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

static SimdVariant
resolveVariant()
{
    if (!cpuHasAvx2())
        return SimdVariant::Scalar;
    if (const char *env = std::getenv("EMPROF_SIMD")) {
        if (std::strcmp(env, "scalar") == 0)
            return SimdVariant::Scalar;
    }
    return SimdVariant::Avx2;
}

} // namespace detail

const char *
simdVariantName(SimdVariant v)
{
    return v == SimdVariant::Avx2 ? "avx2" : "scalar";
}

bool
avx2Available()
{
    static const bool available = detail::cpuHasAvx2();
    return available;
}

SimdVariant
activeSimdVariant()
{
    static const SimdVariant v = detail::resolveVariant();
    return v;
}

} // namespace emprof::dsp
