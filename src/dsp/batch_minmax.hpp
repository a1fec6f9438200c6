/**
 * @file
 * Runtime SIMD dispatch for the batch analysis kernels.
 *
 * The AVX2 profiler kernel (profiler/batch_pipeline_avx2.cpp) builds
 * its VHGW sliding-min/max envelope from the lane ops and block scan
 * in batch_minmax_impl.hpp; this header decides whether it runs.
 *
 * Dispatch: the AVX2 variant is used when (a) the library was built
 * without EMPROF_DISABLE_SIMD, (b) the CPU reports AVX2, and (c) the
 * EMPROF_SIMD environment variable does not force "scalar".
 */

#ifndef EMPROF_DSP_BATCH_MINMAX_HPP
#define EMPROF_DSP_BATCH_MINMAX_HPP

namespace emprof::dsp {

/** Which kernel implementation a batch call runs. */
enum class SimdVariant {
    Scalar = 0,
    Avx2 = 1,
};

/** Human-readable variant name ("scalar" / "avx2"). */
const char *simdVariantName(SimdVariant v);

/**
 * Variant the dispatched entry points will use, after compile options
 * (EMPROF_DISABLE_SIMD), CPU feature detection and the EMPROF_SIMD
 * environment override ("scalar" forces the reference path, "avx2"
 * requests the SIMD path if available).  Cached after the first call.
 */
SimdVariant activeSimdVariant();

/** True if the AVX2 kernels are compiled in and this CPU supports them. */
bool avx2Available();

} // namespace emprof::dsp

#endif // EMPROF_DSP_BATCH_MINMAX_HPP
