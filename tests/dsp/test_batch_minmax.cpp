/**
 * @file
 * The batch kernels' SIMD dispatch.  The envelope scan behind it is
 * held to the streaming reference by the profiler's BatchPipeline
 * parity suites, which run it inside the AVX2 kernel.
 */

#include <gtest/gtest.h>

#include "dsp/batch_minmax.hpp"

namespace {

using emprof::dsp::SimdVariant;

TEST(BatchMinMax, DispatchReportsAConsistentVariant)
{
    const SimdVariant v = emprof::dsp::activeSimdVariant();
    if (v == SimdVariant::Avx2) {
        EXPECT_TRUE(emprof::dsp::avx2Available());
    }
    EXPECT_STREQ(emprof::dsp::simdVariantName(SimdVariant::Scalar), "scalar");
    EXPECT_STREQ(emprof::dsp::simdVariantName(SimdVariant::Avx2), "avx2");
}

} // namespace
