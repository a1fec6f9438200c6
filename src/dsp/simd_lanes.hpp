/**
 * @file
 * AVX2 lane operations of the profiler's batch kernel.
 *
 * lanes::Avx2 supplies the 8-wide float and 4-wide double operations
 * that the generic wrappers in batch_minmax_impl.hpp (OpsF / OpsD) and
 * the kernel in profiler/batch_pipeline_avx2.cpp are written against.
 * It is visible only in translation units built with -mavx2.  No FMA
 * is used anywhere (those units are built without -mfma), so every
 * arithmetic operation rounds exactly like the scalar streaming
 * reference it is held bit-identical to.
 */

#ifndef EMPROF_DSP_SIMD_LANES_HPP
#define EMPROF_DSP_SIMD_LANES_HPP

#if !defined(__AVX2__)
#error "simd_lanes.hpp is only for translation units built with -mavx2"
#endif

#include <immintrin.h>

namespace emprof::dsp::lanes {

/** AVX2 policy; only visible in TUs compiled with -mavx2 (no FMA). */
struct Avx2
{
    using F8 = __m256;
    using D4 = __m256d;

    // ---- 8-wide float ----
    static F8 f8_set1(float x) { return _mm256_set1_ps(x); }
    static F8 f8_loadu(const float *p) { return _mm256_loadu_ps(p); }
    static void f8_storeu(float *p, F8 v) { _mm256_storeu_ps(p, v); }
    static F8 f8_min(F8 a, F8 b) { return _mm256_min_ps(a, b); }
    static F8 f8_max(F8 a, F8 b) { return _mm256_max_ps(a, b); }
    template <int S>
    static F8
    f8_slide_up(F8 v, F8 fill)
    {
        static_assert(S == 1 || S == 2 || S == 4);
        if constexpr (S == 1) {
            __m256 r = _mm256_permutevar8x32_ps(
                v, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6));
            return _mm256_blend_ps(r, fill, 0x01);
        } else if constexpr (S == 2) {
            __m256 r = _mm256_permutevar8x32_ps(
                v, _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5));
            return _mm256_blend_ps(r, fill, 0x03);
        } else {
            __m256 r = _mm256_permutevar8x32_ps(
                v, _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3));
            return _mm256_blend_ps(r, fill, 0x0F);
        }
    }
    template <int S>
    static F8
    f8_slide_dn(F8 v, F8 fill)
    {
        static_assert(S == 1 || S == 2 || S == 4);
        if constexpr (S == 1) {
            __m256 r = _mm256_permutevar8x32_ps(
                v, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 7));
            return _mm256_blend_ps(r, fill, 0x80);
        } else if constexpr (S == 2) {
            __m256 r = _mm256_permutevar8x32_ps(
                v, _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 7, 7));
            return _mm256_blend_ps(r, fill, 0xC0);
        } else {
            __m256 r = _mm256_permutevar8x32_ps(
                v, _mm256_setr_epi32(4, 5, 6, 7, 7, 7, 7, 7));
            return _mm256_blend_ps(r, fill, 0xF0);
        }
    }
    static float f8_lane0(F8 v) { return _mm256_cvtss_f32(v); }
    static F8
    f8_broadcast0(F8 v)
    {
        return _mm256_permutevar8x32_ps(v, _mm256_setzero_si256());
    }
    static float
    f8_hmin(F8 v)
    {
        __m128 a = _mm_min_ps(_mm256_castps256_ps128(v),
                              _mm256_extractf128_ps(v, 1));
        a = _mm_min_ps(a, _mm_movehl_ps(a, a));
        a = _mm_min_ss(a, _mm_shuffle_ps(a, a, 1));
        return _mm_cvtss_f32(a);
    }
    static float
    f8_hmax(F8 v)
    {
        __m128 a = _mm_max_ps(_mm256_castps256_ps128(v),
                              _mm256_extractf128_ps(v, 1));
        a = _mm_max_ps(a, _mm_movehl_ps(a, a));
        a = _mm_max_ss(a, _mm_shuffle_ps(a, a, 1));
        return _mm_cvtss_f32(a);
    }

    // ---- float8 <-> double4 ----
    static D4 cvt_lo(F8 v) { return _mm256_cvtps_pd(_mm256_castps256_ps128(v)); }
    static D4 cvt_hi(F8 v) { return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)); }

    // ---- 4-wide double ----
    static D4 d4_set1(double x) { return _mm256_set1_pd(x); }
    static D4 d4_loadu(const double *p) { return _mm256_loadu_pd(p); }
    static void d4_storeu(double *p, D4 v) { _mm256_storeu_pd(p, v); }
    static D4 d4_min(D4 a, D4 b) { return _mm256_min_pd(a, b); }
    static D4 d4_max(D4 a, D4 b) { return _mm256_max_pd(a, b); }
    template <int S>
    static D4
    d4_slide_dn(D4 v, D4 fill)
    {
        static_assert(S == 1 || S == 2);
        if constexpr (S == 1) {
            __m256d r = _mm256_permute4x64_pd(v, _MM_SHUFFLE(3, 3, 2, 1));
            return _mm256_blend_pd(r, fill, 0x08);
        } else {
            __m256d r = _mm256_permute4x64_pd(v, _MM_SHUFFLE(3, 3, 3, 2));
            return _mm256_blend_pd(r, fill, 0x0C);
        }
    }
    static double d4_lane0(D4 v) { return _mm256_cvtsd_f64(v); }
    static D4
    d4_broadcast0(D4 v)
    {
        return _mm256_permute4x64_pd(v, _MM_SHUFFLE(0, 0, 0, 0));
    }
    static double
    d4_hmin(D4 v)
    {
        __m128d a = _mm_min_pd(_mm256_castpd256_pd128(v),
                               _mm256_extractf128_pd(v, 1));
        a = _mm_min_sd(a, _mm_unpackhi_pd(a, a));
        return _mm_cvtsd_f64(a);
    }
    static double
    d4_hmax(D4 v)
    {
        __m128d a = _mm_max_pd(_mm256_castpd256_pd128(v),
                               _mm256_extractf128_pd(v, 1));
        a = _mm_max_sd(a, _mm_unpackhi_pd(a, a));
        return _mm_cvtsd_f64(a);
    }
};

} // namespace emprof::dsp::lanes

#endif // EMPROF_DSP_SIMD_LANES_HPP
