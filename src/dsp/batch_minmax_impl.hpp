/**
 * @file
 * Sliding min/max building blocks of the AVX2 profiler kernel
 * (profiler/batch_pipeline_avx2.cpp, built with -mavx2 and no FMA):
 * generic 8-float / 4-double lane ops over a lane policy, and the
 * backward suffix scan of one VHGW envelope block.  Min/max are pure
 * selections, so for finite inputs the scan reproduces the streaming
 * MinMaxFilter's window extrema bit for bit; the profiler's parity
 * suites (tests/profiler/test_batch_pipeline.cpp) hold it to that.
 */

#ifndef EMPROF_DSP_BATCH_MINMAX_IMPL_HPP
#define EMPROF_DSP_BATCH_MINMAX_IMPL_HPP

#include <cstddef>
#include <limits>

#include "dsp/simd_lanes.hpp"

namespace emprof::dsp::detail {

/** Width-8 float lane ops of policy L, under one generic interface. */
template <class L>
struct OpsF
{
    using T = float;
    using V = typename L::F8;
    static constexpr std::size_t W = 8;
    static V set1(T x) { return L::f8_set1(x); }
    static V loadu(const T *p) { return L::f8_loadu(p); }
    static void storeu(T *p, V v) { L::f8_storeu(p, v); }
    static V vmin(V a, V b) { return L::f8_min(a, b); }
    static V vmax(V a, V b) { return L::f8_max(a, b); }
    static V bcastFirst(V v) { return L::f8_broadcast0(v); }
    static T lane0(V v) { return L::f8_lane0(v); }
    /** In-vector prefix (upward) min log-scan. */
    static V
    scanUpMin(V v, V fill)
    {
        V m = v;
        m = L::f8_min(m, L::template f8_slide_up<1>(m, fill));
        m = L::f8_min(m, L::template f8_slide_up<2>(m, fill));
        m = L::f8_min(m, L::template f8_slide_up<4>(m, fill));
        return m;
    }
    static V
    scanUpMax(V v, V fill)
    {
        V m = v;
        m = L::f8_max(m, L::template f8_slide_up<1>(m, fill));
        m = L::f8_max(m, L::template f8_slide_up<2>(m, fill));
        m = L::f8_max(m, L::template f8_slide_up<4>(m, fill));
        return m;
    }
    /** In-vector suffix (downward) min log-scan. */
    static V
    scanDnMin(V v, V fill)
    {
        V m = v;
        m = L::f8_min(m, L::template f8_slide_dn<1>(m, fill));
        m = L::f8_min(m, L::template f8_slide_dn<2>(m, fill));
        m = L::f8_min(m, L::template f8_slide_dn<4>(m, fill));
        return m;
    }
    static V
    scanDnMax(V v, V fill)
    {
        V m = v;
        m = L::f8_max(m, L::template f8_slide_dn<1>(m, fill));
        m = L::f8_max(m, L::template f8_slide_dn<2>(m, fill));
        m = L::f8_max(m, L::template f8_slide_dn<4>(m, fill));
        return m;
    }
};

/** Width-4 double lane ops of policy L. */
template <class L>
struct OpsD
{
    using T = double;
    using V = typename L::D4;
    static constexpr std::size_t W = 4;
    static V set1(T x) { return L::d4_set1(x); }
    static V loadu(const T *p) { return L::d4_loadu(p); }
    static void storeu(T *p, V v) { L::d4_storeu(p, v); }
    static V vmin(V a, V b) { return L::d4_min(a, b); }
    static V vmax(V a, V b) { return L::d4_max(a, b); }
    static V bcastFirst(V v) { return L::d4_broadcast0(v); }
    static T lane0(V v) { return L::d4_lane0(v); }
    static V
    scanDnMin(V v, V fill)
    {
        V m = v;
        m = L::d4_min(m, L::template d4_slide_dn<1>(m, fill));
        m = L::d4_min(m, L::template d4_slide_dn<2>(m, fill));
        return m;
    }
    static V
    scanDnMax(V v, V fill)
    {
        V m = v;
        m = L::d4_max(m, L::template d4_slide_dn<1>(m, fill));
        m = L::d4_max(m, L::template d4_slide_dn<2>(m, fill));
        return m;
    }
};

/**
 * Suffix-extrema tables of one complete block of @p w samples:
 * smin[j] = min(x[j..w)), smax[j] = max(x[j..w)).
 */
template <class Ops, typename T>
void
suffixScanBlock(const T *x, std::size_t w, T *smin, T *smax)
{
    using V = typename Ops::V;
    constexpr std::size_t W = Ops::W;
    const T inf = std::numeric_limits<T>::infinity();
    const V fmin = Ops::set1(inf);
    const V fmax = Ops::set1(-inf);
    V cmin = fmin;
    V cmax = fmax;
    std::size_t i = w;
    // Vector part covers the final W*floor(w/W) samples; the scalar
    // head (w % W leading samples) continues the same backward fold.
    while (i >= W) {
        i -= W;
        V v = Ops::loadu(x + i);
        V m = Ops::scanDnMin(v, fmin);
        V M = Ops::scanDnMax(v, fmax);
        m = Ops::vmin(m, cmin);
        M = Ops::vmax(M, cmax);
        Ops::storeu(smin + i, m);
        Ops::storeu(smax + i, M);
        cmin = Ops::bcastFirst(m);
        cmax = Ops::bcastFirst(M);
    }
    T sm = Ops::lane0(cmin);
    T sM = Ops::lane0(cmax);
    while (i > 0) {
        --i;
        const T v = x[i];
        sm = v < sm ? v : sm;
        sM = v > sM ? v : sM;
        smin[i] = sm;
        smax[i] = sM;
    }
}

} // namespace emprof::dsp::detail

#endif // EMPROF_DSP_BATCH_MINMAX_IMPL_HPP
