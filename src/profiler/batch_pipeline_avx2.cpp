/**
 * @file
 * AVX2 batch kernel for the per-chunk envelope -> normalise ->
 * dip-detect pipeline.  See batch_pipeline.hpp for the parity
 * contract; this file is compiled with -mavx2 (and intentionally
 * without -mfma, so every arithmetic operation rounds exactly like the
 * plain-C streaming reference).
 *
 * Structure, per normalisation-window-sized block (the VHGW
 * sliding-min/max decomposition, with suffixScanBlock below):
 *
 *  1. a backward vector scan builds the block's suffix-extrema tables
 *     (and, as a by-product, the block totals);
 *  2. a forward pass walks the block one vector at a time keeping only
 *     per-lane running extrema (one min/max per vector — not the full
 *     prefix scan), and *screens* each vector: using the block totals
 *     of this and the previous block, it derives a conservative bound
 *     `thresh >= 1.05 * enterThreshold * range` valid for every window
 *     ending in the block, and a lane with
 *     `sample - laneRunningMin >= thresh` provably normalises to at
 *     least 1.05x the entry threshold.  A fully screened vector is
 *     disposed of with DipDetector::advance() — by the detector's
 *     contract an exact no-op;
 *  3. a vector that survives the screen (or overlaps the chunk prefix,
 *     an open dip, or the halo boundary) takes the exact path: the
 *     per-lane prefix extrema are reconstructed from the pre-vector
 *     carry (a horizontal reduction of the running extrema) plus an
 *     in-vector scan, combined with the previous block's suffix table,
 *     and the normalisation runs in double precision with the exact
 *     operation sequence of the streaming normaliser.
 *
 * The screen can only *fail* to skip (costing the exact path), never
 * skip a sample whose normalised value could reach the entry
 * threshold: the running lane minimum is a minimum over a subset of
 * the lane's window, so `sample - laneRunningMin` underestimates
 * `sample - windowLow`, and the 5% margin absorbs the float rounding
 * of the bound itself.
 */

#if !defined(__AVX2__)
#error "batch_pipeline_avx2.cpp must be compiled with -mavx2"
#endif

#include "profiler/batch_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <immintrin.h>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "profiler/normalizer.hpp"

namespace emprof::profiler::detail {

namespace {

constexpr float kInfF = std::numeric_limits<float>::infinity();
constexpr double kInfD = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- lane ops
//
// Min and max are selections: _mm256_min_ps(a, b) is `a < b ? a : b`
// lane by lane (max likewise), so for finite inputs the scans below
// pick the same samples as the streaming MinMaxFilter; the parity
// suites (tests/profiler/test_batch_pipeline.cpp) hold them to it bit
// for bit.

float
hmin(__m256 v)
{
    __m128 a = _mm_min_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    a = _mm_min_ps(a, _mm_movehl_ps(a, a));
    a = _mm_min_ss(a, _mm_shuffle_ps(a, a, 1));
    return _mm_cvtss_f32(a);
}

float
hmax(__m256 v)
{
    __m128 a = _mm_max_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    a = _mm_max_ps(a, _mm_movehl_ps(a, a));
    a = _mm_max_ss(a, _mm_shuffle_ps(a, a, 1));
    return _mm_cvtss_f32(a);
}

double
hmin(__m256d v)
{
    __m128d a = _mm_min_pd(_mm256_castpd256_pd128(v),
                           _mm256_extractf128_pd(v, 1));
    a = _mm_min_sd(a, _mm_unpackhi_pd(a, a));
    return _mm_cvtsd_f64(a);
}

double
hmax(__m256d v)
{
    __m128d a = _mm_max_pd(_mm256_castpd256_pd128(v),
                           _mm256_extractf128_pd(v, 1));
    a = _mm_max_sd(a, _mm_unpackhi_pd(a, a));
    return _mm_cvtsd_f64(a);
}

/** Lanes 4h .. 4h+3 of @p v widened to double (exact). */
__m256d
widen(__m256 v, int h)
{
    return _mm256_cvtps_pd(h == 0 ? _mm256_castps256_ps128(v)
                                  : _mm256_extractf128_ps(v, 1));
}

/** Lane k takes lane k - S; the S lanes at the bottom take @p fill. */
template <int S>
__m256
slideUp(__m256 v, __m256 fill)
{
    static_assert(S == 1 || S == 2 || S == 4);
    const __m256i from =
        S == 1   ? _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6)
        : S == 2 ? _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5)
                 : _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3);
    return _mm256_blend_ps(_mm256_permutevar8x32_ps(v, from), fill,
                           (1 << S) - 1);
}

/** Lane k takes lane k + S; the S lanes at the top take @p fill. */
template <int S>
__m256
slideDown(__m256 v, __m256 fill)
{
    static_assert(S == 1 || S == 2 || S == 4);
    const __m256i from =
        S == 1   ? _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 7)
        : S == 2 ? _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 7, 7)
                 : _mm256_setr_epi32(4, 5, 6, 7, 7, 7, 7, 7);
    return _mm256_blend_ps(_mm256_permutevar8x32_ps(v, from), fill,
                           0xFF & ~(0xFF >> S));
}

template <int S>
__m256d
slideDown(__m256d v, __m256d fill)
{
    static_assert(S == 1 || S == 2);
    if constexpr (S == 1)
        return _mm256_blend_pd(
            _mm256_permute4x64_pd(v, _MM_SHUFFLE(3, 3, 2, 1)), fill, 0x08);
    else
        return _mm256_blend_pd(
            _mm256_permute4x64_pd(v, _MM_SHUFFLE(3, 3, 3, 2)), fill, 0x0C);
}

/** In-vector prefix scan: lane k of lo / hi = min / max of v[0..k]. */
void
prefixExtrema(__m256 v, __m256 &lo, __m256 &hi)
{
    const __m256 inf = _mm256_set1_ps(kInfF);
    const __m256 ninf = _mm256_set1_ps(-kInfF);
    lo = _mm256_min_ps(v, slideUp<1>(v, inf));
    lo = _mm256_min_ps(lo, slideUp<2>(lo, inf));
    lo = _mm256_min_ps(lo, slideUp<4>(lo, inf));
    hi = _mm256_max_ps(v, slideUp<1>(v, ninf));
    hi = _mm256_max_ps(hi, slideUp<2>(hi, ninf));
    hi = _mm256_max_ps(hi, slideUp<4>(hi, ninf));
}

/** In-vector suffix scan: lane k of lo / hi = min / max of v[k..7]. */
void
suffixExtrema(__m256 v, __m256 &lo, __m256 &hi)
{
    const __m256 inf = _mm256_set1_ps(kInfF);
    const __m256 ninf = _mm256_set1_ps(-kInfF);
    lo = _mm256_min_ps(v, slideDown<1>(v, inf));
    lo = _mm256_min_ps(lo, slideDown<2>(lo, inf));
    lo = _mm256_min_ps(lo, slideDown<4>(lo, inf));
    hi = _mm256_max_ps(v, slideDown<1>(v, ninf));
    hi = _mm256_max_ps(hi, slideDown<2>(hi, ninf));
    hi = _mm256_max_ps(hi, slideDown<4>(hi, ninf));
}

void
suffixExtrema(__m256d v, __m256d &lo, __m256d &hi)
{
    const __m256d inf = _mm256_set1_pd(kInfD);
    const __m256d ninf = _mm256_set1_pd(-kInfD);
    lo = _mm256_min_pd(v, slideDown<1>(v, inf));
    lo = _mm256_min_pd(lo, slideDown<2>(lo, inf));
    hi = _mm256_max_pd(v, slideDown<1>(v, ninf));
    hi = _mm256_max_pd(hi, slideDown<2>(hi, ninf));
}

/**
 * The scalar head of a block's suffix scan: samples [0, i) continue
 * the backward fold from the vector part's running extrema @p sm /
 * @p sM.
 */
template <typename T>
void
suffixScanHead(const T *x, std::size_t i, T sm, T sM, T *smin, T *smax)
{
    while (i > 0) {
        --i;
        const T v = x[i];
        sm = v < sm ? v : sm;
        sM = v > sM ? v : sM;
        smin[i] = sm;
        smax[i] = sM;
    }
}

/**
 * Suffix-extrema tables of one VHGW envelope block of @p w samples:
 * smin[j] = min(x[j..w)), smax[j] = max(x[j..w)).  The vectors cover
 * the last 8 * floor(w / 8) samples, back to front; the scalar head
 * the rest.  Kept out of line: inlined into the kernel, the loop's
 * three permute index vectors lose their registers and are reloaded
 * on every vector.
 */
__attribute__((noinline)) void
suffixScanBlock(const float *x, std::size_t w, float *smin, float *smax)
{
    __m256 cmin = _mm256_set1_ps(kInfF);
    __m256 cmax = _mm256_set1_ps(-kInfF);
    std::size_t i = w;
    while (i >= 8) {
        i -= 8;
        __m256 m;
        __m256 M;
        suffixExtrema(_mm256_loadu_ps(x + i), m, M);
        m = _mm256_min_ps(m, cmin);
        M = _mm256_max_ps(M, cmax);
        _mm256_storeu_ps(smin + i, m);
        _mm256_storeu_ps(smax + i, M);
        cmin = _mm256_permutevar8x32_ps(m, _mm256_setzero_si256());
        cmax = _mm256_permutevar8x32_ps(M, _mm256_setzero_si256());
    }
    suffixScanHead(x, i, _mm256_cvtss_f32(cmin), _mm256_cvtss_f32(cmax),
                   smin, smax);
}

void
suffixScanBlock(const double *x, std::size_t w, double *smin, double *smax)
{
    __m256d cmin = _mm256_set1_pd(kInfD);
    __m256d cmax = _mm256_set1_pd(-kInfD);
    std::size_t i = w;
    while (i >= 4) {
        i -= 4;
        __m256d m;
        __m256d M;
        suffixExtrema(_mm256_loadu_pd(x + i), m, M);
        m = _mm256_min_pd(m, cmin);
        M = _mm256_max_pd(M, cmax);
        _mm256_storeu_pd(smin + i, m);
        _mm256_storeu_pd(smax + i, M);
        cmin = _mm256_permute4x64_pd(m, _MM_SHUFFLE(0, 0, 0, 0));
        cmax = _mm256_permute4x64_pd(M, _MM_SHUFFLE(0, 0, 0, 0));
    }
    suffixScanHead(x, i, _mm256_cvtsd_f64(cmin), _mm256_cvtsd_f64(cmax),
                   smin, smax);
}

/**
 * Chunk-side emission state shared by both kernels: the dip-detector
 * state machine (indexed chunk-locally, i.e. 0 at `begin`), the prefix
 * recorder, and the event collector.
 *
 * The detector is open-coded here instead of wrapping a DipDetector so
 * the kernels can lift its state into a register-resident DipCursor:
 * a vector push_back inside the per-lane loop would otherwise force
 * every field through memory on every lane (the compiler must assume
 * the call observes them).  Only the dip *close* — orders of magnitude
 * rarer than a lane step — touches the heap, in a cold out-of-line
 * member.  The transition rules are copied verbatim from
 * DipDetector::push/closeDip, which stays the reference.
 */
struct Emitter
{
    /** The streaming detector state a lane step mutates. */
    struct DipCursor
    {
        uint64_t idx = 0; // samples pushed so far (detector index)
        bool inDip = false;
        uint64_t start = 0;
        uint64_t last = 0; // last sample at or below exit
        double sum = 0.0;
        uint64_t cnt = 0;
    };

    ChunkResult *r;
    const EmProfConfig *cfg;
    uint64_t begin;
    double enterT;
    double exitT;
    uint64_t minDur;
    double prefixExit;
    bool inPrefix = true;
    DipCursor cur;

    Emitter(const EmProfConfig &config, ChunkResult *result)
        : r(result), cfg(&config), begin(result->begin),
          enterT(config.detectorConfig().enterThreshold),
          exitT(config.detectorConfig().exitThreshold),
          minDur(config.detectorConfig().minDurationSamples),
          prefixExit(config.exitThreshold)
    {}

    /** Dip close: emit (classified) if long enough; count a short
     *  one like DipDetector (kept dips are counted by the stitcher). */
    __attribute__((cold, noinline)) void
    closeDip(uint64_t start, uint64_t last, double sum, uint64_t cnt)
    {
        const bool kept = last - start + 1 >= minDur;
        if (kept) {
            StallEvent ev{};
            ev.startSample = start + begin;
            ev.endSample = last + begin;
            ev.depth =
                cnt == 0 ? 0.0 : sum / static_cast<double>(cnt);
            classifyStall(ev, *cfg);
            r->events.push_back(ev);
        }
        if (!kept && obs::MetricsRegistry::enabled()) {
            static const obs::Counter rejected_short =
                obs::MetricsRegistry::instance().counter(
                    "detector.dips_rejected.short_duration");
            rejected_short.inc();
        }
    }

    /** Prefix recording: every norm until the first one above exit. */
    __attribute__((cold)) void
    pushPrefix(double normalized)
    {
        if (normalized > prefixExit)
            inPrefix = false;
        else
            r->prefixNorms.push_back(normalized);
    }

    /** Full streaming push (prefix + detector), Emitter-resident
     *  cursor.  The kernels' careful (halo/prefix) vectors use this;
     *  hot vectors run dipStep on a local cursor instead. */
    inline void push(double normalized);

    /** Detector snapshot in the DipState shape stitching expects. */
    DipDetector::DipState
    state() const
    {
        DipDetector::DipState s;
        s.inDip = cur.inDip;
        s.start = cur.start;
        s.lastBelowExit = cur.last;
        s.depthSum = cur.sum;
        s.depthCount = cur.cnt;
        return s;
    }
};

/**
 * One detector step — DipDetector::push with the cursor in @p c and
 * the thresholds passed by value, so nothing in the hot loop reloads
 * through `em` (the cold closeDip call would otherwise force it).
 */
inline void
dipStep(Emitter &em, Emitter::DipCursor &c, double enterT, double exitT,
        double normalized)
{
    const uint64_t i = c.idx++;
    if (!c.inDip) {
        if (normalized < enterT) {
            c.inDip = true;
            c.start = i;
            c.last = i;
            c.sum = normalized;
            c.cnt = 1;
        }
        return;
    }
    if (normalized > exitT) {
        em.closeDip(c.start, c.last, c.sum, c.cnt);
        c.inDip = false;
        c.sum = 0.0;
        c.cnt = 0;
        return;
    }
    c.last = i;
    c.sum += normalized;
    ++c.cnt;
}

inline void
Emitter::push(double normalized)
{
    if (inPrefix)
        pushPrefix(normalized);
    dipStep(*this, cur, enterT, exitT, normalized);
}

// ---------------------------------------------------------------- classic

/**
 * Forward pass over one classic block.  @p B is the block's offset in
 * the chunk's virtual stream (which starts at begin - halo with a
 * fresh normaliser); samples at virtual index >= @p emitFrom belong to
 * [begin, end) and feed the detector.
 */
void
classicForwardBlock(const float *xb, uint64_t B, std::size_t len,
                    bool first, const float *sprevMin,
                    const float *sprevMax, float threshf,
                    uint64_t emitFrom, double minContrast, Emitter &em)
{
    const __m256 inf8 = _mm256_set1_ps(kInfF);
    const __m256 ninf8 = _mm256_set1_ps(-kInfF);
    const __m256 vthresh = _mm256_set1_ps(threshf);
    const __m256d zero4 = _mm256_setzero_pd();
    const __m256d one4 = _mm256_set1_pd(1.0);
    const __m256d minc4 = _mm256_set1_pd(minContrast);
    __m256 accMin = inf8;
    __m256 accMax = ninf8;

    // Detector state lives in a local cursor for the duration of the
    // block so the lane loop keeps it in registers; only the careful
    // (halo-straddling / prefix) vectors route through the
    // Emitter-resident copy.
    Emitter::DipCursor c = em.cur;
    bool prefixDone = !em.inPrefix;
    const double enterT = em.enterT;
    const double exitT = em.exitT;

    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 v = _mm256_loadu_ps(xb + i);
        const __m256 accMinB = accMin;
        const __m256 accMaxB = accMax;
        accMin = _mm256_min_ps(v, accMin);
        accMax = _mm256_max_ps(v, accMax);
        const uint64_t g = B + i;
        if (g + 8 <= emitFrom)
            continue; // halo warm-up: envelope state only
        if (prefixDone && !c.inDip && g >= emitFrom) {
            const __m256 num = _mm256_sub_ps(v, accMin);
            if (_mm256_movemask_ps(
                    _mm256_cmp_ps(num, vthresh, _CMP_LT_OQ)) == 0) {
                c.idx += 8;
                continue;
            }
        }

        // Exact path: per-lane window extrema = (carry over the block
        // prefix before this vector) + in-vector prefix scan, combined
        // with the previous block's suffix (suffix operand first, as
        // in the streaming filter's combine).
        const __m256 carryMin = _mm256_set1_ps(hmin(accMinB));
        const __m256 carryMax = _mm256_set1_ps(hmax(accMaxB));
        __m256 pmin;
        __m256 pmax;
        prefixExtrema(v, pmin, pmax);
        pmin = _mm256_min_ps(pmin, carryMin);
        pmax = _mm256_max_ps(pmax, carryMax);
        __m256 lo = pmin;
        __m256 hi = pmax;
        if (!first) {
            lo = _mm256_min_ps(_mm256_loadu_ps(sprevMin + i + 1), pmin);
            hi = _mm256_max_ps(_mm256_loadu_ps(sprevMax + i + 1), pmax);
        }

        // Double precision, the streaming operation sequence:
        // range = hi-lo; gate = hi<=0 || range < minContrast*hi;
        // clamp((v-lo)/range, 0, 1).  max(0,x)/min(1,x) reproduce
        // std::clamp bit for bit (including the NaN pass-through).
        double nb[8];
        for (int h = 0; h < 2; ++h) {
            const __m256d lod = widen(lo, h);
            const __m256d hid = widen(hi, h);
            const __m256d vd = widen(v, h);
            const __m256d range = _mm256_sub_pd(hid, lod);
            const __m256d gate = _mm256_or_pd(
                _mm256_cmp_pd(hid, zero4, _CMP_LE_OQ),
                _mm256_cmp_pd(range, _mm256_mul_pd(minc4, hid),
                              _CMP_LT_OQ));
            __m256d nv = _mm256_div_pd(_mm256_sub_pd(vd, lod), range);
            nv = _mm256_max_pd(zero4, nv);
            nv = _mm256_min_pd(one4, nv);
            nv = _mm256_blendv_pd(nv, one4, gate);
            _mm256_storeu_pd(nb + 4 * h, nv);
        }
        if (prefixDone && g >= emitFrom) {
            for (int k = 0; k < 8; ++k)
                dipStep(em, c, enterT, exitT, nb[k]);
        } else {
            em.cur = c;
            for (int k = 0; k < 8; ++k) {
                if (g + static_cast<uint64_t>(k) < emitFrom)
                    continue;
                em.push(nb[k]);
            }
            c = em.cur;
            prefixDone = !em.inPrefix;
        }
    }
    em.cur = c;

    // Scalar tail (len % 8): continue the prefix fold from the vector
    // carry; exact double normalisation.
    float sm = hmin(accMin);
    float sM = hmax(accMax);
    for (; i < len; ++i) {
        const float xv = xb[i];
        sm = xv < sm ? xv : sm;
        sM = xv > sM ? xv : sM;
        float lof = sm;
        float hif = sM;
        if (!first) {
            const float a = sprevMin[i + 1];
            lof = a < lof ? a : lof;
            const float b = sprevMax[i + 1];
            hif = b > hif ? b : hif;
        }
        if (B + i < emitFrom)
            continue;
        const double lo = lof;
        const double hi = hif;
        const double m = xv;
        const double range = hi - lo;
        double normalized;
        if (hi <= 0.0 || range < minContrast * hi)
            normalized = 1.0;
        else
            normalized = std::clamp((m - lo) / range, 0.0, 1.0);
        em.push(normalized);
    }
}

/** Classic kernel over the chunk's whole virtual stream x[0..N). */
void
classicKernel(const float *x, std::size_t N, uint64_t emitFrom,
              const EmProfConfig &config, Emitter &em)
{
    const std::size_t w =
        std::max<std::size_t>(config.normWindowSamples(), 1);

    // Previous/current block suffix tables with a +/-inf sentinel at
    // [w] (handles the prefix-only output branch-free) and slack lanes
    // for unmasked vector loads.  A stream of at most one window is a
    // single block that never reads a previous table, so the tables
    // need only min(w, N) entries.
    const std::size_t table = std::min(w, N) + 8;
    std::vector<float> bufMinA(table, kInfF), bufMaxA(table, -kInfF);
    std::vector<float> bufMinB(table, kInfF), bufMaxB(table, -kInfF);
    float *sprevMin = bufMinA.data();
    float *sprevMax = bufMaxA.data();
    float *scurMin = bufMinB.data();
    float *scurMax = bufMaxB.data();

    const float screenScale =
        static_cast<float>(1.05 * config.enterThreshold);
    float prevMin = kInfF;
    float prevMax = -kInfF;

    const std::size_t nblocks = (N + w - 1) / w;
    for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t B = b * w;
        const std::size_t len = std::min(w, N - B);
        {
            EMPROF_OBS_STAGE("analyze.envelope");
            suffixScanBlock(x + B, len, scurMin, scurMax);
        }
        // Every window ending in this block lies inside prev + cur, so
        // the combined totals bound its range from above.
        const float curMin = scurMin[0];
        const float curMax = scurMax[0];
        const float combMin = prevMin < curMin ? prevMin : curMin;
        const float combMax = prevMax > curMax ? prevMax : curMax;
        const float threshf = screenScale * (combMax - combMin);
        {
            EMPROF_OBS_STAGE("analyze.normalize_detect");
            classicForwardBlock(x + B, B, len, b == 0, sprevMin,
                                sprevMax, threshf, emitFrom,
                                config.minContrast, em);
        }
        std::swap(sprevMin, scurMin);
        std::swap(sprevMax, scurMax);
        prevMin = curMin;
        prevMax = curMax;
    }
}

// -------------------------------------------------------------- resilient

/** One adaptive normalisation, streaming operation order (matches
 *  AdaptiveNormalizer::push after the envelope is known). */
inline double
resilientNorm(double m, double lo, double hi, LogGridSnap &snap,
              double minContrast)
{
    if (hi <= 0.0)
        return 1.0;
    double loCal;
    double hiCal;
    snap.snap(lo, hi, loCal, hiCal);
    const double range = hiCal - loCal;
    if (range < minContrast * hiCal)
        return 1.0;
    return std::clamp((m - loCal) / range, 0.0, 1.0);
}

/**
 * Resilient kernel: boxcar pre-smooth (exact summation order), sliding
 * extrema over the smoothed signal, log-grid snapped normalisation of
 * the raw signal, dip detection — the AdaptiveNormalizer pipeline.
 */
void
resilientKernel(const float *x, std::size_t N, uint64_t emitFrom,
                const EmProfConfig &config, Emitter &em)
{
    const std::size_t w =
        std::max<std::size_t>(config.normWindowSamples(), 1);
    const std::size_t s =
        std::max<std::size_t>(config.smootherSamples(), 1);
    const double dt = config.signal.driftToleranceFraction > 0.0
                          ? config.signal.driftToleranceFraction
                          : 0.05;
    const double minContrast = config.minContrast;
    LogGridSnap snap(dt);       // exact path (memoised, as streaming)
    LogGridSnap screenSnap(dt); // per-block screen bound only

    // The raw samples are widened to double on the fly (float->double
    // is exact, so converting at use matches staging bit for bit and
    // saves a full store+reload pass over the block); only the
    // smoothed block needs a buffer.  Tables are sized as in
    // classicKernel: one block's worth, at most the stream.
    const std::size_t table = std::min(w, N);
    std::vector<double> smBuf(table + 8, 0.0);
    double *sm = smBuf.data();
    std::vector<double> sufMinA(table + 4, kInfD);
    std::vector<double> sufMaxA(table + 4, -kInfD);
    std::vector<double> sufMinB(table + 4, kInfD);
    std::vector<double> sufMaxB(table + 4, -kInfD);
    double *sprevMin = sufMinA.data();
    double *sprevMax = sufMaxA.data();
    double *scurMin = sufMinB.data();
    double *scurMax = sufMaxB.data();

    // Exact reciprocal only for power-of-two windows, as BoxSmoother.
    const bool pow2 = (s & (s - 1)) == 0;
    const double invS = 1.0 / static_cast<double>(s);
    const __m256d invSv = _mm256_set1_pd(invS);
    const __m256d sVec = _mm256_set1_pd(static_cast<double>(s));

    double prevMin = kInfD; // smoothed block totals
    double prevMax = -kInfD;

    const std::size_t nblocks = (N + w - 1) / w;
    for (std::size_t b = 0; b < nblocks; ++b) {
        const std::size_t B = b * w;
        const std::size_t len = std::min(w, N - B);
        const bool first = b == 0;
        {
            EMPROF_OBS_STAGE("analyze.envelope");
            const float *xf = x + B; // this block; history via xf[-t]

            // Boxcar smoother.  Sum order is oldest-to-newest per
            // output (each lane runs its own left-to-right fold), the
            // exact order BoxSmoother uses — bit parity by
            // construction.  Growing warm-up windows exist only while
            // the virtual stream index is below s-1.
            std::size_t j = 0;
            for (; j < len && B + j + 1 < s; ++j) {
                double sum = 0.0;
                for (std::ptrdiff_t t = -static_cast<std::ptrdiff_t>(B);
                     t <= static_cast<std::ptrdiff_t>(j); ++t)
                    sum += static_cast<double>(xf[t]);
                sm[j] = sum / static_cast<double>(B + j + 1);
            }
            const std::ptrdiff_t back =
                static_cast<std::ptrdiff_t>(s) - 1;
            for (; j + 4 <= len; j += 4) {
                const std::ptrdiff_t base =
                    static_cast<std::ptrdiff_t>(j) - back;
                __m256d acc =
                    _mm256_cvtps_pd(_mm_loadu_ps(xf + base));
                for (std::ptrdiff_t t = 1; t <= back; ++t)
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_cvtps_pd(_mm_loadu_ps(xf + base + t)));
                acc = pow2 ? _mm256_mul_pd(acc, invSv)
                           : _mm256_div_pd(acc, sVec);
                _mm256_storeu_pd(sm + j, acc);
            }
            for (; j < len; ++j) {
                double sum = 0.0;
                for (std::ptrdiff_t t =
                         static_cast<std::ptrdiff_t>(j) - back;
                     t <= static_cast<std::ptrdiff_t>(j); ++t)
                    sum += static_cast<double>(xf[t]);
                sm[j] = pow2 ? sum * invS
                             : sum / static_cast<double>(s);
            }

            suffixScanBlock(sm, len, scurMin, scurMax);
        }

        // Screen bound over the snapped envelope.  Snap-up is monotone
        // in hi, so any window ceiling snaps to <= hiCal(combMax), and
        // any window floor snaps to >= lo - dt*hiCal(combMax) >=
        // combMin - dt*hiCal(combMax).  With combMax <= 0 every
        // window's ceiling is <= 0, so every sample normalises to 1.0:
        // a -inf threshold screens them all out.
        const double curMin = scurMin[0];
        const double curMax = scurMax[0];
        const double combMin = prevMin < curMin ? prevMin : curMin;
        const double combMax = prevMax > curMax ? prevMax : curMax;
        double threshd = -kInfD;
        if (combMax > 0.0) {
            double loCalLb;
            double hiCalUb;
            screenSnap.snap(combMin, combMax, loCalLb, hiCalUb);
            const double rangeUb = hiCalUb + dt * hiCalUb - combMin;
            threshd = 1.05 * config.enterThreshold * rangeUb;
        }

        {
            EMPROF_OBS_STAGE("analyze.normalize_detect");
            const __m256d inf4 = _mm256_set1_pd(kInfD);
            const __m256d ninf4 = _mm256_set1_pd(-kInfD);
            const __m256d vthresh = _mm256_set1_pd(threshd);
            __m256d accMin = inf4;
            __m256d accMax = ninf4;
            Emitter::DipCursor c = em.cur;
            bool prefixDone = !em.inPrefix;
            const double enterT = em.enterT;
            const double exitT = em.exitT;
            std::size_t i = 0;
            for (; i + 4 <= len; i += 4) {
                const __m256d smv = _mm256_loadu_pd(sm + i);
                const __m256d accMinB = accMin;
                const __m256d accMaxB = accMax;
                accMin = _mm256_min_pd(smv, accMin);
                accMax = _mm256_max_pd(smv, accMax);
                const uint64_t g = B + i;
                if (g + 4 <= emitFrom)
                    continue;
                if (prefixDone && !c.inDip && g >= emitFrom) {
                    // The raw sample normalises against the *snapped*
                    // floor loCal <= lo <= laneRunningMin(smoothed),
                    // so raw - laneRunningMin underestimates the
                    // normalisation numerator.
                    const __m256d xv =
                        _mm256_cvtps_pd(_mm_loadu_ps(x + B + i));
                    const __m256d num = _mm256_sub_pd(xv, accMin);
                    if (_mm256_movemask_pd(_mm256_cmp_pd(
                            num, vthresh, _CMP_LT_OQ)) == 0) {
                        c.idx += 4;
                        continue;
                    }
                }
                // Exact path, scalar per lane.
                double pmn = hmin(accMinB);
                double pmx = hmax(accMaxB);
                if (prefixDone && g >= emitFrom) {
                    for (int k = 0; k < 4; ++k) {
                        const double svk = sm[i + k];
                        pmn = svk < pmn ? svk : pmn;
                        pmx = svk > pmx ? svk : pmx;
                        double lo = pmn;
                        double hi = pmx;
                        if (!first) {
                            double a = sprevMin[i + k + 1];
                            lo = a < lo ? a : lo;
                            a = sprevMax[i + k + 1];
                            hi = a > hi ? a : hi;
                        }
                        dipStep(em, c, enterT, exitT,
                                resilientNorm(static_cast<double>(x[B + i + k]), lo, hi, snap,
                                              minContrast));
                    }
                } else {
                    em.cur = c;
                    for (int k = 0; k < 4; ++k) {
                        const double svk = sm[i + k];
                        pmn = svk < pmn ? svk : pmn;
                        pmx = svk > pmx ? svk : pmx;
                        double lo = pmn;
                        double hi = pmx;
                        if (!first) {
                            double a = sprevMin[i + k + 1];
                            lo = a < lo ? a : lo;
                            a = sprevMax[i + k + 1];
                            hi = a > hi ? a : hi;
                        }
                        if (g + static_cast<uint64_t>(k) < emitFrom)
                            continue;
                        em.push(resilientNorm(static_cast<double>(x[B + i + k]), lo, hi, snap,
                                              minContrast));
                    }
                    c = em.cur;
                    prefixDone = !em.inPrefix;
                }
            }
            em.cur = c;
            // Scalar tail (len % 4).
            double pmn = hmin(accMin);
            double pmx = hmax(accMax);
            for (; i < len; ++i) {
                const double svk = sm[i];
                pmn = svk < pmn ? svk : pmn;
                pmx = svk > pmx ? svk : pmx;
                double lo = pmn;
                double hi = pmx;
                if (!first) {
                    double a = sprevMin[i + 1];
                    lo = a < lo ? a : lo;
                    a = sprevMax[i + 1];
                    hi = a > hi ? a : hi;
                }
                if (B + i < emitFrom)
                    continue;
                em.push(
                    resilientNorm(static_cast<double>(x[B + i]), lo, hi, snap, minContrast));
            }
        }

        std::swap(sprevMin, scurMin);
        std::swap(sprevMax, scurMax);
        prevMin = curMin;
        prevMax = curMax;
    }
}

// ------------------------------------------------------------ block stats

/**
 * RawStats of one quality block, vectorised.  Bit parity with the
 * streaming BlockAccumulator comes from its 4-way binned sums: lane k
 * of the 4-wide accumulators owns bin k, and every bin's terms are
 * added in index order.  min/max are selections; the counts are exact
 * integers; atMax is counted in a post-pass (the streaming run counter
 * nets out to "occurrences of the final maximum").
 */
SignalBlock
statsBlock(const float *xb, uint64_t bs, uint64_t be,
           const SignalQualityConfig &cfg)
{
    const std::size_t n = static_cast<std::size_t>(be - bs);
    if (n < 8) {
        BlockAccumulator acc;
        acc.begin(bs);
        for (std::size_t i = 0; i < n; ++i)
            acc.push(xb[i]);
        return acc.finish(be, cfg);
    }

    BlockAccumulator::RawStats st;
    st.start = bs;
    st.count = n;

    // Head (samples 0..3): seeds the binned sums (bin k's first term
    // is x[k], added to 0.0 — exact either way) and the scalar stats.
    double mn = xb[0];
    double mx = xb[0];
    uint64_t zeros = 0;
    uint64_t repeats = 0;
    __m256d sumV = _mm256_cvtps_pd(_mm_loadu_ps(xb));
    double abs0[4] = {0.0, 0.0, 0.0, 0.0};
    for (int k = 1; k < 4; ++k) {
        const double xk = xb[k];
        const double xp = xb[k - 1];
        if (xk < mn)
            mn = xk;
        if (xk > mx)
            mx = xk;
        abs0[k] = std::fabs(xk - xp);
        if (xk == xp)
            ++repeats;
    }
    for (int k = 0; k < 4; ++k)
        if (xb[k] == 0.0f)
            ++zeros;
    __m256d absV = _mm256_loadu_pd(abs0);

    const __m256d zero4 = _mm256_setzero_pd();
    const __m256d signbit = _mm256_set1_pd(-0.0);
    __m256d minV = _mm256_set1_pd(kInfD);
    __m256d maxV = _mm256_set1_pd(-kInfD);
    std::size_t j = 4;
    for (; j + 4 <= n; j += 4) {
        const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(xb + j));
        const __m256d xp = _mm256_cvtps_pd(_mm_loadu_ps(xb + j - 1));
        sumV = _mm256_add_pd(sumV, xv);
        absV = _mm256_add_pd(
            absV, _mm256_andnot_pd(signbit, _mm256_sub_pd(xv, xp)));
        minV = _mm256_min_pd(xv, minV);
        maxV = _mm256_max_pd(xv, maxV);
        zeros += static_cast<uint64_t>(
            __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_cmp_pd(xv, zero4, _CMP_EQ_OQ)))));
        repeats += static_cast<uint64_t>(
            __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_cmp_pd(xv, xp, _CMP_EQ_OQ)))));
    }
    double sums[4];
    double abss[4];
    _mm256_storeu_pd(sums, sumV);
    _mm256_storeu_pd(abss, absV);
    {
        const double vm = hmin(minV);
        const double vM = hmax(maxV);
        if (vm < mn)
            mn = vm;
        if (vM > mx)
            mx = vM;
    }
    // Scalar tail continues every bin in index order.
    double prev = xb[j - 1];
    for (; j < n; ++j) {
        const double xk = xb[j];
        sums[j & 3] += xk;
        abss[j & 3] += std::fabs(xk - prev);
        if (xk < mn)
            mn = xk;
        if (xk > mx)
            mx = xk;
        if (xk == 0.0)
            ++zeros;
        if (xk == prev)
            ++repeats;
        prev = xk;
    }

    st.min = mn;
    st.max = mx;
    st.zeros = zeros;
    st.repeats = repeats;
    for (int k = 0; k < 4; ++k) {
        st.sum[k] = sums[k];
        st.sumAbsDx[k] = abss[k];
    }

    // atMax post-pass: count samples equal to the block maximum (the
    // value is a float sample widened, so the narrowing is exact).
    const float fmx = static_cast<float>(mx);
    const __m256 mv = _mm256_set1_ps(fmx);
    uint64_t atMax = 0;
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8)
        atMax += static_cast<uint64_t>(
            __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(
                _mm256_cmp_ps(_mm256_loadu_ps(xb + k), mv,
                              _CMP_EQ_OQ)))));
    for (; k < n; ++k)
        if (xb[k] == fmx)
            ++atMax;
    st.atMax = atMax;

    return BlockAccumulator::classifyStats(st, be, cfg);
}

} // namespace

ChunkResult
analyzeChunkBatchAvx2(const dsp::Sample *data, uint64_t dataBegin,
                      uint64_t begin, uint64_t end, bool is_final,
                      const EmProfConfig &config)
{
    ChunkResult r;
    r.begin = begin;
    r.end = end;
    r.events = EventListPool::shared().take();

    // The kernel runs over the chunk's *virtual stream*: halo + body,
    // exactly the samples the streaming reference feeds its fresh
    // normaliser.  Outputs below `halo` warm the envelope only.
    const uint64_t halo = std::min<uint64_t>(begin, config.haloSamples());
    const uint64_t fstart = begin - halo;
    const float *x =
        data + static_cast<std::size_t>(fstart - dataBegin);
    const std::size_t N = static_cast<std::size_t>(end - fstart);

    Emitter em(config, &r);
    if (config.signal.enabled) {
        resilientKernel(x, N, halo, config, em);
        {
            EMPROF_OBS_STAGE("analyze.block_stats");
            const uint64_t q =
                std::max<uint64_t>(config.qualityBlockSamples(), 1);
            for (uint64_t bs = (begin / q) * q; bs < end; bs += q) {
                uint64_t be = bs + q;
                if (be > end) {
                    if (!is_final)
                        break; // next chunk owns it
                    be = end;
                }
                r.blocks.push_back(statsBlock(
                    x + static_cast<std::size_t>(bs - fstart), bs, be,
                    config.signal));
            }
        }
    } else {
        classicKernel(x, N, halo, config, em);
    }

    r.open = em.state();
    if (r.open.inDip) {
        r.open.start += begin;
        r.open.lastBelowExit += begin;
    }
    return r;
}

} // namespace emprof::profiler::detail
