/**
 * @file
 * Moving min/max signal normalisation (Sec. IV).
 *
 * Probe position and supply voltage scale the whole signal by slowly
 * varying multiplicative factors.  EMPROF compensates by tracking a
 * moving minimum and maximum of the magnitude and mapping each sample
 * to [0, 1] between them: 0 is the recent stall floor, 1 the recent
 * busy ceiling.  Detection thresholds then become device- and
 * setup-independent.
 */

#ifndef EMPROF_PROFILER_NORMALIZER_HPP
#define EMPROF_PROFILER_NORMALIZER_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/minmax_filter.hpp"

namespace emprof::profiler {

/**
 * Memoised log-grid envelope snap shared by AdaptiveNormalizer and the
 * batch analyzer's resilient kernel.
 *
 * snap() is a pure function of (lo, hi) — identical inputs give
 * identical bits — but the ceiling/floor grids are recomputed only
 * when their inputs change, which is what makes the per-sample cost
 * negligible: inside a stable envelope stretch the exp2/log2/floor
 * pipeline runs once, not per sample.
 */
class LogGridSnap
{
  public:
    explicit LogGridSnap(double drift_tolerance)
        : driftTolerance_(drift_tolerance),
          gridScale_(1.0 / std::log2(1.0 + drift_tolerance))
    {}

    /** Snap envelope (lo, hi); requires hi > 0. */
    void
    snap(double lo, double hi, double &loCal, double &hiCal)
    {
        if (hi != cachedHi_) {
            cachedHi_ = hi;
            cachedHiCal_ = std::exp2(
                std::ceil(std::log2(hi) * gridScale_) / gridScale_);
        }
        hiCal = cachedHiCal_;
        const double q = driftTolerance_ * hiCal;
        if (lo != cachedLo_ || q != cachedQ_) {
            cachedLo_ = lo;
            cachedQ_ = q;
            cachedLoCal_ = std::floor(lo / q) * q;
        }
        loCal = cachedLoCal_;
    }

    double driftTolerance() const { return driftTolerance_; }

  private:
    double driftTolerance_;
    double gridScale_; // 1 / log2(1 + driftTolerance)
    double cachedHi_ = -1.0;
    double cachedHiCal_ = 0.0;
    double cachedLo_ = -1.0;
    double cachedQ_ = -1.0;
    double cachedLoCal_ = 0.0;
};

/**
 * Streaming [0, 1] normaliser against a moving min/max envelope.
 */
class MovingMinMaxNormalizer
{
  public:
    /**
     * @param window Envelope window length in samples.  Must be long
     *        enough to contain busy activity on either side of the
     *        longest expected stall (several ms worth of samples).
     * @param min_contrast Minimum (max-min)/max dynamic range for the
     *        window to be considered contrasted.  A window with less
     *        contrast contains no stall floor, so its samples are
     *        reported as fully busy (1.0) rather than letting noise
     *        span the full normalised range.
     */
    explicit MovingMinMaxNormalizer(std::size_t window,
                                    double min_contrast = 0.2);

    /** Push one magnitude sample, get its normalised value in [0,1]. */
    double push(double magnitude);

    /** Current envelope floor. */
    double envelopeMin() const { return minmax_.min(); }

    /** Current envelope ceiling. */
    double envelopeMax() const { return minmax_.max(); }

    /** True once the envelope window is fully populated. */
    bool warm() const { return minmax_.warm(); }

    std::size_t window() const { return minmax_.window(); }

  private:
    // VHGW sliding min/max: bit-identical extrema to a monotonic
    // wedge but with a branch-light fixed cost per sample, which is
    // what the hot path wants.
    dsp::MinMaxFilter<double> minmax_;
    double minContrast_;
};

/**
 * Exact windowed-mean pre-smoother for the adaptive normaliser.
 *
 * The sum over the (at most @c window) most recent samples is
 * recomputed from the ring oldest-to-newest on every push.  That is
 * O(window) instead of O(1), but the windows here are tiny (<= 16
 * samples) and it buys the property the parallel analyzer depends on:
 * the output at index i is a pure function of the last `window` raw
 * samples, with a fixed summation order, so a chunk that re-feeds a
 * halo reproduces the streaming values bit for bit.
 */
class BoxSmoother
{
  public:
    explicit BoxSmoother(std::size_t window);

    /** Push a raw sample, get the mean of the trailing window. */
    double push(double x);

    std::size_t window() const { return ring_.size(); }

  private:
    std::vector<double> ring_;
    std::size_t head_ = 0; // next write position
    uint64_t count_ = 0;
    // 1/window when the window is a power of two (division by a power
    // of two is exact, so multiplying by the reciprocal returns the
    // same bits as dividing while dodging the divide latency); 0 when
    // the window is not a power of two.
    double invWindow_ = 0.0;
};

/**
 * Self-recalibrating normaliser for impaired captures.
 *
 * Same moving min/max idea as MovingMinMaxNormalizer, with two
 * additions for noisy/drifting signals:
 *
 *  - the envelope is tracked over a short boxcar-smoothed version of
 *    the magnitude, so single-sample noise spikes and impulse bursts
 *    do not poison the floor/ceiling estimates for a whole window;
 *  - the floor and ceiling are snapped to a deterministic logarithmic
 *    grid (step = driftTolerance x ceiling) before use, so the
 *    calibration only moves when the envelope genuinely drifts across
 *    a grid step — sub-step jitter of the window extrema leaves the
 *    mapping untouched.
 *
 * The snap is memoryless (a pure function of the current window
 * extrema), which keeps the output at index i a pure function of the
 * last window+smoother-1 raw samples — the invariant the parallel
 * analyzer's halo re-feed relies on for bit parity with streaming.
 */
class AdaptiveNormalizer
{
  public:
    /**
     * @param window Envelope window length in samples (over the
     *        smoothed signal).
     * @param smoother Pre-smoother length in samples.
     * @param drift_tolerance Calibration grid step as a fraction of
     *        the envelope ceiling, in (0, 1].
     * @param min_contrast As for MovingMinMaxNormalizer.
     */
    AdaptiveNormalizer(std::size_t window, std::size_t smoother,
                       double drift_tolerance,
                       double min_contrast = 0.2);

    /** Push one magnitude sample, get its normalised value in [0,1]. */
    double push(double magnitude);

    /** Current (snapped) envelope floor. */
    double envelopeMin() const { return lastLo_; }

    /** Current (snapped) envelope ceiling. */
    double envelopeMax() const { return lastHi_; }

    std::size_t window() const { return minmax_.window(); }

    std::size_t smoother() const { return smoother_.window(); }

  private:
    BoxSmoother smoother_;
    dsp::MinMaxFilter<double> minmax_;
    double minContrast_;
    LogGridSnap snap_;
    double lastLo_ = 0.0;
    double lastHi_ = 0.0;
};

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_NORMALIZER_HPP
