#include "profiler/normalizer.hpp"

#include <algorithm>
#include <cmath>

namespace emprof::profiler {

MovingMinMaxNormalizer::MovingMinMaxNormalizer(std::size_t window,
                                               double min_contrast)
    : minmax_(window), minContrast_(min_contrast)
{}

double
MovingMinMaxNormalizer::push(double magnitude)
{
    minmax_.push(magnitude);
    const double lo = minmax_.min();
    const double hi = minmax_.max();
    const double range = hi - lo;

    // No stall floor in the window: everything is "busy".
    if (hi <= 0.0 || range < minContrast_ * hi)
        return 1.0;

    return std::clamp((magnitude - lo) / range, 0.0, 1.0);
}

BoxSmoother::BoxSmoother(std::size_t window)
    : ring_(window == 0 ? 1 : window, 0.0)
{
    const std::size_t w = ring_.size();
    if ((w & (w - 1)) == 0)
        invWindow_ = 1.0 / static_cast<double>(w);
}

double
BoxSmoother::push(double x)
{
    const std::size_t w = ring_.size();
    ring_[head_] = x;
    head_ = (head_ + 1 == w) ? 0 : head_ + 1;
    ++count_;

    const std::size_t n =
        count_ < w ? static_cast<std::size_t>(count_) : w;
    // Recompute the sum oldest-to-newest every push: the fixed
    // summation order (by global sample index) is what makes a
    // halo-refed chunk reproduce the streaming output bit for bit.
    std::size_t idx = (count_ >= w) ? head_ : 0;
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        sum += ring_[idx];
        idx = (idx + 1 == w) ? 0 : idx + 1;
    }
    if (n == w && invWindow_ != 0.0)
        return sum * invWindow_;
    return sum / static_cast<double>(n);
}

AdaptiveNormalizer::AdaptiveNormalizer(std::size_t window,
                                       std::size_t smoother,
                                       double drift_tolerance,
                                       double min_contrast)
    : smoother_(smoother),
      minmax_(window),
      minContrast_(min_contrast),
      snap_(drift_tolerance)
{}

double
AdaptiveNormalizer::push(double magnitude)
{
    const double smoothed = smoother_.push(magnitude);
    minmax_.push(smoothed);
    const double lo = minmax_.min();
    const double hi = minmax_.max();

    if (hi <= 0.0) {
        lastLo_ = 0.0;
        lastHi_ = 0.0;
        return 1.0;
    }

    // Snap the ceiling up to a logarithmic grid with ratio
    // (1 + driftTolerance) between steps, then quantise the floor to
    // linear steps of driftTolerance x ceiling.  Both snaps are pure
    // functions of the window extrema — no latched state — yet the
    // calibration in use only changes when an extremum crosses a grid
    // step, which is the hysteresis that keeps per-sample jitter from
    // modulating the normalised signal.
    double loCal;
    double hiCal;
    snap_.snap(lo, hi, loCal, hiCal);
    lastLo_ = loCal;
    lastHi_ = hiCal;

    const double range = hiCal - loCal;
    if (range < minContrast_ * hiCal)
        return 1.0;

    // Normalise the raw magnitude (not the smoothed one) so dip edges
    // stay sharp; the smoothing only stabilises the envelope estimate.
    return std::clamp((magnitude - loCal) / range, 0.0, 1.0);
}

} // namespace emprof::profiler
