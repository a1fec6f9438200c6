/**
 * @file
 * Streaming moving average with a Kahan-compensated running sum, and
 * its batch form for smoothing a whole series for display.  The
 * normaliser's moving min/max envelope is dsp::MinMaxFilter
 * (minmax_filter.hpp).
 */

#ifndef EMPROF_DSP_MOVING_STATS_HPP
#define EMPROF_DSP_MOVING_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <deque>

#include "dsp/types.hpp"

namespace emprof::dsp {

/**
 * Kahan-compensated running sum.
 *
 * A plain double accumulator loses one ulp of the running total per
 * add/subtract pair; over the 1e8+ samples of a long capture the moving
 * mean visibly drifts away from the window's true mean.  Compensated
 * summation keeps the error bounded independently of stream length.
 */
class KahanSum
{
  public:
    void
    add(double x)
    {
        const double y = x - comp_;
        const double t = sum_ + y;
        comp_ = (t - sum_) - y;
        sum_ = t;
    }

    double value() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        comp_ = 0.0;
    }

  private:
    double sum_ = 0.0;
    double comp_ = 0.0;
};

/** Streaming moving average over a fixed-length window. */
class MovingAverage
{
  public:
    explicit MovingAverage(std::size_t window);

    /** Push a sample; returns the average over the (possibly partially
     *  filled) window. */
    double push(double x);

    /** Current average without pushing. */
    double value() const;

    /** True once a full window of samples has been observed. */
    bool warm() const { return count_ >= window_; }

    void reset();

    std::size_t window() const { return window_; }

  private:
    std::size_t window_;
    std::deque<double> buf_;
    KahanSum sum_;
    uint64_t count_ = 0;
};

/** Batch helper: moving average of a whole series (same length out). */
TimeSeries movingAverage(const TimeSeries &in, std::size_t window);

} // namespace emprof::dsp

#endif // EMPROF_DSP_MOVING_STATS_HPP
