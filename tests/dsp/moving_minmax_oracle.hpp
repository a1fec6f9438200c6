/**
 * @file
 * The monotonic-wedge sliding min/max, kept as the test oracle for
 * dsp::MinMaxFilter (the VHGW filter that replaced it on the hot path):
 * both must give bit-identical extrema on every push.
 */

#ifndef EMPROF_TESTS_DSP_MOVING_MINMAX_ORACLE_HPP
#define EMPROF_TESTS_DSP_MOVING_MINMAX_ORACLE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace emprof::dsp::oracle {

/**
 * Streaming moving minimum and maximum over a fixed-length window.
 *
 * Each wedge stores (index, value) pairs whose values are monotone, so
 * the front is always the current extremum and every sample is
 * pushed/popped at most once.  The wedges live in fixed ring buffers
 * (capacity = window + 1).
 */
class MovingMinMax
{
  public:
    explicit MovingMinMax(std::size_t window)
        : window_(window == 0 ? 1 : window),
          capacity_(window_ + 1),
          minRing_(capacity_),
          maxRing_(capacity_)
    {}

    /** Push one sample. */
    void
    push(double x)
    {
        const uint64_t idx = count_++;
        const uint64_t oldest = (idx >= window_) ? idx - window_ + 1 : 0;

        // Evict entries that fell out of the window.
        if (minHead_ != minTail_ && minRing_[minHead_].index < oldest)
            bump(minHead_);
        if (maxHead_ != maxTail_ && maxRing_[maxHead_].index < oldest)
            bump(maxHead_);

        // Maintain monotonicity: the min wedge is non-decreasing, the
        // max wedge non-increasing.
        while (minHead_ != minTail_ && minRing_[prev(minTail_)].value >= x)
            minTail_ = prev(minTail_);
        while (maxHead_ != maxTail_ && maxRing_[prev(maxTail_)].value <= x)
            maxTail_ = prev(maxTail_);
        minRing_[minTail_] = {idx, x};
        bump(minTail_);
        maxRing_[maxTail_] = {idx, x};
        bump(maxTail_);
    }

    /** Minimum over the current window (requires >= 1 sample pushed). */
    double min() const { return minRing_[minHead_].value; }

    /** Maximum over the current window (requires >= 1 sample pushed). */
    double max() const { return maxRing_[maxHead_].value; }

    /** True once a full window of samples has been observed. */
    bool warm() const { return count_ >= window_; }

    /** Number of samples pushed so far. */
    uint64_t count() const { return count_; }

    void
    reset()
    {
        minHead_ = minTail_ = 0;
        maxHead_ = maxTail_ = 0;
        count_ = 0;
    }

  private:
    struct Entry
    {
        uint64_t index;
        double value;
    };

    void
    bump(std::size_t &cursor) const
    {
        if (++cursor == capacity_)
            cursor = 0;
    }

    std::size_t
    prev(std::size_t cursor) const
    {
        return cursor == 0 ? capacity_ - 1 : cursor - 1;
    }

    std::size_t window_;
    std::size_t capacity_;
    std::vector<Entry> minRing_;
    std::vector<Entry> maxRing_;
    std::size_t minHead_ = 0, minTail_ = 0;
    std::size_t maxHead_ = 0, maxTail_ = 0;
    uint64_t count_ = 0;
};

} // namespace emprof::dsp::oracle

#endif // EMPROF_TESTS_DSP_MOVING_MINMAX_ORACLE_HPP
