/**
 * @file
 * Sliding-window min/max via the van Herk–Gil–Werman (VHGW) algorithm.
 *
 * Like a monotonic-wedge moving min/max this tracks the extrema of the
 * last `window` samples, but instead of wedges it uses the VHGW block
 * decomposition: the stream is cut into blocks of `window` samples, a
 * suffix-extrema table is built once per completed block (O(window)
 * every `window` samples), and each output is the combination of that
 * table with a running prefix extremum of the current block.  The
 * result is O(1) amortised per sample like the wedge, but with a fixed
 * ~6 comparisons per push and no data-dependent pop loops — the branch
 * predictor sees the same short path for every sample, which is what
 * the 160 Msamples/s SDR budget wants.  Because min/max are pure
 * selections (no arithmetic), the outputs are bit-identical to the
 * wedge on the same input (tests/dsp keeps the wedge as the oracle).
 *
 * The filter is templated on the sample type so the hot path can run
 * entirely in float (no double promotion) when fed SDR magnitude
 * samples; `float` and `double` are explicitly instantiated.
 */

#ifndef EMPROF_DSP_MINMAX_FILTER_HPP
#define EMPROF_DSP_MINMAX_FILTER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace emprof::dsp {

/**
 * Streaming sliding-window minimum and maximum (VHGW decomposition).
 *
 * Window semantics: the window covers the last min(count, window)
 * samples, so warm-up outputs match a partially filled window; a zero
 * window is clamped to 1.
 */
template <typename T>
class MinMaxFilter
{
  public:
    explicit MinMaxFilter(std::size_t window)
        : window_(window == 0 ? 1 : window),
          block_(window_),
          sufMin_(window_),
          sufMax_(window_)
    {}

    /** Push one sample. */
    void
    push(T x)
    {
        const std::size_t p = pos_;
        if (p == 0 && count_ > 0)
            buildSuffixes();

        block_[p] = x;
        if (p == 0) {
            preMin_ = x;
            preMax_ = x;
        } else {
            preMin_ = x < preMin_ ? x : preMin_;
            preMax_ = x > preMax_ ? x : preMax_;
        }
        ++count_;
        pos_ = (p + 1 == window_) ? 0 : p + 1;

        if (count_ <= window_ || p == window_ - 1) {
            // Warm-up (window is the whole block so far) or the window
            // aligns exactly with the current block: prefix only.
            curMin_ = preMin_;
            curMax_ = preMax_;
        } else {
            // Window spans the previous block's tail [p+1, window) and
            // the current block's head [0, p].
            const T sm = sufMin_[p + 1];
            const T sM = sufMax_[p + 1];
            curMin_ = sm < preMin_ ? sm : preMin_;
            curMax_ = sM > preMax_ ? sM : preMax_;
        }
    }

    /** Minimum over the current window (requires >= 1 sample pushed). */
    T min() const { return curMin_; }

    /** Maximum over the current window (requires >= 1 sample pushed). */
    T max() const { return curMax_; }

    /** True once a full window of samples has been observed. */
    bool warm() const { return count_ >= window_; }

    /** Number of samples pushed so far. */
    uint64_t count() const { return count_; }

    void
    reset()
    {
        pos_ = 0;
        count_ = 0;
    }

    std::size_t window() const { return window_; }

  private:
    /** Build the suffix-extrema tables of the just-completed block. */
    void
    buildSuffixes()
    {
        T mn = block_[window_ - 1];
        T mx = mn;
        sufMin_[window_ - 1] = mn;
        sufMax_[window_ - 1] = mx;
        for (std::size_t j = window_ - 1; j-- > 0;) {
            const T v = block_[j];
            mn = v < mn ? v : mn;
            mx = v > mx ? v : mx;
            sufMin_[j] = mn;
            sufMax_[j] = mx;
        }
    }

    std::size_t window_;
    std::vector<T> block_;  // current (possibly partial) block
    std::vector<T> sufMin_; // suffix minima of the previous block
    std::vector<T> sufMax_; // suffix maxima of the previous block
    std::size_t pos_ = 0;   // next write position within the block
    uint64_t count_ = 0;
    T preMin_{};
    T preMax_{};
    T curMin_{};
    T curMax_{};
};

extern template class MinMaxFilter<float>;
extern template class MinMaxFilter<double>;

/**
 * Batch helper: per-sample sliding min/max of a whole series.
 *
 * out_min[i] / out_max[i] are the extrema of in[max(0, i-window+1) .. i],
 * matching the streaming filter output sample for sample.
 */
template <typename T>
void
slidingMinMax(const std::vector<T> &in, std::size_t window,
              std::vector<T> &out_min, std::vector<T> &out_max)
{
    out_min.resize(in.size());
    out_max.resize(in.size());
    MinMaxFilter<T> filter(window);
    for (std::size_t i = 0; i < in.size(); ++i) {
        filter.push(in[i]);
        out_min[i] = filter.min();
        out_max[i] = filter.max();
    }
}

} // namespace emprof::dsp

#endif // EMPROF_DSP_MINMAX_FILTER_HPP
