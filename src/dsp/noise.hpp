/**
 * @file
 * Noise generation for the EM channel model.
 */

#ifndef EMPROF_DSP_NOISE_HPP
#define EMPROF_DSP_NOISE_HPP

#include <cstdint>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace emprof::dsp {

/**
 * Additive white Gaussian noise source.
 *
 * real() uses an Irwin-Hall approximation (sum of four uniform lanes
 * drawn from a single 64-bit RNG word): one RNG call per draw, tails
 * truncated at ~3.5 sigma — ideal for the per-cycle channel noise,
 * which dominates the synthesis cost.  exactReal() provides a true
 * Box-Muller draw where distribution quality matters more than speed.
 */
class AwgnSource
{
  public:
    /**
     * @param sigma Standard deviation per real dimension.
     * @param seed RNG seed.
     */
    explicit AwgnSource(double sigma, uint64_t seed = 0xA6Cull);

    /** One fast approximately-Gaussian draw (Irwin-Hall, n=4). */
    double
    real()
    {
        // Four independent 16-bit uniform lanes from one 64-bit word.
        const uint64_t w = rng_();
        const double sum =
            static_cast<double>((w & 0xffff) + ((w >> 16) & 0xffff) +
                                ((w >> 32) & 0xffff) + (w >> 48));
        // Each lane ~ U(0,1)*65536 with variance 65536^2/12; centre
        // and scale the sum (variance 4/12) to unit variance.
        constexpr double center = 2.0 * 65535.0;
        constexpr double inv_std = 1.0 / (37837.2276490056); // 65536*sqrt(1/3)
        return (sum - center) * inv_std * sigma_;
    }

    /** One exact Gaussian draw (Box-Muller). */
    double exactReal();

    /** One circular complex Gaussian draw (sigma per dimension). */
    Complex
    complex()
    {
        return {static_cast<float>(real()), static_cast<float>(real())};
    }

    double sigma() const { return sigma_; }

  private:
    double sigma_;
    Rng rng_;
    bool has_cached_ = false;
    double cached_ = 0.0;
};

/**
 * Slow random-walk process, used for probe-coupling gain drift and
 * power-supply wander: a first-order low-pass-filtered Gaussian walk
 * clamped to [min, max].
 */
class RandomWalk
{
  public:
    /**
     * @param start Initial value.
     * @param step Per-update standard deviation.
     * @param lo Lower clamp.
     * @param hi Upper clamp.
     * @param seed RNG seed.
     */
    RandomWalk(double start, double step, double lo, double hi,
               uint64_t seed = 0x11A1Cull);

    /** Advance one step and return the new value. */
    double step();

    /** Current value. */
    double value() const { return value_; }

  private:
    double value_;
    double step_;
    double lo_;
    double hi_;
    AwgnSource noise_;
};

} // namespace emprof::dsp

#endif // EMPROF_DSP_NOISE_HPP
