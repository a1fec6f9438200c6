/**
 * @file
 * Unit tests for the radix-2 FFT.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/fft.hpp"

namespace emprof::dsp {
namespace {

TEST(FftHelpers, PowerOfTwoChecks)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(1000));
}

TEST(FftHelpers, NextPowerOfTwo)
{
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(2), 2u);
    EXPECT_EQ(nextPowerOfTwo(3), 4u);
    EXPECT_EQ(nextPowerOfTwo(1000), 1024u);
}

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    std::vector<std::complex<double>> data(64, {0.0, 0.0});
    data[0] = {1.0, 0.0};
    fft(data);
    for (const auto &x : data) {
        EXPECT_NEAR(x.real(), 1.0, 1e-12);
        EXPECT_NEAR(x.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, DcGivesSingleBin)
{
    std::vector<std::complex<double>> data(32, {2.0, 0.0});
    fft(data);
    EXPECT_NEAR(data[0].real(), 64.0, 1e-10);
    for (std::size_t i = 1; i < data.size(); ++i)
        EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-10);
}

class FftSizes : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(FftSizes, SinePeaksAtItsBin)
{
    const std::size_t n = GetParam();
    const std::size_t k = n / 8;
    std::vector<std::complex<double>> data(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = {std::sin(2.0 * std::numbers::pi *
                            static_cast<double>(k * i) /
                            static_cast<double>(n)),
                   0.0};
    }
    fft(data);
    // Peak of n/2 at bins k and n-k.
    EXPECT_NEAR(std::abs(data[k]), static_cast<double>(n) / 2, 1e-8);
    EXPECT_NEAR(std::abs(data[n - k]), static_cast<double>(n) / 2, 1e-8);
    for (std::size_t i = 0; i < n; ++i) {
        if (i != k && i != n - k) {
            ASSERT_NEAR(std::abs(data[i]), 0.0, 1e-8) << "bin " << i;
        }
    }
}

TEST_P(FftSizes, RoundTripRecoversInput)
{
    const std::size_t n = GetParam();
    std::vector<std::complex<double>> data(n), orig(n);
    for (std::size_t i = 0; i < n; ++i) {
        orig[i] = {std::cos(0.1 * static_cast<double>(i)),
                   std::sin(0.37 * static_cast<double>(i))};
        data[i] = orig[i];
    }
    fft(data);
    ifft(data);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
        EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
    }
}

TEST_P(FftSizes, ParsevalHolds)
{
    const std::size_t n = GetParam();
    std::vector<std::complex<double>> data(n);
    double time_energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = {std::sin(0.3 * static_cast<double>(i)), 0.2};
        time_energy += std::norm(data[i]);
    }
    fft(data);
    double freq_energy = 0.0;
    for (const auto &x : data)
        freq_energy += std::norm(x);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(16, 64, 256, 1024));

TEST(MagnitudeSpectrum, SizeAndZeroPadding)
{
    std::vector<double> frame(100, 1.0);
    const auto mags = magnitudeSpectrum(frame, 128);
    EXPECT_EQ(mags.size(), 65u);
    // DC bin carries the frame sum.
    EXPECT_NEAR(mags[0], 100.0, 1e-9);
}

} // namespace
} // namespace emprof::dsp
