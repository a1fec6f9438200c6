/**
 * @file
 * The monotonic-wedge MovingMinMax oracle against a brute-force window,
 * then differential tests of the VHGW MinMaxFilter against the oracle:
 * both must produce identical extrema on every push, for every window
 * size, including warm-up.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "dsp/minmax_filter.hpp"
#include "dsp/rng.hpp"
#include "moving_minmax_oracle.hpp"

namespace emprof::dsp {
namespace {

using oracle::MovingMinMax;

/** Brute-force reference for min/max over a sliding window. */
class MinMaxReference
{
  public:
    explicit MinMaxReference(std::size_t window) : window_(window) {}

    void
    push(double x)
    {
        buf_.push_back(x);
        if (buf_.size() > window_)
            buf_.pop_front();
    }

    double min() const { return *std::min_element(buf_.begin(), buf_.end()); }
    double max() const { return *std::max_element(buf_.begin(), buf_.end()); }

  private:
    std::size_t window_;
    std::deque<double> buf_;
};

class MinMaxWindows : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(MinMaxWindows, MatchesBruteForceOnRandomData)
{
    const std::size_t window = GetParam();
    MovingMinMax mm(window);
    MinMaxReference ref(window);
    Rng rng(0xBEEF + window);
    for (int i = 0; i < 3000; ++i) {
        const double x = rng.uniform(-100.0, 100.0);
        mm.push(x);
        ref.push(x);
        ASSERT_DOUBLE_EQ(mm.min(), ref.min()) << "at sample " << i;
        ASSERT_DOUBLE_EQ(mm.max(), ref.max()) << "at sample " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, MinMaxWindows,
                         ::testing::Values(1, 2, 3, 8, 64, 1000));

TEST(MovingMinMax, MonotoneRampTracksWindowEdges)
{
    MovingMinMax mm(10);
    for (int i = 0; i < 100; ++i) {
        mm.push(i);
        EXPECT_DOUBLE_EQ(mm.max(), i);
        EXPECT_DOUBLE_EQ(mm.min(), std::max(0, i - 9));
    }
}

TEST(MovingMinMax, WarmSemantics)
{
    MovingMinMax mm(4);
    for (int i = 0; i < 3; ++i) {
        mm.push(i);
        EXPECT_FALSE(mm.warm());
    }
    mm.push(3.0);
    EXPECT_TRUE(mm.warm());
}

TEST(MovingMinMax, ResetRestartsCounting)
{
    MovingMinMax mm(2);
    mm.push(5.0);
    mm.reset();
    EXPECT_EQ(mm.count(), 0u);
    mm.push(-1.0);
    EXPECT_DOUBLE_EQ(mm.min(), -1.0);
    EXPECT_DOUBLE_EQ(mm.max(), -1.0);
}


std::vector<double>
randomSamples(std::size_t n, uint64_t seed)
{
    std::vector<double> v(n);
    Rng rng(seed);
    for (auto &x : v) {
        x = rng.uniform(-10.0, 10.0);
        // Plateaus and repeats stress the tie-handling paths.
        if (rng.chance(0.1))
            x = 1.0;
    }
    return v;
}

TEST(MinMaxFilter, MatchesMovingMinMaxAcrossWindowSizes)
{
    for (const std::size_t window :
         {std::size_t{1}, std::size_t{2}, std::size_t{1024},
          std::size_t{160000}}) {
        const std::size_t n = std::max<std::size_t>(4 * window, 4096);
        const auto input = randomSamples(std::min<std::size_t>(n, 400000),
                                         0xbeef + window);
        MinMaxFilter<double> filter(window);
        MovingMinMax reference(window);
        for (std::size_t i = 0; i < input.size(); ++i) {
            filter.push(input[i]);
            reference.push(input[i]);
            ASSERT_EQ(filter.min(), reference.min())
                << "window " << window << " sample " << i;
            ASSERT_EQ(filter.max(), reference.max())
                << "window " << window << " sample " << i;
            ASSERT_EQ(filter.warm(), reference.warm());
        }
        EXPECT_EQ(filter.count(), reference.count());
    }
}

TEST(MinMaxFilter, FloatInstantiationMatchesReference)
{
    const std::size_t window = 257; // not a power of two
    Rng rng(42);
    MinMaxFilter<float> filter(window);
    MovingMinMax reference(window);
    for (std::size_t i = 0; i < 20000; ++i) {
        const float x = static_cast<float>(rng.uniform(-1.0, 1.0));
        filter.push(x);
        reference.push(x);
        ASSERT_EQ(static_cast<double>(filter.min()), reference.min());
        ASSERT_EQ(static_cast<double>(filter.max()), reference.max());
    }
}

TEST(MinMaxFilter, ZeroWindowClampsToOne)
{
    // Same clamp as MovingMinMax: an empty window is meaningless, so
    // it degrades to a window of one (output follows the input).
    MinMaxFilter<double> filter(0);
    EXPECT_EQ(filter.window(), 1u);
    filter.push(3.0);
    EXPECT_EQ(filter.min(), 3.0);
    EXPECT_EQ(filter.max(), 3.0);
    filter.push(-7.0);
    EXPECT_EQ(filter.min(), -7.0);
    EXPECT_EQ(filter.max(), -7.0);
}

TEST(MinMaxFilter, OutputsStayFiniteOnFiniteInput)
{
    MinMaxFilter<double> filter(64);
    Rng rng(9);
    for (std::size_t i = 0; i < 10000; ++i) {
        filter.push(rng.uniform(-1e30, 1e30));
        ASSERT_TRUE(std::isfinite(filter.min()));
        ASSERT_TRUE(std::isfinite(filter.max()));
        ASSERT_LE(filter.min(), filter.max());
    }
}

TEST(MinMaxFilter, ResetMatchesFreshInstance)
{
    const auto input = randomSamples(5000, 77);
    MinMaxFilter<double> reused(100);
    for (double x : input)
        reused.push(x);
    reused.reset();
    EXPECT_EQ(reused.count(), 0u);

    MinMaxFilter<double> fresh(100);
    for (double x : input) {
        reused.push(x);
        fresh.push(x);
        ASSERT_EQ(reused.min(), fresh.min());
        ASSERT_EQ(reused.max(), fresh.max());
    }
}

TEST(MinMaxFilter, BatchHelperMatchesStreaming)
{
    const auto in64 = randomSamples(3000, 123);
    std::vector<double> out_min, out_max;
    slidingMinMax(in64, 37, out_min, out_max);
    ASSERT_EQ(out_min.size(), in64.size());

    MovingMinMax reference(37);
    for (std::size_t i = 0; i < in64.size(); ++i) {
        reference.push(in64[i]);
        ASSERT_EQ(out_min[i], reference.min());
        ASSERT_EQ(out_max[i], reference.max());
    }
}

} // namespace
} // namespace emprof::dsp
