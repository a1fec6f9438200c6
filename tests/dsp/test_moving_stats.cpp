/**
 * @file
 * Unit and property tests for streaming windowed statistics.
 */

#include <gtest/gtest.h>

#include <deque>

#include "dsp/moving_stats.hpp"
#include "dsp/rng.hpp"

namespace emprof::dsp {
namespace {

TEST(MovingAverage, PartialWindowAveragesSeenSamples)
{
    MovingAverage avg(4);
    EXPECT_DOUBLE_EQ(avg.push(2.0), 2.0);
    EXPECT_DOUBLE_EQ(avg.push(4.0), 3.0);
    EXPECT_DOUBLE_EQ(avg.push(6.0), 4.0);
}

TEST(MovingAverage, SlidesWindow)
{
    MovingAverage avg(2);
    avg.push(1.0);
    avg.push(3.0);
    EXPECT_DOUBLE_EQ(avg.push(5.0), 4.0); // window = {3, 5}
}

TEST(MovingAverage, WarmOnlyAfterFullWindow)
{
    MovingAverage avg(3);
    avg.push(1.0);
    avg.push(1.0);
    EXPECT_FALSE(avg.warm());
    avg.push(1.0);
    EXPECT_TRUE(avg.warm());
}

TEST(MovingAverage, ResetClears)
{
    MovingAverage avg(3);
    avg.push(10.0);
    avg.reset();
    EXPECT_DOUBLE_EQ(avg.value(), 0.0);
    EXPECT_FALSE(avg.warm());
}

TEST(MovingAverage, ZeroWindowTreatedAsOne)
{
    MovingAverage avg(0);
    EXPECT_DOUBLE_EQ(avg.push(5.0), 5.0);
    EXPECT_DOUBLE_EQ(avg.push(7.0), 7.0);
}

// --- long-stream numeric-drift regressions -------------------------
//
// The incremental add/subtract-the-oldest update loses one rounding
// error per sample; with a plain double accumulator the windowed mean
// drifts visibly over multi-million-sample captures.  This test pins
// the compensated implementation against brute-force recomputation.

TEST(MovingAverage, NoDriftOverLongStreamAtLargeOffset)
{
    const std::size_t window = 64;
    MovingAverage avg(window);
    std::deque<double> ref;
    Rng rng(0xd41f7u);
    double last = 0.0;
    for (int i = 0; i < 2'000'000; ++i) {
        const double x = 1e8 + rng.uniform(-0.5, 0.5);
        last = avg.push(x);
        ref.push_back(x);
        if (ref.size() > window)
            ref.pop_front();
    }
    long double exact = 0.0L;
    for (double x : ref)
        exact += x;
    exact /= static_cast<long double>(ref.size());
    // One windowed sum of 64 values carries ~1 ulp; what must NOT be
    // here is the accumulated error of 2M add/subtract pairs.
    EXPECT_NEAR(last, static_cast<double>(exact), 1e-6);
}

TEST(MovingAverageBatch, SmoothsSeries)
{
    TimeSeries in;
    in.sampleRateHz = 100.0;
    in.samples = {0, 0, 10, 0, 0};
    const auto out = movingAverage(in, 2);
    ASSERT_EQ(out.samples.size(), 5u);
    EXPECT_NEAR(out.samples[2], 5.0f, 1e-6);
    EXPECT_NEAR(out.samples[3], 5.0f, 1e-6);
    EXPECT_NEAR(out.samples[4], 0.0f, 1e-6);
}

} // namespace
} // namespace emprof::dsp
