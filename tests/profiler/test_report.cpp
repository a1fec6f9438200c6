/**
 * @file
 * makeReport's latency percentiles come from selection, not a sort;
 * they must equal std::sort + dsp::percentileSorted bit for bit for
 * every size and value distribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "dsp/series_ops.hpp"
#include "profiler/report.hpp"

namespace emprof::profiler {
namespace {

void
expectPercentilesMatchSort(const std::vector<double> &cycles,
                           const std::string &what)
{
    SCOPED_TRACE(what + " n=" + std::to_string(cycles.size()));
    std::vector<StallEvent> events(cycles.size());
    for (std::size_t i = 0; i < cycles.size(); ++i)
        events[i].stallCycles = cycles[i];
    const ProfileReport report = makeReport(events, 40e6, 1e9, 1000000);

    std::vector<double> sorted = cycles;
    std::sort(sorted.begin(), sorted.end());
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    EXPECT_EQ(bits(report.medianStallCycles),
              bits(dsp::percentileSorted(sorted, 50.0)));
    EXPECT_EQ(bits(report.p95StallCycles),
              bits(dsp::percentileSorted(sorted, 95.0)));
    EXPECT_EQ(bits(report.p99StallCycles),
              bits(dsp::percentileSorted(sorted, 99.0)));
    EXPECT_EQ(bits(report.maxStallCycles),
              bits(dsp::percentileSorted(sorted, 100.0)));
}

TEST(Report, PercentilesBySelectionEqualSortedReference)
{
    std::mt19937_64 rng(0x5e1ec7);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{1000}, std::size_t{100000}}) {
        expectPercentilesMatchSort(std::vector<double>(n, 280.0),
                                   "all equal");

        // Heavy duplicates: eight distinct latencies.
        std::uniform_int_distribution<int> level(0, 7);
        std::vector<double> dup(n);
        for (auto &v : dup)
            v = 40.0 * (1 + level(rng));
        expectPercentilesMatchSort(dup, "duplicates");

        std::uniform_real_distribution<double> any(1.0, 3000.0);
        std::vector<double> random(n);
        for (auto &v : random)
            v = any(rng);
        expectPercentilesMatchSort(random, "random");

        // Already sorted, and reversed.
        std::sort(random.begin(), random.end());
        expectPercentilesMatchSort(random, "ascending");
        std::reverse(random.begin(), random.end());
        expectPercentilesMatchSort(random, "descending");
    }
}

TEST(Report, NoEventsLeavesPercentilesZero)
{
    const ProfileReport report = makeReport({}, 40e6, 1e9, 1000);
    EXPECT_EQ(report.medianStallCycles, 0.0);
    EXPECT_EQ(report.maxStallCycles, 0.0);
}

} // namespace
} // namespace emprof::profiler
