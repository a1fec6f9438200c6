/**
 * @file
 * Order statistics and process-memory probes for the benchmark.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile (p in (0, 1]) of @p values; 0 when empty. */
double percentile(std::vector<double> values, double p);

/**
 * Samples that lie strictly beyond the nearest-rank @p p percentile
 * of @p n samples.  A percentile is reported as supported only when
 * this is at least kMinTailSamples.
 */
std::size_t samplesBeyond(std::size_t n, double p);

constexpr std::size_t kMinTailSamples = 10;

/** @p num / @p den, or 0 when @p den is 0 (a layer the run skipped). */
double ratio(double num, double den);

/** Sum and arithmetic mean (0 when empty). */
double sum(const std::vector<double> &values);
double mean(const std::vector<double> &values);

/** Peak resident set (VmHWM) of this process in MiB; -1 if unknown. */
double peakRssMib();

/**
 * Restart the peak-RSS high-water mark at the current RSS (writes
 * "5" to /proc/self/clear_refs).  False when the kernel refuses.
 */
bool resetPeakRss();

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
