#include "profiler/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"

namespace emprof::profiler {

namespace {

// Per-level attribution totals, added once per report build (never per
// event in the hot loops).  The histogram buckets mean confidence in
// per-mille so the log2 buckets resolve the [0, 1] range.
void
countAttributed(const ProfileReport &report)
{
    if (!obs::MetricsRegistry::enabled())
        return;
    auto &registry = obs::MetricsRegistry::instance();
    static const obs::Counter llc_hit =
        registry.counter("emprof.attr.llc_hit");
    static const obs::Counter prefetch_masked =
        registry.counter("emprof.attr.prefetch_masked");
    static const obs::Counter dram = registry.counter("emprof.attr.dram");
    static const obs::Counter dram_refresh =
        registry.counter("emprof.attr.dram_refresh");
    static const obs::Histogram confidence_mille =
        registry.histogram("emprof.attr.level_confidence_mille");
    llc_hit.add(
        report.levelEvents[static_cast<int>(ServiceLevel::LlcHit)]);
    prefetch_masked.add(
        report.levelEvents[static_cast<int>(ServiceLevel::PrefetchMasked)]);
    dram.add(report.levelEvents[static_cast<int>(ServiceLevel::Dram)]);
    dram_refresh.add(
        report.levelEvents[static_cast<int>(ServiceLevel::DramRefresh)]);
    if (report.totalEvents > 0)
        confidence_mille.observe(
            static_cast<uint64_t>(report.meanLevelConfidence * 1000.0));
}

/**
 * percentileSorted(sorted, p) without the sort.  The value interpolates
 * between the order statistics at floor(rank) and floor(rank) + 1: the
 * first comes from nth_element over the part of @p values not yet
 * partitioned (@p placed onward; callers ask for ascending p, so the
 * ranks only grow), the second is the minimum above it.  The same two
 * values meet the same arithmetic, so the result is bit-identical to
 * sorting first.
 */
double
selectPercentile(std::vector<double> &values, std::size_t &placed,
                 double p)
{
    const std::size_t n = values.size();
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    const auto at = [&](std::size_t i) {
        return values.begin() + static_cast<std::ptrdiff_t>(i);
    };
    if (lo >= placed) {
        std::nth_element(at(placed), at(lo), values.end());
        placed = lo + 1;
    }
    const double low = values[lo];
    const double high =
        hi == lo ? low : *std::min_element(at(lo + 1), values.end());
    return low * (1.0 - frac) + high * frac;
}

} // namespace

ProfileReport
makeReport(const std::vector<StallEvent> &events, double sample_rate_hz,
           double clock_hz, uint64_t total_samples)
{
    EMPROF_OBS_STAGE("report.build");
    ProfileReport report;
    report.totalEvents = events.size();
    // A non-positive or non-finite rate cannot produce a duration; the
    // derived fields stay 0 instead of going NaN/Inf (callers with an
    // error channel reject such configs via EmProfConfig::validate).
    if (std::isfinite(sample_rate_hz) && sample_rate_hz > 0.0)
        report.durationSeconds =
            static_cast<double>(total_samples) / sample_rate_hz;
    if (std::isfinite(clock_hz) && clock_hz > 0.0)
        report.executionCycles = report.durationSeconds * clock_hz;

    std::vector<double> latencies;
    latencies.reserve(events.size());
    double level_confidence_sum = 0.0;
    for (const auto &ev : events) {
        if (ev.kind == StallKind::RefreshCoincident)
            ++report.refreshEvents;
        else
            ++report.missEvents;
        report.totalStallCycles += ev.stallCycles;
        latencies.push_back(ev.stallCycles);
        const auto li = static_cast<std::size_t>(ev.level);
        if (li < kServiceLevelCount) {
            ++report.levelEvents[li];
            report.levelStallCycles[li] += ev.stallCycles;
        }
        level_confidence_sum += ev.levelConfidence;
    }
    if (!events.empty())
        report.meanLevelConfidence =
            level_confidence_sum / static_cast<double>(events.size());
    countAttributed(report);

    if (report.executionCycles > 0.0) {
        report.stallPercent =
            100.0 * report.totalStallCycles / report.executionCycles;
        report.missesPerMillionCycles =
            1e6 * static_cast<double>(report.totalEvents) /
            report.executionCycles;
    }
    if (!latencies.empty()) {
        report.avgStallCycles = dsp::mean(latencies);
        // Selection, not a sort: this is the serial tail after the
        // parallel phase, and event-dense captures carry ~10^6 events.
        std::size_t placed = 0;
        report.medianStallCycles =
            selectPercentile(latencies, placed, 50.0);
        report.p95StallCycles = selectPercentile(latencies, placed, 95.0);
        report.p99StallCycles = selectPercentile(latencies, placed, 99.0);
        report.maxStallCycles =
            selectPercentile(latencies, placed, 100.0);
    }
    return report;
}

dsp::Histogram
latencyHistogram(const std::vector<StallEvent> &events, double lo_cycles,
                 double hi_cycles, std::size_t bins)
{
    auto hist = dsp::Histogram::logarithmic(lo_cycles, hi_cycles, bins);
    for (const auto &ev : events)
        hist.add(ev.stallCycles);
    return hist;
}

std::string
ProfileReport::toText(const std::string &title) const
{
    std::string out;
    char line[256];
    if (!title.empty()) {
        out += title;
        out += '\n';
    }
    std::snprintf(line, sizeof(line),
                  "  events: %llu (miss %llu, refresh-coincident %llu)\n",
                  static_cast<unsigned long long>(totalEvents),
                  static_cast<unsigned long long>(missEvents),
                  static_cast<unsigned long long>(refreshEvents));
    out += line;
    std::snprintf(line, sizeof(line),
                  "  execution: %.3f ms (%.0f cycles)\n",
                  durationSeconds * 1e3, executionCycles);
    out += line;
    std::snprintf(line, sizeof(line),
                  "  stall time: %.0f cycles (%.2f%% of execution)\n",
                  totalStallCycles, stallPercent);
    out += line;
    std::snprintf(line, sizeof(line),
                  "  per-stall cycles: avg %.1f, median %.1f, p95 %.1f, "
                  "p99 %.1f, max %.1f\n",
                  avgStallCycles, medianStallCycles, p95StallCycles,
                  p99StallCycles, maxStallCycles);
    out += line;
    std::snprintf(line, sizeof(line),
                  "  miss rate: %.1f per million cycles\n",
                  missesPerMillionCycles);
    out += line;
    std::snprintf(
        line, sizeof(line),
        "  service levels: llc-hit %llu, prefetch-masked %llu, "
        "dram %llu, dram-refresh %llu (mean confidence %.2f)\n",
        static_cast<unsigned long long>(
            levelEvents[static_cast<int>(ServiceLevel::LlcHit)]),
        static_cast<unsigned long long>(
            levelEvents[static_cast<int>(ServiceLevel::PrefetchMasked)]),
        static_cast<unsigned long long>(
            levelEvents[static_cast<int>(ServiceLevel::Dram)]),
        static_cast<unsigned long long>(
            levelEvents[static_cast<int>(ServiceLevel::DramRefresh)]),
        meanLevelConfidence);
    out += line;
    std::snprintf(
        line, sizeof(line),
        "  stall cycles by level: llc-hit %.0f, prefetch-masked %.0f, "
        "dram %.0f, dram-refresh %.0f\n",
        levelStallCycles[static_cast<int>(ServiceLevel::LlcHit)],
        levelStallCycles[static_cast<int>(ServiceLevel::PrefetchMasked)],
        levelStallCycles[static_cast<int>(ServiceLevel::Dram)],
        levelStallCycles[static_cast<int>(ServiceLevel::DramRefresh)]);
    out += line;
    if (quality.enabled) {
        std::snprintf(
            line, sizeof(line),
            "  signal quality: coverage %.1f%%, blocks %llu "
            "(clean %llu, degraded %llu, unusable %llu)\n",
            quality.coverageFraction * 100.0,
            static_cast<unsigned long long>(quality.totalBlocks),
            static_cast<unsigned long long>(quality.cleanBlocks),
            static_cast<unsigned long long>(quality.degradedBlocks),
            static_cast<unsigned long long>(quality.unusableBlocks));
        out += line;
        std::snprintf(
            line, sizeof(line),
            "  quarantined: clipping %llu, dropout %llu, low-SNR %llu; "
            "events dropped %llu; mean confidence %.2f\n",
            static_cast<unsigned long long>(quality.quarantinedClipping),
            static_cast<unsigned long long>(quality.quarantinedDropout),
            static_cast<unsigned long long>(quality.quarantinedLowSnr),
            static_cast<unsigned long long>(quality.eventsDropped),
            quality.meanConfidence);
        out += line;
    }
    return out;
}

} // namespace emprof::profiler
