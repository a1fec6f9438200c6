#include "profiler/profiler.hpp"

#include <cmath>

#include "obs/stage_profiler.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/stitch.hpp"

namespace emprof::profiler {

bool
EmProfConfig::validate(std::string *why) const
{
    const auto bad = [&](const char *reason) {
        if (why != nullptr)
            *why = reason;
        return false;
    };
    if (!std::isfinite(sampleRateHz) || sampleRateHz <= 0.0)
        return bad("sampleRateHz must be finite and > 0");
    if (!std::isfinite(clockHz) || clockHz <= 0.0)
        return bad("clockHz must be finite and > 0");
    if (!std::isfinite(normWindowSeconds) || normWindowSeconds <= 0.0)
        return bad("normWindowSeconds must be finite and > 0");
    if (!std::isfinite(minContrast) || minContrast < 0.0)
        return bad("minContrast must be finite and >= 0");
    if (!std::isfinite(enterThreshold) || !std::isfinite(exitThreshold))
        return bad("dip thresholds must be finite");
    if (enterThreshold > exitThreshold)
        return bad("enterThreshold must not exceed exitThreshold "
                   "(hysteresis would invert)");
    if (!std::isfinite(minStallNs) || minStallNs < 0.0)
        return bad("minStallNs must be finite and >= 0");
    if (!std::isfinite(refreshStallNs) || refreshStallNs < 0.0)
        return bad("refreshStallNs must be finite and >= 0");
    if (!std::isfinite(llcHitMaxNs) || llcHitMaxNs < 0.0)
        return bad("llcHitMaxNs must be finite and >= 0");
    if (!std::isfinite(prefetchMaskedMaxNs) || prefetchMaskedMaxNs < 0.0)
        return bad("prefetchMaskedMaxNs must be finite and >= 0");
    if (llcHitMaxNs > refreshStallNs)
        return bad("llcHitMaxNs must not exceed refreshStallNs "
                   "(level bands would invert)");
    if (prefetchMaskedMaxNs > 0.0 &&
        (prefetchMaskedMaxNs < llcHitMaxNs ||
         prefetchMaskedMaxNs > refreshStallNs))
        return bad("prefetchMaskedMaxNs must lie between llcHitMaxNs "
                   "and refreshStallNs (level bands would invert)");
    if (!signal.validate(why))
        return false;
    return true;
}

const char *
serviceLevelName(ServiceLevel level)
{
    switch (level) {
    case ServiceLevel::LlcHit:
        return "llc-hit";
    case ServiceLevel::PrefetchMasked:
        return "prefetch-masked";
    case ServiceLevel::Dram:
        return "dram";
    case ServiceLevel::DramRefresh:
        return "dram-refresh";
    }
    return "unknown";
}

namespace {

// Confidence contribution of one band boundary: log2 distance of the
// measured duration from it, saturating at a factor of two.  Exactly on
// a boundary -> 0; ambiguous durations score low on whichever side they
// land.
double
boundaryConfidence(double duration_ns, double boundary_ns)
{
    if (boundary_ns <= 0.0)
        return 1.0;
    if (duration_ns <= 0.0)
        return 0.0;
    const double dist = std::fabs(std::log2(duration_ns / boundary_ns));
    return dist < 1.0 ? dist : 1.0;
}

} // namespace

void
classifyStall(StallEvent &ev, const EmProfConfig &config)
{
    // Belt-and-braces for callers without an error channel: a config
    // that validate() would reject yields zeroed fields, never NaN.
    // The post-hoc check below catches configs that pass the entry
    // check but still overflow the arithmetic (e.g. a denormal sample
    // rate turning sample_ns infinite).
    const auto reject = [&ev] {
        ev.durationNs = 0.0;
        ev.stallCycles = 0.0;
        ev.kind = StallKind::LlcMiss;
        ev.level = ServiceLevel::LlcHit;
        ev.levelConfidence = 0.0;
    };
    if (!std::isfinite(config.sampleRateHz) ||
        config.sampleRateHz <= 0.0 || !std::isfinite(config.clockHz)) {
        reject();
        return;
    }
    const double sample_ns = 1e9 / config.sampleRateHz;
    ev.durationNs = static_cast<double>(ev.durationSamples()) * sample_ns;
    ev.stallCycles = ev.durationNs * 1e-9 * config.clockHz;
    if (!std::isfinite(ev.durationNs) || !std::isfinite(ev.stallCycles)) {
        reject();
        return;
    }
    ev.kind = ev.durationNs >= config.refreshStallNs
                  ? StallKind::RefreshCoincident
                  : StallKind::LlcMiss;

    // Service-level attribution: duration bands ordered by latency.
    // The DRAM band starts at the prefetch boundary when the target
    // has a prefetcher, at the LLC boundary otherwise.
    const double dram_min_ns = config.prefetchMaskedMaxNs > 0.0
                                   ? config.prefetchMaskedMaxNs
                                   : config.llcHitMaxNs;
    if (ev.durationNs >= config.refreshStallNs)
        ev.level = ServiceLevel::DramRefresh;
    else if (ev.durationNs >= dram_min_ns)
        ev.level = ServiceLevel::Dram;
    else if (ev.durationNs >= config.llcHitMaxNs)
        ev.level = ServiceLevel::PrefetchMasked;
    else
        ev.level = ServiceLevel::LlcHit;

    double conf = boundaryConfidence(ev.durationNs, config.refreshStallNs);
    conf = std::min(
        conf, boundaryConfidence(ev.durationNs, config.llcHitMaxNs));
    conf = std::min(conf, boundaryConfidence(ev.durationNs,
                                             config.prefetchMaskedMaxNs));
    ev.levelConfidence = conf;
}

ProfileResult
EmProf::analyze(const dsp::TimeSeries &magnitude, EmProfConfig config)
{
    EMPROF_OBS_STAGE("analyze.streaming");
    if (magnitude.sampleRateHz > 0.0)
        config.sampleRateHz = magnitude.sampleRateHz;
    const uint64_t n = magnitude.samples.size();
    ChunkStitcher stitcher(config);
    ChunkResult span = detail::analyzeChunkStreaming(
        magnitude.samples.data(), 0, 0, n, /*is_final=*/true, config);
    stitcher.feed(span);
    EventListPool::shared().give(std::move(span.events));
    return stitcher.finalize(n);
}

} // namespace emprof::profiler
