#include "profiler/stitch.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "profiler/report.hpp"
#include "profiler/signal_quality.hpp"

namespace emprof::profiler {

ChunkStitcher::ChunkStitcher(const EmProfConfig &config)
    : config_(config),
      // Same duration cut the chunk-local detectors used (the resilient
      // path relaxes it to compensate for pre-smoother dip widening).
      minDuration_(config.effectiveMinDurationSamples())
{}

void
ChunkStitcher::emitCarry()
{
    if (carry_.lastBelowExit - carry_.start + 1 < minDuration_)
        return;
    StallEvent ev;
    ev.startSample = carry_.start;
    ev.endSample = carry_.lastBelowExit;
    ev.depth = carry_.depthCount == 0
                   ? 0.0
                   : carry_.depthSum /
                         static_cast<double>(carry_.depthCount);
    classifyStall(ev, config_);
    events_.push_back(ev);
}

void
ChunkStitcher::feed(const ChunkResult &chunk)
{
    uint64_t first_valid = chunk.begin;
    if (carry_.inDip) {
        ++carriedDips_;
        replayedSamples_ += chunk.prefixNorms.size();
        // Replay the prefix into the carried dip sample by sample, in
        // order, exactly as streaming would have accumulated it.
        for (std::size_t k = 0; k < chunk.prefixNorms.size(); ++k) {
            carry_.lastBelowExit = chunk.begin + k;
            carry_.depthSum += chunk.prefixNorms[k];
            ++carry_.depthCount;
        }
        if (chunk.prefixNorms.size() != chunk.end - chunk.begin) {
            emitCarry();
            carry_ = DipDetector::DipState{};
            // Chunk-local events inside the prefix belong to the
            // carried dip, not to a fresh one.
            first_valid = chunk.begin + chunk.prefixNorms.size();
        }
        // else: whole chunk below exit — the dip stays open and the
        // chunk can have produced neither events nor an open dip of
        // its own that starts outside the prefix.
    }
    if (!carry_.inDip) {
        // Chunk events are in start order, so the kept ones are a
        // suffix.
        events_.insert(events_.end(),
                       std::find_if(chunk.events.begin(),
                                    chunk.events.end(),
                                    [first_valid](const StallEvent &ev) {
                                        return ev.startSample >=
                                               first_valid;
                                    }),
                       chunk.events.end());
        if (chunk.open.inDip && chunk.open.start >= first_valid)
            carry_ = chunk.open;
    }
    if (config_.signal.enabled)
        blocks_.insert(blocks_.end(), chunk.blocks.begin(),
                       chunk.blocks.end());
}

ProfileResult
ChunkStitcher::finalize(uint64_t totalSamples)
{
    EMPROF_OBS_STAGE("analyze.stitch_finalize");
    // Input ends mid-dip: same flush rule as DipDetector::finish().
    if (!finalized_ && carry_.inDip) {
        emitCarry();
        carry_ = DipDetector::DipState{};
    }
    finalized_ = true;

    ProfileResult result;
    result.events = std::move(events_);
    events_.clear();
    SignalQualitySummary quality;
    if (config_.signal.enabled)
        quality = applySignalQuality(result.events, blocks_,
                                     config_.detectorConfig(),
                                     config_.signal, totalSamples);
    result.report = makeReport(result.events, config_.sampleRateHz,
                               config_.clockHz, totalSamples);
    result.report.quality = quality;

    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter samples_processed =
            registry.counter("profiler.samples_processed");
        static const obs::Counter events_emitted =
            registry.counter("profiler.events_emitted");
        static const obs::Counter carried_dips =
            registry.counter("analyzer.stitch.carried_dips");
        static const obs::Counter replayed_samples =
            registry.counter("analyzer.stitch.replayed_samples");
        samples_processed.add(totalSamples);
        events_emitted.add(result.events.size());
        carried_dips.add(carriedDips_);
        replayed_samples.add(replayedSamples_);
    }
    return result;
}

} // namespace emprof::profiler
