#include "profiler/dip_detector.hpp"

#include "obs/metrics.hpp"

namespace emprof::profiler {

namespace {

// Runs once per dip *close* — orders of magnitude rarer than the
// per-sample push path, so a guarded counter update here stays
// invisible in the throughput bench.  Kept dips are counted where
// ChunkStitcher keeps their events (stitch.cpp): a chunk-local close
// may still be folded into a dip carried across a span boundary.
void
countShortDip()
{
    if (!obs::MetricsRegistry::enabled())
        return;
    static const obs::Counter rejected_short =
        obs::MetricsRegistry::instance().counter(
            "detector.dips_rejected.short_duration");
    rejected_short.inc();
}

} // namespace

DipDetector::DipDetector(const DipDetectorConfig &config) : config_(config)
{}

void
DipDetector::fillEvent(StallEvent &out) const
{
    out = StallEvent{};
    out.startSample = dipStart_;
    out.endSample = dipLastBelowExit_;
    out.depth = depthCount_ == 0
                    ? 0.0
                    : depthSum_ / static_cast<double>(depthCount_);
}

bool
DipDetector::closeDip(StallEvent &out)
{
    // Dip ended at the last sample that was still below exit.
    bool emitted = false;
    if (dipLastBelowExit_ - dipStart_ + 1 >=
        config_.minDurationSamples) {
        fillEvent(out);
        emitted = true;
    } else {
        countShortDip();
    }
    inDip_ = false;
    depthSum_ = 0.0;
    depthCount_ = 0;
    return emitted;
}

DipDetector::DipState
DipDetector::state() const
{
    DipState s;
    s.inDip = inDip_;
    s.start = dipStart_;
    s.lastBelowExit = dipLastBelowExit_;
    s.depthSum = depthSum_;
    s.depthCount = depthCount_;
    return s;
}

bool
DipDetector::finish(StallEvent &out)
{
    if (!inDip_)
        return false;
    inDip_ = false;
    if (dipLastBelowExit_ - dipStart_ + 1 < config_.minDurationSamples) {
        countShortDip();
        return false;
    }
    fillEvent(out);
    return true;
}

} // namespace emprof::profiler
