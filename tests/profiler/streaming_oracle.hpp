/**
 * @file
 * The per-sample EMPROF loop that the span kernels replaced, kept as
 * the test oracle.  One normaliser, one dip detector and (in resilient
 * mode) one quality-block accumulator are pushed one sample at a time,
 * exactly as a live SDR stream would drive them; no spans, halos,
 * prefixes or stitching are involved.  Every parity suite compares a
 * chunked path (EmProf::analyze, analyzeParallel, analyzeCapture,
 * SpanWindow, SessionPipeline) against this loop bit for bit;
 * expectMatchesOracle() is that comparison at its strictest.
 */

#ifndef EMPROF_TESTS_PROFILER_STREAMING_ORACLE_HPP
#define EMPROF_TESTS_PROFILER_STREAMING_ORACLE_HPP

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/types.hpp"
#include "profiler/dip_detector.hpp"
#include "profiler/events.hpp"
#include "profiler/normalizer.hpp"
#include "profiler/profiler.hpp"
#include "profiler/report.hpp"
#include "profiler/signal_quality.hpp"

namespace emprof::profiler::oracle {

class StreamingOracle
{
  public:
    explicit StreamingOracle(const EmProfConfig &config)
        : config_(config),
          normalizer_(config.normWindowSamples(), config.minContrast),
          detector_(config.detectorConfig()),
          resilient_(config.signal.enabled),
          // When the resilience layer is off the adaptive normaliser
          // is never pushed; size it trivially so it costs no memory.
          adaptive_(config.signal.enabled ? config.normWindowSamples()
                                          : 1,
                    config.signal.enabled ? config.smootherSamples() : 1,
                    config.signal.driftToleranceFraction > 0.0
                        ? config.signal.driftToleranceFraction
                        : 0.05,
                    config.minContrast),
          blockLen_(config.signal.enabled ? config.qualityBlockSamples()
                                          : 0)
    {}

    /**
     * Push one magnitude sample; completed events are appended to the
     * event list.
     *
     * @retval true An event was completed by this sample.
     */
    bool
    push(dsp::Sample magnitude)
    {
        const double m = magnitude;
        const double normalized =
            resilient_ ? pushResilient(m) : normalizer_.push(m);
        ++samples_;
        StallEvent ev;
        if (detector_.push(normalized, ev)) {
            classifyStall(ev, config_);
            events_.push_back(ev);
            return true;
        }
        return false;
    }

    /** Flush any open dip and build the final report. */
    ProfileResult
    finish()
    {
        StallEvent ev;
        if (detector_.finish(ev)) {
            classifyStall(ev, config_);
            events_.push_back(ev);
        }

        ProfileResult result;
        result.events = events_;
        SignalQualitySummary quality;
        if (resilient_) {
            if (samples_ > 0)
                blocks_.push_back(
                    blockAcc_.finish(samples_, config_.signal));
            quality = applySignalQuality(result.events, blocks_,
                                         config_.detectorConfig(),
                                         config_.signal, samples_);
        }
        result.report = makeReport(result.events, config_.sampleRateHz,
                                   config_.clockHz, samples_);
        result.report.quality = quality;
        return result;
    }

    /** Events completed so far (valid before finish() too). */
    const std::vector<StallEvent> &events() const { return events_; }

    /** Samples consumed so far. */
    uint64_t samplesSeen() const { return samples_; }

    /** The whole series, one sample at a time; the series' own sample
     *  rate overrides config.sampleRateHz, as in EmProf::analyze. */
    static ProfileResult
    analyze(const dsp::TimeSeries &magnitude, EmProfConfig config)
    {
        if (magnitude.sampleRateHz > 0.0)
            config.sampleRateHz = magnitude.sampleRateHz;
        StreamingOracle oracle(config);
        for (dsp::Sample s : magnitude.samples)
            oracle.push(s);
        return oracle.finish();
    }

  private:
    /** Resilient-path per-sample work (adaptive norm + block stats). */
    double
    pushResilient(double magnitude)
    {
        const uint64_t idx = samples_;
        if (idx == 0) {
            blockAcc_.begin(0);
        } else if (idx - blockStart_ == blockLen_) {
            blocks_.push_back(blockAcc_.finish(idx, config_.signal));
            blockAcc_.begin(idx);
            blockStart_ = idx;
        }
        blockAcc_.push(magnitude);
        return adaptive_.push(magnitude);
    }

    EmProfConfig config_;
    MovingMinMaxNormalizer normalizer_;
    DipDetector detector_;
    std::vector<StallEvent> events_;
    uint64_t samples_ = 0;

    bool resilient_ = false;
    AdaptiveNormalizer adaptive_;
    BlockAccumulator blockAcc_;
    std::vector<SignalBlock> blocks_;
    uint64_t blockStart_ = 0;
    uint64_t blockLen_ = 0;
};

/** Every event field and the whole report, quality summary included,
 *  bit for bit. */
inline void
expectMatchesOracle(const ProfileResult &got, const ProfileResult &want)
{
    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t i = 0; i < want.events.size(); ++i) {
        const StallEvent &x = got.events[i];
        const StallEvent &y = want.events[i];
        EXPECT_EQ(x.startSample, y.startSample) << "event " << i;
        EXPECT_EQ(x.endSample, y.endSample) << "event " << i;
        EXPECT_EQ(x.depth, y.depth) << "event " << i;
        EXPECT_EQ(x.durationNs, y.durationNs) << "event " << i;
        EXPECT_EQ(x.stallCycles, y.stallCycles) << "event " << i;
        EXPECT_EQ(x.confidence, y.confidence) << "event " << i;
        EXPECT_EQ(x.kind, y.kind) << "event " << i;
        EXPECT_EQ(x.level, y.level) << "event " << i;
        EXPECT_EQ(x.levelConfidence, y.levelConfidence) << "event " << i;
    }
    const SignalQualitySummary &p = got.report.quality;
    const SignalQualitySummary &q = want.report.quality;
    EXPECT_EQ(p.enabled, q.enabled);
    EXPECT_EQ(p.totalBlocks, q.totalBlocks);
    EXPECT_EQ(p.unusableBlocks, q.unusableBlocks);
    EXPECT_EQ(p.eventsDropped, q.eventsDropped);
    EXPECT_EQ(p.coverageFraction, q.coverageFraction);
    EXPECT_EQ(p.meanConfidence, q.meanConfidence);
    EXPECT_EQ(got.report.toText(), want.report.toText());
}

} // namespace emprof::profiler::oracle

#endif // EMPROF_TESTS_PROFILER_STREAMING_ORACLE_HPP
