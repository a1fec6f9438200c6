/**
 * @file
 * Tests for the signal-domain resilience layer: adaptive normaliser,
 * quality-block classification, quarantine, per-event confidence, and
 * the bit-parity of the resilient streaming and parallel paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsp/impairment.hpp"
#include "dsp/rng.hpp"
#include "profiler/normalizer.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "profiler/signal_quality.hpp"
#include "streaming_oracle.hpp"
#include "../parity.hpp"

namespace emprof::profiler {
namespace {

/** Busy level 1.0 with rectangular dips to `floor`, `width` samples
 *  long, every `period` samples, plus ~1% sensor noise so the blocks
 *  look like a live capture rather than a synthetic constant (an
 *  exactly flat stretch correctly reads as a stuck-sample dropout). */
dsp::TimeSeries
dipSignal(std::size_t n, std::size_t period, std::size_t width,
          float floor_level, double rate = 40e6)
{
    dsp::TimeSeries s;
    s.sampleRateHz = rate;
    s.samples.assign(n, 1.0f);
    for (std::size_t start = period; start + width < n; start += period)
        for (std::size_t i = 0; i < width; ++i)
            s.samples[start + i] = floor_level;
    dsp::Rng rng(0x51c4a1u);
    for (auto &v : s.samples)
        v += static_cast<float>(rng.uniform(-0.01, 0.01));
    return s;
}

/** Short-window config matched to dipSignal(): 1024-sample envelope. */
EmProfConfig
testConfig()
{
    EmProfConfig config;
    config.sampleRateHz = 40e6;
    config.clockHz = 1e9;
    config.normWindowSeconds = 25.6e-6; // 1024 samples at 40 MHz
    return config;
}

// --- adaptive normaliser -------------------------------------------

TEST(BoxSmoother, ComputesTrailingWindowMean)
{
    BoxSmoother box(3);
    EXPECT_DOUBLE_EQ(box.push(3.0), 3.0);
    EXPECT_DOUBLE_EQ(box.push(6.0), 4.5);
    EXPECT_DOUBLE_EQ(box.push(9.0), 6.0);
    EXPECT_DOUBLE_EQ(box.push(0.0), 5.0); // {6, 9, 0}
}

TEST(AdaptiveNormalizer, SubStepJitterLeavesCalibrationUntouched)
{
    AdaptiveNormalizer norm(64, 2, 0.05);
    // Envelope jitter well inside one 5% grid step.
    for (int i = 0; i < 256; ++i)
        norm.push(1.0 + 0.002 * ((i % 3) - 1));
    const double hi = norm.envelopeMax();
    const double lo = norm.envelopeMin();
    for (int i = 0; i < 256; ++i) {
        norm.push(1.0 + 0.002 * ((i % 3) - 1));
        EXPECT_DOUBLE_EQ(norm.envelopeMax(), hi);
        EXPECT_DOUBLE_EQ(norm.envelopeMin(), lo);
    }
}

TEST(AdaptiveNormalizer, TracksSlowGainDriftThroughDips)
{
    // Gain swings +-35% over a period much longer than the envelope
    // window; dips must still normalise near 0 and busy near 1 at
    // every point of the swing.
    AdaptiveNormalizer norm(1024, 2, 0.05);
    double worst_busy = 1.0, worst_dip = 0.0;
    for (std::size_t i = 0; i < 50000; ++i) {
        const double gain =
            1.0 + 0.35 * std::sin(2.0 * 3.14159265358979 *
                                  static_cast<double>(i) / 20000.0);
        const bool in_dip = (i % 400) < 8 && i > 2048;
        const double x = gain * (in_dip ? 0.1 : 1.0);
        const double v = norm.push(x);
        if (i > 2048) {
            if (in_dip)
                worst_dip = std::max(worst_dip, v);
            else
                worst_busy = std::min(worst_busy, v);
        }
    }
    EXPECT_LT(worst_dip, 0.22);
    EXPECT_GT(worst_busy, 0.38);
}

// --- block classification ------------------------------------------

SignalBlock
accumulate(const std::vector<double> &xs, const SignalQualityConfig &cfg)
{
    BlockAccumulator acc;
    acc.begin(0);
    for (double x : xs)
        acc.push(x);
    return acc.finish(xs.size(), cfg);
}

TEST(BlockAccumulator, CleanHighSnrBlock)
{
    dsp::Rng rng(1u);
    std::vector<double> xs;
    for (int i = 0; i < 1024; ++i)
        xs.push_back(1.0 + rng.uniform(-0.001, 0.001));
    const auto b = accumulate(xs, SignalQualityConfig{});
    EXPECT_EQ(b.cls, BlockClass::Clean);
    EXPECT_EQ(b.reason, QuarantineReason::None);
    EXPECT_GT(b.snrDb, 30.0);
}

TEST(BlockAccumulator, ClippingPlateauQuarantines)
{
    std::vector<double> xs;
    for (int i = 0; i < 1024; ++i)
        xs.push_back(i % 8 == 0 ? 2.0 : 1.0 + 0.01 * (i % 3));
    const auto b = accumulate(xs, SignalQualityConfig{});
    EXPECT_EQ(b.cls, BlockClass::Unusable);
    EXPECT_EQ(b.reason, QuarantineReason::Clipping);
}

TEST(BlockAccumulator, DropoutRunQuarantines)
{
    dsp::Rng rng(2u);
    std::vector<double> xs;
    for (int i = 0; i < 1024; ++i)
        xs.push_back(i < 100 ? 0.0 : 1.0 + rng.uniform(-0.01, 0.01));
    const auto b = accumulate(xs, SignalQualityConfig{});
    EXPECT_EQ(b.cls, BlockClass::Unusable);
    EXPECT_EQ(b.reason, QuarantineReason::Dropout);
}

TEST(BlockAccumulator, NoiseSwampedBlockQuarantines)
{
    // Mean ~0.05 with first differences ~0.2: SNR well below 3 dB.
    std::vector<double> xs;
    for (int i = 0; i < 1024; ++i)
        xs.push_back(i % 2 == 0 ? 0.0 : 0.2 + 1e-4 * (i % 11));
    const auto b = accumulate(xs, SignalQualityConfig{});
    EXPECT_LT(b.snrDb, 3.0);
    // Alternating exact zeros also read as dropouts; either unusable
    // reason is a correct quarantine.  Force the SNR reason with a
    // continuous dither that keeps the zero/repeat counters silent.
    dsp::Rng rng(3u);
    std::vector<double> dithered;
    for (int i = 0; i < 1024; ++i)
        dithered.push_back(0.03 + rng.uniform(-0.049, 0.049));
    const auto d = accumulate(dithered, SignalQualityConfig{});
    EXPECT_EQ(d.cls, BlockClass::Unusable);
    EXPECT_EQ(d.reason, QuarantineReason::LowSnr);
}

TEST(BlockAccumulator, ModerateSnrDegradesOnly)
{
    // ~18 dB SNR: below full confidence, above the degraded cut of 10.
    SignalQualityConfig cfg;
    cfg.degradedSnrDb = 20.0;
    dsp::Rng rng(4u);
    std::vector<double> xs;
    for (int i = 0; i < 1024; ++i)
        xs.push_back(1.0 + rng.uniform(-0.3, 0.3));
    const auto b = accumulate(xs, cfg);
    EXPECT_EQ(b.cls, BlockClass::Degraded);
    EXPECT_EQ(b.reason, QuarantineReason::None);
}

TEST(SignalQualityConfigValidate, RejectsBadRanges)
{
    SignalQualityConfig cfg;
    EXPECT_TRUE(cfg.validate());
    cfg.maxClipFraction = 1.5;
    EXPECT_FALSE(cfg.validate());
    cfg = SignalQualityConfig{};
    cfg.driftToleranceFraction = 0.0;
    EXPECT_FALSE(cfg.validate());
    cfg = SignalQualityConfig{};
    cfg.degradedSnrDb = cfg.minSnrDb - 1.0;
    std::string why;
    EXPECT_FALSE(cfg.validate(&why));
    EXPECT_FALSE(why.empty());
}

// --- quarantine + confidence pass ----------------------------------

TEST(ApplySignalQuality, DropsEventsTouchingUnusableBlocks)
{
    SignalQualityConfig cfg;
    cfg.enabled = true;
    DipDetectorConfig det;
    det.minDurationSamples = 4;

    std::vector<SignalBlock> blocks(3);
    blocks[0] = {};
    blocks[0].begin = 0;
    blocks[0].end = 100;
    blocks[0].cls = BlockClass::Clean;
    blocks[0].snrDb = 40.0;
    blocks[1] = {};
    blocks[1].begin = 100;
    blocks[1].end = 200;
    blocks[1].cls = BlockClass::Unusable;
    blocks[1].reason = QuarantineReason::Dropout;
    blocks[2] = {};
    blocks[2].begin = 200;
    blocks[2].end = 300;
    blocks[2].cls = BlockClass::Degraded;
    blocks[2].snrDb = 15.0;

    std::vector<StallEvent> events(3);
    events[0].startSample = 10;
    events[0].endSample = 30; // clean: kept
    events[1].startSample = 95;
    events[1].endSample = 105; // touches unusable: dropped
    events[2].startSample = 250;
    events[2].endSample = 260; // degraded: kept, reduced confidence
    for (auto &ev : events)
        ev.depth = 0.0;

    const auto summary =
        applySignalQuality(events, blocks, det, cfg, 300);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].startSample, 10u);
    EXPECT_EQ(events[1].startSample, 250u);
    EXPECT_EQ(summary.eventsDropped, 1u);
    EXPECT_EQ(summary.unusableBlocks, 1u);
    EXPECT_EQ(summary.quarantinedDropout, 1u);
    EXPECT_NEAR(summary.coverageFraction, 200.0 / 300.0, 1e-12);
    // Clean block, max margin, duration 21 >= 2*4 -> full confidence.
    EXPECT_DOUBLE_EQ(events[0].confidence, 1.0);
    // Degraded block at 15 dB: SNR factor 15/30.
    EXPECT_NEAR(events[1].confidence, 0.5, 1e-12);
    EXPECT_NEAR(summary.meanConfidence, 0.75, 1e-12);
}

TEST(ApplySignalQuality, ConfidenceScalesWithMarginAndDuration)
{
    SignalQualityConfig cfg;
    cfg.enabled = true;
    DipDetectorConfig det; // exit 0.38, minDuration 4
    det.minDurationSamples = 4;

    std::vector<SignalBlock> blocks(1);
    blocks[0].begin = 0;
    blocks[0].end = 1000;
    blocks[0].cls = BlockClass::Clean;
    blocks[0].snrDb = 60.0; // saturates the SNR factor

    std::vector<StallEvent> events(2);
    events[0].startSample = 10;
    events[0].endSample = 13; // duration 4 = minimum -> factor 0.5
    events[0].depth = 0.0;    // full margin
    events[1].startSample = 100;
    events[1].endSample = 120; // long -> factor 1
    events[1].depth = det.exitThreshold / 2.0; // margin factor 0.5
    applySignalQuality(events, blocks, det, cfg, 1000);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NEAR(events[0].confidence, 0.5, 1e-12);
    EXPECT_NEAR(events[1].confidence, 0.5, 1e-12);
}

TEST(EmProfConfigDerived, ResilienceRelaxesDetectorDuration)
{
    EmProfConfig config = testConfig();
    EXPECT_EQ(config.minDurationSamples(), 4u);
    EXPECT_EQ(config.effectiveMinDurationSamples(), 4u);
    EXPECT_EQ(config.haloSamples(), config.normWindowSamples() - 1);

    config.signal.enabled = true;
    EXPECT_EQ(config.smootherSamples(), 2u);
    EXPECT_EQ(config.effectiveMinDurationSamples(), 3u);
    EXPECT_EQ(config.qualityBlockSamples(), config.normWindowSamples());
    EXPECT_EQ(config.haloSamples(), config.normWindowSamples());
}

// --- end-to-end resilience -----------------------------------------

TEST(ResilientParallel, BitIdenticalToResilientStreaming)
{
    auto series = dipSignal(32768, 400, 8, 0.1f);
    dsp::ImpairmentSpec impair;
    ASSERT_TRUE(dsp::parseImpairmentSpec(
        "snr=25,drift=0.25:0.0002,impulse=5e-5:6,seed=77", impair));
    dsp::applyImpairments(series, impair);

    EmProfConfig config = testConfig();
    config.signal.enabled = true;

    const auto streaming = oracle::StreamingOracle::analyze(series, config);
    for (std::size_t threads : {2u, 8u}) {
        for (std::size_t chunk : {512u, 1000u, 4096u}) {
            ParallelAnalyzerConfig pcfg;
            pcfg.threads = threads;
            pcfg.chunkSamples = chunk;
            const auto parallel =
                analyzeParallel(series, config, pcfg);
            EXPECT_EQ(parity::eventsDiff(streaming.events, parallel.events),
                      "");
            EXPECT_EQ(streaming.report.quality.totalBlocks,
                      parallel.report.quality.totalBlocks);
            EXPECT_EQ(streaming.report.quality.unusableBlocks,
                      parallel.report.quality.unusableBlocks);
            EXPECT_EQ(streaming.report.quality.eventsDropped,
                      parallel.report.quality.eventsDropped);
            EXPECT_EQ(streaming.report.quality.coverageFraction,
                      parallel.report.quality.coverageFraction);
            EXPECT_EQ(streaming.report.quality.meanConfidence,
                      parallel.report.quality.meanConfidence);
        }
    }
}

TEST(ResilientAnalysis, QuarantinedSpanEmitsNoEvents)
{
    auto series = dipSignal(32768, 400, 8, 0.1f);
    // Kill a span outright: a stuck-at-zero stretch covering several
    // dips.  Without quarantine it reads as one giant stall.
    const std::size_t kill_begin = 10000, kill_end = 14000;
    for (std::size_t i = kill_begin; i < kill_end; ++i)
        series.samples[i] = 0.0f;

    EmProfConfig config = testConfig();
    config.signal.enabled = true;
    const auto result = EmProf::analyze(series, config);

    EXPECT_GT(result.events.size(), 0u);
    const std::size_t q = config.qualityBlockSamples();
    const uint64_t quarantine_lo = (kill_begin / q) * q;
    const uint64_t quarantine_hi = ((kill_end + q - 1) / q) * q;
    for (const auto &ev : result.events) {
        EXPECT_TRUE(ev.endSample < quarantine_lo ||
                    ev.startSample >= quarantine_hi)
            << "event [" << ev.startSample << ", " << ev.endSample
            << "] overlaps the quarantined span";
    }
    EXPECT_TRUE(result.report.quality.enabled);
    EXPECT_GT(result.report.quality.unusableBlocks, 0u);
    EXPECT_GT(result.report.quality.eventsDropped, 0u);
    EXPECT_LT(result.report.quality.coverageFraction, 1.0);
    EXPECT_GT(result.report.quality.coverageFraction, 0.8);
}

TEST(ResilientAnalysis, CleanSignalKeepsFullCoverageAndConfidence)
{
    auto series = dipSignal(16384, 400, 8, 0.1f);
    EmProfConfig config = testConfig();
    config.signal.enabled = true;
    const auto result = EmProf::analyze(series, config);
    EXPECT_GT(result.events.size(), 30u);
    EXPECT_DOUBLE_EQ(result.report.quality.coverageFraction, 1.0);
    EXPECT_EQ(result.report.quality.unusableBlocks, 0u);
    for (const auto &ev : result.events)
        EXPECT_GT(ev.confidence, 0.5) << "at " << ev.startSample;
}

TEST(ResilientAnalysis, DisabledLayerReportsInertQuality)
{
    auto series = dipSignal(8192, 400, 8, 0.1f);
    const auto result = EmProf::analyze(series, testConfig());
    EXPECT_FALSE(result.report.quality.enabled);
    EXPECT_DOUBLE_EQ(result.report.quality.coverageFraction, 1.0);
    for (const auto &ev : result.events)
        EXPECT_DOUBLE_EQ(ev.confidence, 1.0);
}

} // namespace
} // namespace emprof::profiler
