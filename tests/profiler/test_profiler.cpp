/**
 * @file
 * Unit tests for the EMPROF facade.
 */

#include <gtest/gtest.h>

#include "../e2e/golden_common.hpp"
#include "dsp/rng.hpp"
#include "profiler/profiler.hpp"
#include "streaming_oracle.hpp"

namespace emprof::profiler {
namespace {

/** Synthesise a magnitude signal with planted stalls. */
dsp::TimeSeries
makeSignal(double rate_hz, const std::vector<std::pair<std::size_t,
                                                       std::size_t>> &dips,
           std::size_t total, double busy = 1.0, double stall = 0.2)
{
    dsp::TimeSeries s;
    s.sampleRateHz = rate_hz;
    s.samples.assign(total, static_cast<float>(busy));
    dsp::Rng rng(5);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    for (const auto &[start, len] : dips) {
        for (std::size_t i = start; i < start + len && i < total; ++i)
            s.samples[i] = static_cast<float>(stall);
    }
    return s;
}

EmProfConfig
testConfig(double rate = 40e6)
{
    EmProfConfig cfg;
    cfg.clockHz = 1e9;
    cfg.sampleRateHz = rate;
    cfg.normWindowSeconds = 20e-6;
    return cfg;
}

TEST(EmProf, DetectsPlantedStallsWithCorrectDurations)
{
    // 10 dips of 8 samples each at 40 MHz = 200 ns = 200 cycles.
    std::vector<std::pair<std::size_t, std::size_t>> dips;
    for (std::size_t i = 0; i < 10; ++i)
        dips.push_back({1000 + i * 100, 8});
    const auto sig = makeSignal(40e6, dips, 5000);
    const auto result = EmProf::analyze(sig, testConfig());
    ASSERT_EQ(result.report.totalEvents, 10u);
    for (const auto &ev : result.events) {
        EXPECT_NEAR(ev.durationNs, 200.0, 1e-6);
        EXPECT_NEAR(ev.stallCycles, 200.0, 1e-6);
        EXPECT_EQ(ev.kind, StallKind::LlcMiss);
    }
}

TEST(EmProf, ClassifiesRefreshCoincidentStalls)
{
    // One 2.5 us stall among ordinary 200 ns stalls.
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {1000, 8}, {2000, 100}, {4000, 8}}; // 100 samples = 2.5 us
    const auto sig = makeSignal(40e6, dips, 8000);
    const auto result = EmProf::analyze(sig, testConfig());
    ASSERT_EQ(result.report.totalEvents, 3u);
    EXPECT_EQ(result.report.refreshEvents, 1u);
    EXPECT_EQ(result.report.missEvents, 2u);
}

TEST(EmProf, DurationThresholdRejectsOnChipStalls)
{
    // 1-sample dips (25 ns) are below the 60 ns threshold.
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {1000, 1}, {1100, 1}, {1200, 8}};
    const auto sig = makeSignal(40e6, dips, 3000);
    const auto result = EmProf::analyze(sig, testConfig());
    EXPECT_EQ(result.report.totalEvents, 1u);
}

TEST(EmProf, ReportPercentagesAddUp)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {1000, 40}, {3000, 40}};
    const auto sig = makeSignal(40e6, dips, 10000);
    const auto result = EmProf::analyze(sig, testConfig());
    // 80 of 10000 samples stalled -> 0.8 %.
    EXPECT_NEAR(result.report.stallPercent, 0.8, 0.05);
    EXPECT_NEAR(result.report.executionCycles, 250000.0, 1.0);
}

TEST(EmProf, StreamingMatchesBatch)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {500, 8}, {900, 12}, {1500, 6}};
    const auto sig = makeSignal(40e6, dips, 3000);

    const auto batch = EmProf::analyze(sig, testConfig());

    EmProfConfig cfg = testConfig();
    oracle::StreamingOracle streaming(cfg);
    for (float x : sig.samples)
        streaming.push(x);
    const auto stream_result = streaming.finish();

    ASSERT_EQ(batch.events.size(), stream_result.events.size());
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
        EXPECT_EQ(batch.events[i].startSample,
                  stream_result.events[i].startSample);
        EXPECT_EQ(batch.events[i].endSample,
                  stream_result.events[i].endSample);
    }
}

TEST(EmProf, AnalyzeUsesSeriesSampleRate)
{
    // Same dip, half the sample rate -> twice the reported cycles.
    std::vector<std::pair<std::size_t, std::size_t>> dips = {{1000, 8}};
    auto sig = makeSignal(20e6, dips, 3000);
    const auto result = EmProf::analyze(sig, testConfig(40e6));
    ASSERT_EQ(result.events.size(), 1u);
    EXPECT_NEAR(result.events[0].stallCycles, 400.0, 1e-6);
}

TEST(EmProf, LatencyStatisticsOrdered)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips;
    dsp::Rng rng(17);
    std::size_t pos = 500;
    for (int i = 0; i < 200; ++i) {
        dips.push_back({pos, 4 + rng.below(20)});
        pos += 150;
    }
    const auto sig = makeSignal(40e6, dips, pos + 500);
    const auto result = EmProf::analyze(sig, testConfig());
    const auto &r = result.report;
    EXPECT_LE(r.medianStallCycles, r.p95StallCycles);
    EXPECT_LE(r.p95StallCycles, r.p99StallCycles);
    EXPECT_LE(r.p99StallCycles, r.maxStallCycles);
    EXPECT_GT(r.avgStallCycles, 0.0);
}

TEST(EmProf, ConfigDerivedQuantities)
{
    EmProfConfig cfg;
    cfg.sampleRateHz = 40e6;
    cfg.normWindowSeconds = 1e-3;
    cfg.minStallNs = 60.0;
    EXPECT_EQ(cfg.normWindowSamples(), 40000u);
    // The noise-robustness floor dominates at low sample rates...
    EXPECT_EQ(cfg.minDurationSamples(), cfg.minDurationFloorSamples);
    // ...and the nanosecond threshold dominates at high ones.
    cfg.sampleRateHz = 160e6;
    EXPECT_EQ(cfg.minDurationSamples(), 10u);
    cfg.minDurationFloorSamples = 1;
    cfg.sampleRateHz = 40e6;
    EXPECT_EQ(cfg.minDurationSamples(), 2u);
}

TEST(EmProf, ReportTextContainsHeadlineNumbers)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips = {{1000, 10}};
    const auto sig = makeSignal(40e6, dips, 3000);
    const auto result = EmProf::analyze(sig, testConfig());
    const auto text = result.report.toText("title-line");
    EXPECT_NE(text.find("title-line"), std::string::npos);
    EXPECT_NE(text.find("events: 1"), std::string::npos);
}

TEST(EmProf, AnalyzeMatchesTheStreamingOracleBitForBit)
{
    // EmProf::analyze is one scalar span plus the stitcher; it must be
    // the per-sample loop bit for bit, in both modes, on the golden
    // signal and on the classifier fuzz's random band configs and
    // random dips (lengths 2..121, some running off the end).
    const dsp::TimeSeries golden_signal = golden::goldenSignal();
    for (const bool resilient : {false, true}) {
        SCOPED_TRACE(resilient ? "resilient" : "classic");
        EmProfConfig golden_cfg = golden::goldenConfig();
        golden_cfg.signal.enabled = resilient;
        oracle::expectMatchesOracle(
            EmProf::analyze(golden_signal, golden_cfg),
            oracle::StreamingOracle::analyze(golden_signal, golden_cfg));

        for (uint64_t seed = 0; seed < 40; ++seed) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed);
            dsp::Rng rng(0xc1a55 + seed);
            EmProfConfig cfg;
            cfg.clockHz = 1e9;
            cfg.normWindowSeconds = 40e-6;
            cfg.minStallNs = 40.0;
            cfg.minDurationFloorSamples = 2;
            cfg.llcHitMaxNs = 50.0 + rng.uniform() * 100.0;
            cfg.refreshStallNs = 800.0 + rng.uniform() * 1000.0;
            cfg.prefetchMaskedMaxNs =
                rng.uniform() < 0.5
                    ? 0.0
                    : cfg.llcHitMaxNs +
                          rng.uniform() *
                              (cfg.refreshStallNs - cfg.llcHitMaxNs);
            cfg.signal.enabled = resilient;

            dsp::TimeSeries sig;
            sig.sampleRateHz = 40e6;
            sig.samples.assign(4096 + rng.below(4096), 1.0f);
            for (auto &x : sig.samples)
                x += static_cast<float>(0.04 * (rng.uniform() - 0.5));
            std::size_t pos = 100 + rng.below(400);
            while (pos < sig.samples.size()) {
                const std::size_t len = 2 + rng.below(120);
                for (std::size_t i = pos;
                     i < pos + len && i < sig.samples.size(); ++i)
                    sig.samples[i] = 0.2f;
                pos += len + 60 + rng.below(400);
            }
            oracle::expectMatchesOracle(
                EmProf::analyze(sig, cfg),
                oracle::StreamingOracle::analyze(sig, cfg));
        }
    }
}

TEST(LatencyHistogram, BinsEvents)
{
    std::vector<StallEvent> events(3);
    events[0].stallCycles = 50;
    events[1].stallCycles = 500;
    events[2].stallCycles = 5000;
    const auto hist = latencyHistogram(events, 20.0, 20000.0, 10);
    EXPECT_EQ(hist.total(), 3u);
    EXPECT_EQ(hist.underflow() + hist.overflow(), 0u);
}

} // namespace
} // namespace emprof::profiler
