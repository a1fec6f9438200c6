/**
 * @file
 * Tests for the streaming/extension features: chunked-delivery
 * equivalence, per-region dominant-frequency estimation and the naive
 * fixed-threshold strawman.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/rng.hpp"
#include "profiler/attribution.hpp"
#include "profiler/naive_threshold.hpp"
#include "profiler/profiler.hpp"
#include "streaming_oracle.hpp"
#include "../parity.hpp"

namespace emprof::profiler {
namespace {

dsp::TimeSeries
signalWithDips(std::size_t total, std::size_t num_dips)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(3);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    for (std::size_t d = 0; d < num_dips; ++d) {
        const std::size_t start = 500 + d * (total - 1000) / num_dips;
        for (std::size_t i = start; i < start + 8; ++i)
            s.samples[i] = 0.2f;
    }
    return s;
}

EmProfConfig
testConfig()
{
    EmProfConfig cfg;
    cfg.clockHz = 1e9;
    cfg.sampleRateHz = 40e6;
    cfg.normWindowSeconds = 20e-6;
    return cfg;
}

TEST(Streaming, ChunkedDeliveryMatchesWholeSignal)
{
    // Delivering the signal to the per-sample oracle in arbitrary
    // chunk sizes (as an SDR front end would) must give what
    // EmProf::analyze reports for the whole signal.
    const auto sig = signalWithDips(30000, 40);
    const auto whole = EmProf::analyze(sig, testConfig());

    oracle::StreamingOracle prof(testConfig());
    std::size_t pos = 0;
    dsp::Rng rng(11);
    while (pos < sig.samples.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.below(700),
                                  sig.samples.size() - pos);
        for (std::size_t i = 0; i < chunk; ++i)
            prof.push(sig.samples[pos + i]);
        pos += chunk;
    }
    const auto chunked = prof.finish();

    EXPECT_EQ(parity::eventsDiff(whole.events, chunked.events), "");
    EXPECT_EQ(chunked.report.toText(), whole.report.toText());
}

TEST(Attribution, DominantFrequencyTracksLoopRate)
{
    // Two regions with loop periodicities of 25 kHz and 160 kHz.
    dsp::TimeSeries s;
    s.sampleRateHz = 1e6;
    dsp::Rng rng(5);
    auto add_tone = [&](double hz, std::size_t n) {
        const std::size_t start = s.samples.size();
        for (std::size_t i = 0; i < n; ++i) {
            const double t =
                static_cast<double>(start + i) / s.sampleRateHz;
            s.samples.push_back(static_cast<float>(
                1.0 + 0.3 * std::sin(2.0 * std::numbers::pi * hz * t) +
                0.02 * (rng.uniform() - 0.5)));
        }
    };
    add_tone(25e3, 50000);
    add_tone(160e3, 50000);

    AttributionConfig cfg;
    cfg.stft.frameSize = 512;
    cfg.stft.hop = 256;
    cfg.smoothFrames = 4;
    cfg.minRegionFrames = 8;
    SpectralAttributor attributor(cfg);
    const auto regions = attributor.segment(s);
    ASSERT_EQ(regions.size(), 2u);

    const double bin_width = 1e6 / 512.0;
    EXPECT_NEAR(regions[0].dominantFrequencyHz, 25e3, bin_width + 1.0);
    EXPECT_NEAR(regions[1].dominantFrequencyHz, 160e3, bin_width + 1.0);
}

TEST(NaiveThreshold, MatchesEmprofOnStationarySignal)
{
    const auto sig = signalWithDips(20000, 25);
    NaiveThresholdConfig cfg;
    cfg.clockHz = 1e9;
    cfg.threshold = calibrateNaiveThreshold(sig, 2000);
    const auto events = naiveDetect(sig, cfg);
    EXPECT_EQ(events.size(), 25u);
}

TEST(NaiveThreshold, BreaksUnderGainDriftWhileEmprofDoesNot)
{
    // Scale the signal by a slow ramp (probe drifting away): the
    // fixed threshold calibrated at the start ends up above the busy
    // level near the end, while EMPROF's normalisation tracks it.
    auto sig = signalWithDips(40000, 50);
    for (std::size_t i = 0; i < sig.samples.size(); ++i) {
        const float gain = 1.0f - 0.7f * static_cast<float>(i) /
                                      static_cast<float>(
                                          sig.samples.size());
        sig.samples[i] *= gain;
    }

    NaiveThresholdConfig cfg;
    cfg.clockHz = 1e9;
    cfg.threshold = calibrateNaiveThreshold(sig, 2000);
    const auto naive = naiveDetect(sig, cfg);

    // True stall time: 50 dips x 8 samples.
    const double true_stall_samples = 50.0 * 8.0;
    double naive_stall_samples = 0.0;
    for (const auto &ev : naive)
        naive_stall_samples +=
            static_cast<double>(ev.durationSamples());
    // Once the drifting busy level sinks below the fixed threshold,
    // the tail of the run is reported as one giant stall: the
    // reported stall time explodes by an order of magnitude.
    EXPECT_GT(naive_stall_samples, 10.0 * true_stall_samples);

    auto em_cfg = testConfig();
    em_cfg.normWindowSeconds = 50e-6;
    const auto emprof = EmProf::analyze(sig, em_cfg);
    EXPECT_NEAR(static_cast<double>(emprof.report.totalEvents), 50.0,
                2.0);
    double emprof_stall_samples = 0.0;
    for (const auto &ev : emprof.events)
        emprof_stall_samples +=
            static_cast<double>(ev.durationSamples());
    EXPECT_NEAR(emprof_stall_samples, true_stall_samples,
                0.25 * true_stall_samples);
}

TEST(NaiveThreshold, CalibrationHandlesEmptySignal)
{
    dsp::TimeSeries empty;
    empty.sampleRateHz = 1e6;
    EXPECT_DOUBLE_EQ(calibrateNaiveThreshold(empty, 100), 0.0);
}

} // namespace
} // namespace emprof::profiler
