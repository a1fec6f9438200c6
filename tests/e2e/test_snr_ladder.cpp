/**
 * @file
 * Slow end-to-end resilience sweep (ctest label: slow).
 *
 * Pushes the golden fixture signal through the impairment injector at
 * a ladder of SNRs — always with slow gain drift, the condition the
 * paper identifies as fatal for absolute thresholds — and measures
 * recall of the planted dips for the resilient analyzer and for the
 * naive fixed-threshold strawman:
 *
 *   - recall stays >= 99% at comfortable SNR (>= 30 dB),
 *   - the adaptive pipeline strictly outperforms the naive detector
 *     once the channel degrades (15 and 10 dB),
 *   - quarantined blocks never leak events,
 *   - the per-sample streaming oracle and the 8-way parallel path
 *     agree bit-for-bit at every rung.
 *
 * A 1000-seed impairment fuzz rides along: it exists mostly for the
 * nightly ASan run, shaking pointer and state errors out of the
 * injector and the resilient analyzer across many random streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "dsp/impairment.hpp"
#include "profiler/naive_threshold.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "profiler/signal_quality.hpp"
#include "../profiler/streaming_oracle.hpp"
#include "golden_common.hpp"

namespace emprof::profiler {
namespace {

struct Span
{
    uint64_t begin; // inclusive
    uint64_t end;   // inclusive
};

/** The dips planted by golden::goldenSignal(), by construction. */
std::vector<Span>
truthSpans()
{
    std::vector<Span> truth;
    for (std::size_t start = 256; start + 64 < golden::kSamples;
         start += 512) {
        const std::size_t width = 4 + (start / 512) % 15;
        truth.push_back({start, start + width - 1});
    }
    for (std::size_t start : {std::size_t{3000}, std::size_t{6500}})
        truth.push_back({start, start + 59});
    std::sort(truth.begin(), truth.end(),
              [](const Span &a, const Span &b) { return a.begin < b.begin; });
    return truth;
}

struct DetectorScore
{
    double recall = 0.0;    // truth spans matched by some event
    double precision = 0.0; // events that match some truth span
    std::size_t events = 0;
};

bool
matches(const StallEvent &ev, const Span &t, uint64_t min_duration_samples)
{
    // A match must overlap the truth span (+-8 samples of slack for
    // edge smearing) AND have a sane duration — a detector that fuses
    // half the capture into one giant "stall" straddling a dip gets no
    // credit for it.
    const uint64_t truth_dur = t.end - t.begin + 1;
    const uint64_t max_dur = 6 * std::max(truth_dur, min_duration_samples);
    return ev.startSample <= t.end + 8 && ev.endSample + 8 >= t.begin &&
           ev.durationSamples() <= max_dur;
}

DetectorScore
scoreAgainstTruth(const std::vector<StallEvent> &events,
                  const std::vector<Span> &truth,
                  uint64_t min_duration_samples)
{
    DetectorScore score;
    score.events = events.size();
    std::size_t matched_truth = 0, matched_events = 0;
    for (const Span &t : truth)
        for (const StallEvent &ev : events)
            if (matches(ev, t, min_duration_samples)) {
                ++matched_truth;
                break;
            }
    for (const StallEvent &ev : events)
        for (const Span &t : truth)
            if (matches(ev, t, min_duration_samples)) {
                ++matched_events;
                break;
            }
    score.recall = static_cast<double>(matched_truth) /
                   static_cast<double>(truth.size());
    // An empty detection set is vacuously precise: it makes no claims.
    score.precision = events.empty()
                          ? 1.0
                          : static_cast<double>(matched_events) /
                                static_cast<double>(events.size());
    return score;
}

/** Independent recomputation of the quality blocks via the public
 *  accumulator, used to cross-check the no-events-in-quarantine
 *  guarantee from outside the analyzer. */
std::vector<SignalBlock>
referenceBlocks(const dsp::TimeSeries &series, const EmProfConfig &config)
{
    const std::size_t q = config.qualityBlockSamples();
    const std::size_t n = series.samples.size();
    std::vector<SignalBlock> blocks;
    BlockAccumulator acc;
    for (std::size_t bs = 0; bs < n; bs += q) {
        const std::size_t be = std::min(bs + q, n);
        acc.begin(bs);
        for (std::size_t i = bs; i < be; ++i)
            acc.push(series.samples[i]);
        blocks.push_back(acc.finish(be, config.signal));
    }
    return blocks;
}

void
expectNoEventInUnusableBlocks(const std::vector<StallEvent> &events,
                              const std::vector<SignalBlock> &blocks,
                              double snr_db)
{
    for (const StallEvent &ev : events)
        for (const SignalBlock &b : blocks) {
            if (b.end <= ev.startSample || b.begin >= ev.endSample + 1)
                continue;
            EXPECT_NE(b.cls, BlockClass::Unusable)
                << "event [" << ev.startSample << ", " << ev.endSample
                << "] overlaps quarantined block [" << b.begin << ", "
                << b.end << ") at " << snr_db << " dB";
        }
}

void
expectSameEvents(const std::vector<StallEvent> &a,
                 const std::vector<StallEvent> &b, double snr_db)
{
    ASSERT_EQ(a.size(), b.size()) << "at " << snr_db << " dB";
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].startSample, b[i].startSample) << snr_db << " dB";
        EXPECT_EQ(a[i].endSample, b[i].endSample) << snr_db << " dB";
        EXPECT_EQ(a[i].depth, b[i].depth) << snr_db << " dB";
        EXPECT_EQ(a[i].durationNs, b[i].durationNs) << snr_db << " dB";
        EXPECT_EQ(a[i].stallCycles, b[i].stallCycles) << snr_db << " dB";
        EXPECT_EQ(a[i].confidence, b[i].confidence) << snr_db << " dB";
        EXPECT_EQ(a[i].kind, b[i].kind) << snr_db << " dB";
    }
}

TEST(SnrLadder, RecallDegradesGracefullyAndBeatsNaiveThreshold)
{
    const auto truth = truthSpans();
    ASSERT_EQ(truth.size(), 18u);

    EmProfConfig config = golden::goldenConfig();
    config.signal.enabled = true;
    // The fixture's shallow dips (floor 0.25 against a 0.08 deep floor)
    // normalise to ~0.20; widen the entry threshold so they carry a
    // real margin under noise.  Hysteresis spacing is preserved.
    config.enterThreshold = 0.27;
    config.exitThreshold = 0.43;
    const uint64_t min_dur = config.minDurationSamples();

    const double ladder[] = {40.0, 30.0, 20.0, 15.0, 10.0, 5.0, 0.0};
    std::vector<DetectorScore> adaptive, naive_scores;
    std::vector<double> coverage;

    for (std::size_t rung = 0; rung < std::size(ladder); ++rung) {
        const double snr_db = ladder[rung];
        // Every rung carries the same slow +-35% gain swing (period
        // 120 us against a 204.8 us capture): the regime where a
        // prefix-calibrated absolute threshold goes blind.
        char spec_text[96];
        std::snprintf(spec_text, sizeof(spec_text),
                      "snr=%g,drift=0.35:0.00012,seed=%u", snr_db,
                      static_cast<unsigned>(1234 + rung));
        dsp::ImpairmentSpec spec;
        ASSERT_TRUE(dsp::parseImpairmentSpec(spec_text, spec));

        auto series = golden::goldenSignal();
        dsp::applyImpairments(series, spec);

        const auto streaming =
            oracle::StreamingOracle::analyze(series, config);

        // Parallel path must agree bit-for-bit at every rung.
        ParallelAnalyzerConfig pcfg;
        pcfg.threads = 8;
        pcfg.chunkSamples = 1024;
        const auto parallel = analyzeParallel(series, config, pcfg);
        expectSameEvents(streaming.events, parallel.events, snr_db);

        // Quarantine guarantee, checked against an independent
        // recomputation of the block classification.
        expectNoEventInUnusableBlocks(
            streaming.events, referenceBlocks(series, config), snr_db);

        // Naive strawman: best-case calibration from the capture's
        // first 1024 samples.
        NaiveThresholdConfig naive;
        naive.clockHz = config.clockHz;
        naive.minDurationSamples = min_dur;
        naive.threshold = calibrateNaiveThreshold(series, 1024);
        const auto naive_events = naiveDetect(series, naive);

        adaptive.push_back(
            scoreAgainstTruth(streaming.events, truth, min_dur));
        naive_scores.push_back(
            scoreAgainstTruth(naive_events, truth, min_dur));
        coverage.push_back(streaming.report.quality.coverageFraction);
        std::printf("  %5.1f dB: adaptive r=%.3f p=%.3f n=%-4zu "
                    "naive r=%.3f p=%.3f n=%-5zu coverage %.3f\n",
                    snr_db, adaptive.back().recall,
                    adaptive.back().precision, adaptive.back().events,
                    naive_scores.back().recall,
                    naive_scores.back().precision,
                    naive_scores.back().events, coverage.back());
        for (const Span &t : truth) {
            bool hit = false;
            for (const StallEvent &ev : streaming.events)
                hit = hit || matches(ev, t, min_dur);
            if (!hit)
                std::printf("           missed truth [%llu, %llu]\n",
                            static_cast<unsigned long long>(t.begin),
                            static_cast<unsigned long long>(t.end));
        }
    }

    const auto f1 = [](const DetectorScore &s) {
        return s.recall + s.precision > 0.0
                   ? 2.0 * s.recall * s.precision /
                         (s.recall + s.precision)
                   : 0.0;
    };

    // Comfortable SNR: perfect recall, near-perfect precision.
    EXPECT_GE(adaptive[0].recall, 0.99) << "40 dB";
    EXPECT_GE(adaptive[1].recall, 0.99) << "30 dB";
    EXPECT_GE(adaptive[0].precision, 0.99) << "40 dB";
    EXPECT_GE(adaptive[1].precision, 0.9) << "30 dB";
    // Recall holds all the way into the degraded regime.
    EXPECT_GE(adaptive[2].recall, 0.99) << "20 dB";
    EXPECT_GE(adaptive[3].recall, 0.99) << "15 dB";
    EXPECT_GE(adaptive[4].recall, 0.99) << "10 dB";
    // Coverage never recovers as the channel worsens: quarantine kicks
    // in monotonically down the ladder.
    for (std::size_t i = 1; i < coverage.size(); ++i)
        EXPECT_LE(coverage[i], coverage[i - 1] + 1e-9)
            << "coverage not monotone at rung " << i;
    // The paper's failure mode: under gain drift the prefix-calibrated
    // absolute threshold goes blind — it floods the report with false
    // events and its precision collapses.  The adaptive pipeline is
    // more precise at every rung and strictly better on F1 in the
    // degraded regime.
    for (std::size_t i = 0; i < adaptive.size(); ++i)
        EXPECT_GT(adaptive[i].precision, naive_scores[i].precision)
            << "precision at " << ladder[i] << " dB";
    EXPECT_GT(f1(adaptive[3]), f1(naive_scores[3])) << "15 dB";
    EXPECT_GT(f1(adaptive[4]), f1(naive_scores[4])) << "10 dB";
    EXPECT_LT(naive_scores[3].precision, 0.15) << "15 dB naive precision";
    EXPECT_LT(naive_scores[6].precision, 0.1) << "0 dB naive precision";
    // At the bottom of the ladder the resilient analyzer refuses to
    // guess: the capture is quarantined rather than misreported.
    EXPECT_LT(coverage[6], 0.1) << "0 dB coverage";
    EXPECT_EQ(adaptive[6].events, 0u) << "0 dB events";
}

TEST(ImpairmentFuzz, ThousandSeedsThroughHarshChainAndAnalyzer)
{
    // Mostly an ASan/UBSan target: many distinct RNG streams through
    // every impairment at once, each run twice to confirm determinism,
    // then through the resilient analyzer.
    EmProfConfig config = golden::goldenConfig();
    config.signal.enabled = true;

    dsp::TimeSeries base;
    base.sampleRateHz = golden::kSampleRateHz;
    base.samples.assign(2048, 1.0f);
    for (std::size_t i = 256; i < 2048; i += 512)
        for (std::size_t k = 0; k < 8; ++k)
            base.samples[i + k] = 0.1f;

    for (unsigned seed = 0; seed < 1000; ++seed) {
        dsp::ImpairmentSpec spec;
        const std::string text = "harsh,seed=" + std::to_string(seed);
        ASSERT_TRUE(dsp::parseImpairmentSpec(text, spec));

        auto a = base;
        auto b = base;
        dsp::applyImpairments(a, spec);
        dsp::applyImpairments(b, spec);
        ASSERT_EQ(a.samples, b.samples) << "seed " << seed;

        const auto result = EmProf::analyze(a, config);
        ASSERT_LE(result.report.quality.coverageFraction, 1.0)
            << "seed " << seed;
        for (const auto &ev : result.events) {
            ASSERT_LT(ev.startSample, a.samples.size()) << "seed " << seed;
            ASSERT_GE(ev.confidence, 0.0) << "seed " << seed;
            ASSERT_LE(ev.confidence, 1.0) << "seed " << seed;
        }
    }
}

} // namespace
} // namespace emprof::profiler
