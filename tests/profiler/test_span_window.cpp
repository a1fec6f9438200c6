/**
 * @file
 * SpanWindow: the bounded window both chunked analysis paths run through.
 * For every span length tried, the window must never buffer more than
 * span + halo + the largest chunk appended at once, and its spans —
 * from one window over the whole capture, or from two windows over
 * adjacent ranges as two offline workers run them — must stitch to
 * exactly what the per-sample streaming oracle reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "profiler/profiler.hpp"
#include "profiler/span_window.hpp"
#include "profiler/stitch.hpp"
#include "streaming_oracle.hpp"

namespace emprof::profiler {
namespace {

EmProfConfig
testConfig(bool resilient)
{
    EmProfConfig cfg;
    cfg.clockHz = 1e9;
    cfg.sampleRateHz = 40e6;
    cfg.normWindowSeconds = 20e-6; // 800-sample envelope window
    cfg.signal.enabled = resilient;
    return cfg;
}

dsp::TimeSeries
busySignalWithDips(std::size_t total, uint64_t seed)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(seed);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    std::size_t pos = 600;
    while (pos + 70 < total) {
        const std::size_t len = 2 + rng.below(59);
        for (std::size_t i = pos; i < pos + len; ++i)
            s.samples[i] = 0.2f;
        pos += len + 20 + rng.below(2000);
    }
    return s;
}

/**
 * Run samples [first, last) of @p sig through one window in randomly
 * sized appends (1..3000 samples), feeding every span to @p stitcher
 * and checking the buffer bound after each append.
 */
void
runWindow(const dsp::TimeSeries &sig, const EmProfConfig &config,
          std::size_t span, uint64_t first, uint64_t last, bool is_final,
          dsp::Rng &rng, ChunkStitcher &stitcher)
{
    SpanWindow window(config, span, first);
    ASSERT_EQ(window.bufferBegin(),
              first - std::min<uint64_t>(first, config.haloSamples()));
    std::size_t largest = 0;
    while (window.end() < last) {
        const auto n = static_cast<std::size_t>(std::min<uint64_t>(
            1 + rng.below(3000), last - window.end()));
        largest = std::max(largest, n);
        const auto from = static_cast<std::ptrdiff_t>(window.end());
        std::copy(sig.samples.begin() + from,
                  sig.samples.begin() + from +
                      static_cast<std::ptrdiff_t>(n),
                  window.extend(n));
        ASSERT_LE(window.bufferedSamples(),
                  span + config.haloSamples() + largest)
            << "at sample " << window.end();
        while (window.spanReady())
            stitcher.feed(window.analyzeNextSpan());
    }
    stitcher.feed(window.close(is_final));
}

void
expectSame(const ProfileResult &a, const ProfileResult &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].startSample, b.events[i].startSample) << i;
        EXPECT_EQ(a.events[i].endSample, b.events[i].endSample) << i;
        EXPECT_EQ(a.events[i].depth, b.events[i].depth) << i;
        EXPECT_EQ(a.events[i].stallCycles, b.events[i].stallCycles) << i;
        EXPECT_EQ(a.events[i].confidence, b.events[i].confidence) << i;
        EXPECT_EQ(a.events[i].level, b.events[i].level) << i;
    }
    EXPECT_EQ(a.report.toText(), b.report.toText());
}

TEST(SpanWindow, BoundedBufferStitchesToStreaming)
{
    constexpr std::size_t kSamples = 30000;
    const auto sig = busySignalWithDips(kSamples, 11);
    for (const bool resilient : {false, true}) {
        const EmProfConfig config = testConfig(resilient);
        const ProfileResult reference =
            oracle::StreamingOracle::analyze(sig, config);
        // Spans far below, at, and above the 800-sample window, and
        // longer than the capture.
        for (const std::size_t span :
             {std::size_t{13}, std::size_t{799}, std::size_t{800},
              std::size_t{4097}, std::size_t{40000}}) {
            SCOPED_TRACE(::testing::Message()
                         << (resilient ? "resilient" : "classic")
                         << " span=" << span);
            dsp::Rng rng(span);

            ChunkStitcher whole(config);
            runWindow(sig, config, span, 0, kSamples, true, rng, whole);
            expectSame(whole.finalize(kSamples), reference);

            // Two adjacent ranges, as two offline workers run them:
            // the second window starts with its halo.
            const uint64_t cut = kSamples / 3 + 7;
            ChunkStitcher split(config);
            runWindow(sig, config, span, 0, cut, false, rng, split);
            runWindow(sig, config, span, cut, kSamples, true, rng, split);
            expectSame(split.finalize(kSamples), reference);
        }
    }
}

TEST(SpanWindow, DefaultSpanIsTheServedRule)
{
    EmProfConfig config = testConfig(false);
    EXPECT_EQ(SpanWindow::defaultSpanSamples(config), 65536u);
    config.normWindowSeconds = 4e-3; // 160 000-sample window
    EXPECT_EQ(SpanWindow::defaultSpanSamples(config), 8u * 160000u);
}

} // namespace
} // namespace emprof::profiler
