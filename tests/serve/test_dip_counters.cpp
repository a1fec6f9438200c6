/**
 * @file
 * The detector's dip counters agree with the events on every span
 * path.  A dip a chunk-local detector closes may still be folded into
 * a dip the stitcher carries across a span boundary, and a dip open at
 * the end of the input is closed by the stitcher alone, so the
 * counters are kept where ChunkStitcher keeps events.  The signal here
 * ends mid-dip and its spans cut dips; each path (in-memory
 * analyzeParallel, analyzeCaptureParallel, the served SessionPipeline)
 * must report detector.dips_found == events.size() and exactly one
 * detector.dips_flushed_at_end, classic and resilient.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "obs/metrics.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "serve/session_pipeline.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;

namespace {

constexpr std::size_t kSamples = 60000;
constexpr std::size_t kSpanSamples = 1000;

profiler::EmProfConfig
testConfig(bool resilient)
{
    profiler::EmProfConfig config;
    config.clockHz = 1e9;
    config.sampleRateHz = 40e6;
    config.normWindowSeconds = 20e-6; // 800-sample envelope window
    config.signal.enabled = resilient;
    return config;
}

/** Busy at ~1.0 with dips to 0.2, several straddling a span boundary,
 *  and the last 60 samples inside a dip. */
dsp::TimeSeries
signalEndingMidDip()
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(kSamples, 1.0f);
    dsp::Rng rng(17);
    const auto dip = [&](std::size_t from, std::size_t len) {
        for (std::size_t i = from; i < from + len && i < kSamples; ++i)
            s.samples[i] = 0.2f;
    };
    std::size_t pos = 600;
    while (pos + 200 < kSamples - 100) {
        dip(pos, 2 + rng.below(59));
        pos += 100 + rng.below(900);
    }
    for (std::size_t boundary = 5 * kSpanSamples;
         boundary < kSamples - 2 * kSpanSamples;
         boundary += 7 * kSpanSamples)
        dip(boundary - 30, 60);
    dip(kSamples - 60, 60);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    return s;
}

struct MetricsOn
{
    MetricsOn() { obs::MetricsRegistry::setEnabled(true); }
    ~MetricsOn() { obs::MetricsRegistry::setEnabled(false); }
};

uint64_t
counter(const obs::MetricsSnapshot &snap, const char *name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

void
expectCountersMatch(const profiler::ProfileResult &result,
                    const char *path)
{
    SCOPED_TRACE(path);
    const auto snap = obs::MetricsRegistry::instance().scrape();
    EXPECT_GT(result.events.size(), 20u);
    EXPECT_EQ(counter(snap, "detector.dips_found"),
              result.events.size());
    EXPECT_EQ(counter(snap, "detector.dips_flushed_at_end"), 1u);
}

} // namespace

TEST(DipCounters, FoundAndFlushedMatchTheEventsOnEverySpanPath)
{
    const dsp::TimeSeries sig = signalEndingMidDip();
    const std::string capture =
        testing::TempDir() + "emprof_dip_counters.emcap";
    store::WriterOptions options;
    options.sampleRateHz = sig.sampleRateHz;
    options.chunkSamples = 700; // stored chunks cut the spans too
    ASSERT_TRUE(store::writeCapture(capture, sig, options));
    std::vector<uint8_t> bytes;
    {
        std::FILE *f = std::fopen(capture.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.insert(bytes.end(), buf, buf + got);
        std::fclose(f);
    }
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(capture, &error)) << error;

    auto &registry = obs::MetricsRegistry::instance();
    const MetricsOn metrics_on;
    for (const bool resilient : {false, true}) {
        SCOPED_TRACE(resilient ? "resilient" : "classic");
        const profiler::EmProfConfig config = testConfig(resilient);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(::testing::Message() << "threads=" << threads);
            profiler::ParallelAnalyzerConfig parallel;
            parallel.threads = threads;
            parallel.chunkSamples = kSpanSamples;

            registry.resetValues();
            expectCountersMatch(
                profiler::analyzeParallel(sig, config, parallel),
                "analyzeParallel");

            registry.resetValues();
            profiler::ProfileResult stored;
            ASSERT_TRUE(profiler::analyzeCaptureParallel(
                reader, config, stored, parallel, &error))
                << error;
            expectCountersMatch(stored, "analyzeCaptureParallel");
        }

        registry.resetValues();
        serve::SessionPipeline pipeline(config, kSpanSamples);
        for (std::size_t off = 0; off < bytes.size(); off += 997) {
            const std::size_t take = std::min<std::size_t>(
                997, bytes.size() - off);
            ASSERT_TRUE(pipeline.feed(bytes.data() + off, take, &error))
                << error;
        }
        profiler::ProfileResult served;
        ASSERT_TRUE(pipeline.finish(served, &error)) << error;
        expectCountersMatch(served, "SessionPipeline");
    }
    std::remove(capture.c_str());
}
