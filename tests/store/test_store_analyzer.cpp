/**
 * @file
 * EMCAP → analyzeCaptureParallel equivalence: feeding a lossless
 * capture to the analyzer must produce events bit-identical to running
 * the per-sample streaming oracle over the same samples in memory — for
 * any stored chunk size and thread count, including stored chunks much
 * smaller than the analysis spans, and for captures of about one
 * normalisation window.  The AutoDecomposition tests run the
 * automatic per-worker span windows emprof_analyze uses, with several
 * spans per worker range.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "dsp/rng.hpp"
#include "obs/metrics.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "../profiler/streaming_oracle.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"
#include "store/emcap_format.hpp"

namespace emprof::profiler {
namespace {

using oracle::StreamingOracle;

EmProfConfig
testConfig()
{
    EmProfConfig cfg;
    cfg.clockHz = 1e9;
    cfg.sampleRateHz = 40e6;
    cfg.normWindowSeconds = 20e-6; // 800-sample envelope window
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

void
expectIdentical(const ProfileResult &a, const ProfileResult &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < b.events.size(); ++i) {
        EXPECT_EQ(a.events[i].startSample, b.events[i].startSample);
        EXPECT_EQ(a.events[i].endSample, b.events[i].endSample);
        EXPECT_EQ(a.events[i].depth, b.events[i].depth);
        EXPECT_EQ(a.events[i].durationNs, b.events[i].durationNs);
        EXPECT_EQ(a.events[i].stallCycles, b.events[i].stallCycles);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    }
    EXPECT_EQ(a.report.totalEvents, b.report.totalEvents);
}

/** Every event field and every report field, percentiles included. */
void
expectBitIdentical(const ProfileResult &a, const ProfileResult &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < b.events.size(); ++i) {
        const StallEvent &x = a.events[i];
        const StallEvent &y = b.events[i];
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
    const ProfileReport &p = a.report;
    const ProfileReport &q = b.report;
    EXPECT_EQ(p.totalEvents, q.totalEvents);
    EXPECT_EQ(p.missEvents, q.missEvents);
    EXPECT_EQ(p.refreshEvents, q.refreshEvents);
    EXPECT_EQ(p.durationSeconds, q.durationSeconds);
    EXPECT_EQ(p.executionCycles, q.executionCycles);
    EXPECT_EQ(p.totalStallCycles, q.totalStallCycles);
    EXPECT_EQ(p.stallPercent, q.stallPercent);
    EXPECT_EQ(p.avgStallCycles, q.avgStallCycles);
    EXPECT_EQ(p.medianStallCycles, q.medianStallCycles);
    EXPECT_EQ(p.p95StallCycles, q.p95StallCycles);
    EXPECT_EQ(p.p99StallCycles, q.p99StallCycles);
    EXPECT_EQ(p.maxStallCycles, q.maxStallCycles);
    EXPECT_EQ(p.missesPerMillionCycles, q.missesPerMillionCycles);
    for (std::size_t l = 0; l < kServiceLevelCount; ++l) {
        EXPECT_EQ(p.levelEvents[l], q.levelEvents[l]) << "level " << l;
        EXPECT_EQ(p.levelStallCycles[l], q.levelStallCycles[l])
            << "level " << l;
    }
    EXPECT_EQ(p.meanLevelConfidence, q.meanLevelConfidence);
    EXPECT_EQ(p.quality.enabled, q.quality.enabled);
    EXPECT_EQ(p.quality.totalBlocks, q.quality.totalBlocks);
    EXPECT_EQ(p.quality.cleanBlocks, q.quality.cleanBlocks);
    EXPECT_EQ(p.quality.degradedBlocks, q.quality.degradedBlocks);
    EXPECT_EQ(p.quality.unusableBlocks, q.quality.unusableBlocks);
    EXPECT_EQ(p.quality.quarantinedClipping, q.quality.quarantinedClipping);
    EXPECT_EQ(p.quality.quarantinedDropout, q.quality.quarantinedDropout);
    EXPECT_EQ(p.quality.quarantinedLowSnr, q.quality.quarantinedLowSnr);
    EXPECT_EQ(p.quality.eventsDropped, q.quality.eventsDropped);
    EXPECT_EQ(p.quality.coverageFraction, q.quality.coverageFraction);
    EXPECT_EQ(p.quality.meanConfidence, q.quality.meanConfidence);
    EXPECT_EQ(p.toText(), q.toText());
}

std::string
writeEmcap(const dsp::TimeSeries &sig, const char *name,
           std::size_t chunkSamples)
{
    store::WriterOptions opt;
    opt.sampleRateHz = sig.sampleRateHz;
    opt.chunkSamples = chunkSamples;
    const std::string path = std::string(::testing::TempDir()) + name;
    EXPECT_TRUE(store::writeCapture(path, sig, opt));
    return path;
}

TEST(StoreAnalyzer, EmcapMatchesStreamingAcrossChunkSizesAndThreads)
{
    const auto sig = busySignalWithDips(50000, 1);
    const auto streaming = StreamingOracle::analyze(sig, testConfig());

    // Stored chunks both smaller and larger than the analysis spans;
    // span grouping must align to whatever is on disk.
    for (const std::size_t stored :
         {std::size_t{512}, std::size_t{3000}, std::size_t{20000}}) {
        const auto path = writeEmcap(sig, "eq.emcap", stored);
        store::CaptureReader reader;
        std::string error;
        ASSERT_TRUE(reader.open(path, &error)) << error;
        for (const std::size_t threads :
             {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            SCOPED_TRACE(::testing::Message() << "stored=" << stored
                                              << " threads=" << threads);
            ParallelAnalyzerConfig pcfg;
            pcfg.threads = threads;
            ProfileResult result;
            ASSERT_TRUE(analyzeCaptureParallel(reader, testConfig(),
                                               result, pcfg, &error))
                << error;
            expectIdentical(result, streaming);
        }
        std::remove(path.c_str());
    }
}

TEST(StoreAnalyzer, ExplicitChunkSizeAlignsToStoredBoundaries)
{
    const auto sig = busySignalWithDips(30000, 2);
    const auto streaming = StreamingOracle::analyze(sig, testConfig());
    const auto path = writeEmcap(sig, "aligned.emcap", 700);
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;

    // Requested span sizes that do not divide the stored chunk size.
    for (const std::size_t span :
         {std::size_t{1000}, std::size_t{2048}, std::size_t{9999}}) {
        SCOPED_TRACE(::testing::Message() << "span=" << span);
        ParallelAnalyzerConfig pcfg;
        pcfg.threads = 4;
        pcfg.chunkSamples = span;
        ProfileResult result;
        ASSERT_TRUE(analyzeCaptureParallel(reader, testConfig(), result,
                                           pcfg, &error))
            << error;
        expectIdentical(result, streaming);
    }
    std::remove(path.c_str());
}

TEST(StoreAnalyzer, SingleThreadFallsBackToStreaming)
{
    // One worker no longer reads the capture whole: it runs the one
    // range through a span window like any other worker count, and
    // must still give the streaming result.
    const auto sig = busySignalWithDips(20000, 3);
    const auto streaming = StreamingOracle::analyze(sig, testConfig());
    const auto path = writeEmcap(sig, "fallback.emcap", 4096);
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;

    ParallelAnalyzerConfig one;
    one.threads = 1;
    ProfileResult result;
    ASSERT_TRUE(
        analyzeCaptureParallel(reader, testConfig(), result, one, &error))
        << error;
    expectIdentical(result, streaming);
    std::remove(path.c_str());

    // Captures of 1, 2, window - 1 and window + 1 samples, stored in
    // chunks smaller and larger than the input: one range, decoded a
    // chunk at a time, at every worker count.
    const std::size_t w = testConfig().normWindowSamples();
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, w - 1, w + 1}) {
        auto tiny = busySignalWithDips(n, 60 + n);
        for (std::size_t i = n - std::min<std::size_t>(n, 9); i < n; ++i)
            tiny.samples[i] = 0.2f; // a dip running off the end
        for (const std::size_t stored :
             {std::size_t{300}, std::size_t{4096}}) {
            const auto tiny_path = writeEmcap(tiny, "tiny.emcap", stored);
            store::CaptureReader tiny_reader;
            ASSERT_TRUE(tiny_reader.open(tiny_path, &error)) << error;
            for (const bool resilient : {false, true}) {
                EmProfConfig config = testConfig();
                config.signal.enabled = resilient;
                const auto reference =
                    StreamingOracle::analyze(tiny, config);
                for (const std::size_t span :
                     {std::size_t{0}, std::size_t{97}})
                    for (const std::size_t threads :
                         {std::size_t{1}, std::size_t{2},
                          std::size_t{4}}) {
                        SCOPED_TRACE(::testing::Message()
                                     << "n=" << n << " stored=" << stored
                                     << " span=" << span
                                     << " threads=" << threads
                                     << (resilient ? " resilient"
                                                   : " classic"));
                        ParallelAnalyzerConfig pcfg;
                        pcfg.threads = threads;
                        pcfg.chunkSamples = span;
                        ASSERT_TRUE(analyzeCaptureParallel(
                            tiny_reader, config, result, pcfg, &error))
                            << error;
                        oracle::expectMatchesOracle(result, reference);
                    }
            }
            std::remove(tiny_path.c_str());
        }
    }
}

TEST(StoreAnalyzer, CorruptChunkFailsAnalysisWithError)
{
    const auto sig = busySignalWithDips(20000, 4);
    const auto path = writeEmcap(sig, "corrupted.emcap", 1024);

    // Flip a payload byte in the middle of the file.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40000, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    std::fseek(f, 40000, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);

    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    ParallelAnalyzerConfig pcfg;
    pcfg.threads = 4;
    ProfileResult result;
    EXPECT_FALSE(analyzeCaptureParallel(reader, testConfig(), result,
                                        pcfg, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

/**
 * Automatic-decomposition geometry.  With the 800-sample test window a
 * span is store::kDefaultChunkSamples (65536) samples; at 1.6 M samples
 * every worker range holds at least three spans at 1, 2 and 4 threads
 * for each stored chunk size the tests use (3000, 65536, 100000).
 */
constexpr std::size_t kAutoSamples = 1600000;

ParallelAnalyzerConfig
autoConfig(std::size_t threads)
{
    ParallelAnalyzerConfig pcfg;
    pcfg.threads = threads;
    return pcfg;
}

TEST(StoreAnalyzer, AutoDecompositionMatchesStreamingBitForBit)
{
    const auto sig = busySignalWithDips(kAutoSamples, 5);
    ASSERT_EQ(std::max(store::kDefaultChunkSamples,
                       8 * testConfig().normWindowSamples()),
              std::size_t{65536});

    auto &registry = obs::MetricsRegistry::instance();
    struct MetricsOn
    {
        MetricsOn() { obs::MetricsRegistry::setEnabled(true); }
        ~MetricsOn() { obs::MetricsRegistry::setEnabled(false); }
    } metrics_on;
    for (const bool resilient : {false, true}) {
        EmProfConfig config = testConfig();
        config.signal.enabled = resilient;
        const ProfileResult reference =
            StreamingOracle::analyze(sig, config);

        // Stored chunks smaller than a span and not dividing it, equal
        // to it, and larger than it.
        for (const std::size_t stored :
             {std::size_t{3000}, std::size_t{65536}, std::size_t{100000}}) {
            const auto path = writeEmcap(sig, "auto.emcap", stored);
            store::CaptureReader reader;
            std::string error;
            ASSERT_TRUE(reader.open(path, &error)) << error;
            for (const std::size_t threads :
                 {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
                SCOPED_TRACE(::testing::Message()
                             << (resilient ? "resilient" : "classic")
                             << " stored=" << stored
                             << " threads=" << threads);
                registry.resetValues();
                ProfileResult result;
                ASSERT_TRUE(analyzeCaptureParallel(reader, config, result,
                                                   autoConfig(threads),
                                                   &error))
                    << error;
                expectBitIdentical(result, reference);

                // The windowed path ran, several spans deep.
                const auto snap = registry.scrape();
                const auto ranges = snap.gauges.find("parallel.chunks");
                ASSERT_NE(ranges, snap.gauges.end());
                const auto spans =
                    snap.counters.find("analyzer.chunks_analyzed");
                ASSERT_NE(spans, snap.counters.end());
                EXPECT_GE(spans->second,
                          3 * static_cast<uint64_t>(ranges->second));
            }
            std::remove(path.c_str());
        }
    }
}

TEST(StoreAnalyzer, AutoDecompositionCorruptChunkInSecondRangeIsNamed)
{
    const auto sig = busySignalWithDips(kAutoSamples, 6);
    const auto path = writeEmcap(sig, "corrupt_auto.emcap", 65536);
    std::size_t bad = 0;
    {
        // Two workers split at the first stored chunk ending at or
        // past n/2; a chunk at 3n/4 lies inside the second range.
        store::CaptureReader reader;
        std::string error;
        ASSERT_TRUE(reader.open(path, &error)) << error;
        bad = reader.chunkContaining(3 * kAutoSamples / 4);
        ASSERT_GT(reader.chunk(bad).firstSample, kAutoSamples / 2 + 65536);
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const long at = static_cast<long>(reader.chunk(bad).fileOffset +
                                          sizeof(store::ChunkHeader) + 100);
        ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
        const int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
        std::fputc(c ^ 0xFF, f);
        std::fclose(f);
    }

    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    ProfileResult result;
    EXPECT_FALSE(analyzeCaptureParallel(reader, testConfig(), result,
                                        autoConfig(2), &error));
    EXPECT_NE(error.find("chunk " + std::to_string(bad) + " "),
              std::string::npos)
        << error;
    std::remove(path.c_str());
}

} // namespace
} // namespace emprof::profiler
