/**
 * @file
 * Span-boundary equivalence tests for the parallel analyzer: for any
 * span size and thread count, analyzeParallel must produce a result
 * bit-identical to the per-sample streaming oracle — same event count,
 * same start/end samples, same depth (exact floating-point equality,
 * which the stitcher guarantees by replaying prefix samples in order),
 * same classification.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dsp/rng.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "streaming_oracle.hpp"

namespace emprof::profiler {
namespace {

using oracle::expectMatchesOracle;
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

/** Busy signal with small noise; dips are written in explicitly. */
dsp::TimeSeries
busySignal(std::size_t total, uint64_t seed)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(seed);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    return s;
}

void
writeDip(dsp::TimeSeries &s, std::size_t start, std::size_t len,
         float level = 0.2f)
{
    for (std::size_t i = start; i < start + len && i < s.samples.size();
         ++i)
        s.samples[i] = level;
}

void
expectIdentical(const ProfileResult &parallel,
                const ProfileResult &streaming)
{
    ASSERT_EQ(parallel.events.size(), streaming.events.size());
    for (std::size_t i = 0; i < streaming.events.size(); ++i) {
        const auto &p = parallel.events[i];
        const auto &s = streaming.events[i];
        EXPECT_EQ(p.startSample, s.startSample) << "event " << i;
        EXPECT_EQ(p.endSample, s.endSample) << "event " << i;
        EXPECT_EQ(p.depth, s.depth) << "event " << i;
        EXPECT_EQ(p.durationNs, s.durationNs) << "event " << i;
        EXPECT_EQ(p.stallCycles, s.stallCycles) << "event " << i;
        EXPECT_EQ(p.kind, s.kind) << "event " << i;
    }
    EXPECT_EQ(parallel.report.totalEvents, streaming.report.totalEvents);
}

void
expectParallelMatchesStreaming(const dsp::TimeSeries &sig,
                               const EmProfConfig &cfg,
                               std::size_t chunk, std::size_t threads)
{
    const auto streaming = StreamingOracle::analyze(sig, cfg);
    ParallelAnalyzerConfig pcfg;
    pcfg.threads = threads;
    pcfg.chunkSamples = chunk;
    const auto parallel = analyzeParallel(sig, cfg, pcfg);
    SCOPED_TRACE(::testing::Message()
                 << "chunk=" << chunk << " threads=" << threads);
    expectIdentical(parallel, streaming);
}

TEST(ParallelAnalyzer, DipsPlacedExactlyOnChunkEdges)
{
    for (const std::size_t chunk :
         {std::size_t{128}, std::size_t{256}, std::size_t{1000}}) {
        auto sig = busySignal(8 * chunk + chunk / 2, 17);
        // A dip at every flavour of boundary alignment: starting
        // exactly at an edge, ending exactly at an edge, straddling an
        // edge, and fully inside a chunk.
        writeDip(sig, 1 * chunk, 8);       // starts on the edge
        writeDip(sig, 2 * chunk - 8, 8);   // ends just before the edge
        writeDip(sig, 3 * chunk - 4, 8);   // straddles the edge
        writeDip(sig, 4 * chunk - 1, 2);   // last sample / first sample
        writeDip(sig, 5 * chunk + 10, 8);  // interior control
        writeDip(sig, 6 * chunk - 5, 5);   // ends exactly at edge - 1
        for (const std::size_t threads :
             {std::size_t{2}, std::size_t{4}, std::size_t{8}})
            expectParallelMatchesStreaming(sig, testConfig(), chunk,
                                           threads);
    }
}

TEST(ParallelAnalyzer, DipSpanningThreeChunks)
{
    const std::size_t chunk = 100;
    auto sig = busySignal(1200, 5);
    // 250 low samples starting mid-chunk: the dip enters at chunk 3,
    // covers all of chunks 4 and 5, and exits inside chunk 6.
    writeDip(sig, 350, 250);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}})
        expectParallelMatchesStreaming(sig, testConfig(), chunk, threads);
}

TEST(ParallelAnalyzer, CaptureEndingMidDip)
{
    const std::size_t chunk = 256;
    auto sig = busySignal(4 * chunk, 31);
    // The dip runs through the final chunk boundary and off the end of
    // the capture, so only the finish()-style flush can emit it.
    writeDip(sig, sig.samples.size() - chunk - 20, chunk + 20);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}})
        expectParallelMatchesStreaming(sig, testConfig(), chunk, threads);

    // Variant ending mid-dip *and* mid-chunk.
    auto sig2 = busySignal(4 * chunk + 57, 32);
    writeDip(sig2, sig2.samples.size() - 30, 30);
    expectParallelMatchesStreaming(sig2, testConfig(), chunk, 4);
}

TEST(ParallelAnalyzer, RandomizedDipsAcrossChunkSizesAndThreads)
{
    // Property-style sweep: random dip layouts (lengths 2..60, some
    // merging into each other), several chunk sizes including ones
    // smaller than the normalisation window, several thread counts.
    for (const uint64_t seed : {1u, 2u, 3u}) {
        auto sig = busySignal(50000, seed);
        dsp::Rng rng(seed * 977);
        std::size_t pos = 600;
        while (pos + 70 < sig.samples.size()) {
            const std::size_t len = 2 + rng.below(59);
            writeDip(sig, pos, len);
            pos += len + 20 + rng.below(2000);
        }
        for (const std::size_t chunk :
             {std::size_t{64}, std::size_t{333}, std::size_t{4096}})
            for (const std::size_t threads :
                 {std::size_t{2}, std::size_t{4}})
                expectParallelMatchesStreaming(sig, testConfig(), chunk,
                                               threads);
    }
}

TEST(ParallelAnalyzer, SingleThreadAndShortInputFallBackToStreaming)
{
    // No path falls back any more: one worker and a short input both
    // run the ordinary ranges (here a single inline range of one
    // span) and must still give the streaming result.
    auto sig = busySignal(20000, 77);
    writeDip(sig, 5000, 8);
    writeDip(sig, 15000, 8);
    const auto streaming = StreamingOracle::analyze(sig, testConfig());

    ParallelAnalyzerConfig one;
    one.threads = 1;
    expectIdentical(analyzeParallel(sig, testConfig(), one), streaming);

    ParallelAnalyzerConfig aut;
    aut.threads = 4;
    expectIdentical(analyzeParallel(sig, testConfig(), aut), streaming);
    expectIdentical(analyzeParallel(sig, testConfig()), streaming);
    expectIdentical(EmProf::analyze(sig, testConfig()), streaming);

    // The shortest inputs: none (the empty report), 1, 2, window - 1
    // and window + 1 samples, whose envelope tables are sized by the
    // input rather than the window.  The longer ones carry a dip
    // inside and one running off the end.
    const std::size_t w = testConfig().normWindowSamples();
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, w - 1, w + 1}) {
        auto tiny = busySignal(n, 40 + n);
        if (n > 100) {
            writeDip(tiny, n / 3, 12);
            writeDip(tiny, n - 9, 9);
        }
        for (const bool resilient : {false, true}) {
            EmProfConfig cfg = testConfig();
            cfg.signal.enabled = resilient;
            const auto reference = StreamingOracle::analyze(tiny, cfg);
            expectMatchesOracle(EmProf::analyze(tiny, cfg), reference);
            // Automatic spans, then explicit spans shorter than the
            // input and than the window.
            for (const std::size_t span :
                 {std::size_t{0}, std::size_t{1}, std::size_t{97}})
                for (const std::size_t threads :
                     {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "n=" << n << " span=" << span
                                 << " threads=" << threads
                                 << (resilient ? " resilient"
                                               : " classic"));
                    ParallelAnalyzerConfig pcfg;
                    pcfg.threads = threads;
                    pcfg.chunkSamples = span;
                    expectMatchesOracle(analyzeParallel(tiny, cfg, pcfg),
                                        reference);
                }
        }
    }
}

TEST(ParallelAnalyzer, RefreshClassificationSurvivesStitching)
{
    // A >1.2 us dip (refresh-coincident) that straddles a chunk edge
    // must keep its classification after the stitcher reassembles it.
    const std::size_t chunk = 500;
    auto sig = busySignal(8 * chunk, 13);
    writeDip(sig, 3 * chunk - 30, 100); // 2.5 us at 40 MHz
    const auto streaming = StreamingOracle::analyze(sig, testConfig());
    ASSERT_EQ(streaming.events.size(), 1u);
    ASSERT_EQ(streaming.events[0].kind, StallKind::RefreshCoincident);

    ParallelAnalyzerConfig pcfg;
    pcfg.threads = 4;
    pcfg.chunkSamples = chunk;
    expectIdentical(analyzeParallel(sig, testConfig(), pcfg), streaming);
}

TEST(ParallelAnalyzer, WholeChunksBelowExitStayOneEvent)
{
    // Chunks entirely below the exit threshold exercise the
    // "prefix == whole chunk" carry path in the stitcher.
    const std::size_t chunk = 50;
    auto sig = busySignal(2000, 3);
    writeDip(sig, 480, 400); // 8 whole chunks below exit
    const auto streaming = StreamingOracle::analyze(sig, testConfig());
    ASSERT_EQ(streaming.events.size(), 1u);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}})
        expectParallelMatchesStreaming(sig, testConfig(), chunk, threads);
}

TEST(ParallelAnalyzer, LowContrastRegionsMatchStreaming)
{
    // Exactly-flat stretches make the normaliser's low-contrast gate
    // report "busy"; the halo re-feed must reproduce the same gated
    // windows at every chunk seam.  Mixed flat/noisy/dipped content
    // with seams landing inside each region locks the equivalence.
    auto sig = busySignal(4000, 7);
    for (std::size_t i = 600; i < 1400; ++i)
        sig.samples[i] = 1.0f; // bit-exact flat: zero contrast
    writeDip(sig, 1900, 60);
    for (std::size_t i = 2500; i < 3100; ++i)
        sig.samples[i] = 0.5f; // flat at a different level
    writeDip(sig, 3500, 40);
    for (const std::size_t chunk :
         {std::size_t{97}, std::size_t{256}, std::size_t{800}})
        for (const std::size_t threads :
             {std::size_t{2}, std::size_t{4}})
            expectParallelMatchesStreaming(sig, testConfig(), chunk,
                                           threads);
}

TEST(ParallelAnalyzer, BackToBackDipsStraddlingChunkSeams)
{
    // Two dips separated by a single recovery sample, positioned so a
    // chunk boundary falls between them (and, for chunk 100, ON the
    // recovery sample): the stitcher must not bridge them into one.
    auto sig = busySignal(2000, 11);
    writeDip(sig, 380, 19);
    sig.samples[399] = 1.2f; // recovery sample at a chunk-100 boundary
    writeDip(sig, 400, 20);
    for (const std::size_t chunk :
         {std::size_t{100}, std::size_t{200}, std::size_t{390}})
        expectParallelMatchesStreaming(sig, testConfig(), chunk, 4);
}

} // namespace
} // namespace emprof::profiler
