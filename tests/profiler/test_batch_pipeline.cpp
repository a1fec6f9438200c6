/**
 * @file
 * Bit-parity tests for the AVX2 batch analysis kernel against the
 * streaming per-chunk reference (see batch_pipeline.hpp for the
 * contract).  Every comparison here is exact — same events, same
 * double-precision normalised values, same accumulator contents — over
 * adversarial window sizes (tiny, odd, prime, vector-width straddling),
 * chunk geometries (no halo, partial halo, full halo, unaligned
 * lengths), and both analysis paths (classic and resilient).
 *
 * The AVX2-specific tests skip on hardware without AVX2 or when
 * EMPROF_SIMD=scalar / EMPROF_DISABLE_SIMD disables the kernel; the
 * end-to-end equivalence tests run everywhere (they then exercise the
 * scalar span reference against the per-sample oracle, which must also
 * hold).
 */

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/batch_minmax.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "streaming_oracle.hpp"

namespace emprof::profiler {
namespace {

bool
batchKernelAvailable()
{
#if defined(EMPROF_DISABLE_SIMD)
    return false;
#else
    return batchPipelineActive();
#endif
}

/** Config with an exact normalisation window of @p w samples. */
EmProfConfig
configWithWindow(std::size_t w)
{
    EmProfConfig config;
    config.sampleRateHz = 1e6;
    // Half-sample nudge so the seconds -> samples truncation can't
    // round down through double rounding.
    config.normWindowSeconds = (static_cast<double>(w) + 0.5) * 1e-6;
    EXPECT_EQ(config.normWindowSamples(), std::max<std::size_t>(w, 2));
    return config;
}

/**
 * Noisy busy level with planted dips every ~150 samples, plus flat and
 * zero stretches so the quality classifier sees every branch.
 */
std::vector<dsp::Sample>
makeSignal(std::size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> noise(-0.01f, 0.01f);
    std::uniform_int_distribution<int> gap(40, 160);
    std::uniform_int_distribution<int> len(2, 20);

    std::vector<dsp::Sample> x(n, 1.0f);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = 1.0f + noise(rng);
    std::size_t pos = 25;
    while (pos < n) {
        const std::size_t dipLen =
            std::min<std::size_t>(static_cast<std::size_t>(len(rng)),
                                  n - pos);
        for (std::size_t k = 0; k < dipLen; ++k)
            x[pos + k] = 0.2f + noise(rng);
        pos += dipLen + static_cast<std::size_t>(gap(rng));
    }
    // A flat shelf (repeats) and a dead stretch (zeros) if they fit.
    for (std::size_t i = n / 2; i < std::min(n / 2 + 9, n); ++i)
        x[i] = 0.75f;
    for (std::size_t i = 2 * n / 3; i < std::min(2 * n / 3 + 7, n); ++i)
        x[i] = 0.0f;
    return x;
}

/**
 * Chunk events are classified where the kernels emit them: every
 * classification field must be classifyStall() of the raw dip.
 */
void
expectClassifiedAtEmission(const ChunkResult &r, const EmProfConfig &config)
{
    for (std::size_t i = 0; i < r.events.size(); ++i) {
        const StallEvent &ev = r.events[i];
        StallEvent raw;
        raw.startSample = ev.startSample;
        raw.endSample = ev.endSample;
        raw.depth = ev.depth;
        classifyStall(raw, config);
        EXPECT_EQ(ev.durationNs, raw.durationNs) << "event " << i;
        EXPECT_EQ(ev.stallCycles, raw.stallCycles) << "event " << i;
        EXPECT_EQ(ev.kind, raw.kind) << "event " << i;
        EXPECT_EQ(ev.level, raw.level) << "event " << i;
        EXPECT_EQ(ev.levelConfidence, raw.levelConfidence)
            << "event " << i;
    }
}

void
expectSameResult(const ChunkResult &a, const ChunkResult &b,
                 const EmProfConfig &config, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);

    ASSERT_EQ(a.prefixNorms.size(), b.prefixNorms.size());
    for (std::size_t i = 0; i < a.prefixNorms.size(); ++i)
        EXPECT_EQ(a.prefixNorms[i], b.prefixNorms[i]) << "prefix " << i;

    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].startSample, b.events[i].startSample)
            << "event " << i;
        EXPECT_EQ(a.events[i].endSample, b.events[i].endSample)
            << "event " << i;
        EXPECT_EQ(a.events[i].depth, b.events[i].depth) << "event " << i;
        EXPECT_EQ(a.events[i].durationNs, b.events[i].durationNs)
            << "event " << i;
        EXPECT_EQ(a.events[i].stallCycles, b.events[i].stallCycles)
            << "event " << i;
        EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
        EXPECT_EQ(a.events[i].level, b.events[i].level) << "event " << i;
        EXPECT_EQ(a.events[i].levelConfidence,
                  b.events[i].levelConfidence)
            << "event " << i;
    }
    expectClassifiedAtEmission(a, config);
    expectClassifiedAtEmission(b, config);

    EXPECT_EQ(a.open.inDip, b.open.inDip);
    EXPECT_EQ(a.open.start, b.open.start);
    EXPECT_EQ(a.open.lastBelowExit, b.open.lastBelowExit);
    EXPECT_EQ(a.open.depthSum, b.open.depthSum);
    EXPECT_EQ(a.open.depthCount, b.open.depthCount);

    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        const auto &ba = a.blocks[i];
        const auto &bb = b.blocks[i];
        EXPECT_EQ(ba.begin, bb.begin) << "block " << i;
        EXPECT_EQ(ba.end, bb.end) << "block " << i;
        EXPECT_EQ(ba.samplesAtMax, bb.samplesAtMax) << "block " << i;
        EXPECT_EQ(ba.zeroSamples, bb.zeroSamples) << "block " << i;
        EXPECT_EQ(ba.repeatSamples, bb.repeatSamples) << "block " << i;
        EXPECT_EQ(ba.minValue, bb.minValue) << "block " << i;
        EXPECT_EQ(ba.maxValue, bb.maxValue) << "block " << i;
        EXPECT_EQ(ba.mean, bb.mean) << "block " << i;
        EXPECT_EQ(ba.noiseSigma, bb.noiseSigma) << "block " << i;
        EXPECT_EQ(ba.snrDb, bb.snrDb) << "block " << i;
        EXPECT_EQ(ba.cls, bb.cls) << "block " << i;
    }
}

#if !defined(EMPROF_DISABLE_SIMD)
void
compareChunk(const std::vector<dsp::Sample> &x, uint64_t begin,
             uint64_t end, bool is_final, const EmProfConfig &config,
             const std::string &what)
{
    const ChunkResult ref = detail::analyzeChunkStreaming(
        x.data(), 0, begin, end, is_final, config);
    const ChunkResult simd = detail::analyzeChunkBatchAvx2(
        x.data(), 0, begin, end, is_final, config);
    expectSameResult(ref, simd, config, what);
}

TEST(BatchPipeline, ClassicChunkBitParityAcrossWindows)
{
    if (!batchKernelAvailable())
        GTEST_SKIP() << "AVX2 batch kernel not active";

    const auto x = makeSignal(6000, 0xca97);
    for (std::size_t w :
         {std::size_t{2}, std::size_t{3}, std::size_t{5}, std::size_t{7},
          std::size_t{8}, std::size_t{9}, std::size_t{16},
          std::size_t{17}, std::size_t{31}, std::size_t{64},
          std::size_t{100}, std::size_t{257}}) {
        const EmProfConfig config = configWithWindow(w);
        // Whole series as one chunk (pure warm-up start)...
        compareChunk(x, 0, x.size(), true, config,
                     "w=" + std::to_string(w) + " whole");
        // ...an interior chunk with a full halo and unaligned length...
        compareChunk(x, 1999, 4501, false, config,
                     "w=" + std::to_string(w) + " interior");
        // ...a chunk whose halo is clipped by the series start...
        compareChunk(x, std::min<uint64_t>(w / 2 + 1, 100), 3000, false,
                     config, "w=" + std::to_string(w) + " clipped");
        // ...a chunk shorter than the window after a full halo (the
        // envelope tables are sized by the samples a call sees)...
        compareChunk(x, 3001, 3001 + (w + 1) / 2, false, config,
                     "w=" + std::to_string(w) + " short");
        // ...and a final chunk shorter than one vector.
        compareChunk(x, x.size() - 5, x.size(), true, config,
                     "w=" + std::to_string(w) + " tail");
    }
}

TEST(BatchPipeline, ResilientChunkBitParity)
{
    if (!batchKernelAvailable())
        GTEST_SKIP() << "AVX2 batch kernel not active";

    const auto x = makeSignal(6000, 0x5eed);
    for (std::size_t w :
         {std::size_t{3}, std::size_t{8}, std::size_t{17},
          std::size_t{64}, std::size_t{129}}) {
        for (std::size_t s :
             {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
            EmProfConfig config = configWithWindow(w);
            config.signal.enabled = true;
            config.signal.smootherSamples = s;
            const std::string base = "w=" + std::to_string(w) +
                                     " s=" + std::to_string(s);
            // Default quality blocks (= window).
            compareChunk(x, 0, x.size(), true, config, base + " whole");
            compareChunk(x, 2000, 4500, false, config,
                         base + " interior");
            compareChunk(x, 3001, 3001 + (w + 1) / 2, false, config,
                         base + " short");
            // Small unaligned quality blocks, q < w.
            config.signal.blockSamples = 37;
            compareChunk(x, 0, x.size(), true, config,
                         base + " q=37 whole");
            compareChunk(x, 1998, 4503, false, config,
                         base + " q=37 interior");
            compareChunk(x, x.size() - 3, x.size(), true, config,
                         base + " q=37 tail");
        }
    }
}

TEST(BatchPipeline, ResilientSmootherWiderThanFirstBlock)
{
    if (!batchKernelAvailable())
        GTEST_SKIP() << "AVX2 batch kernel not active";

    // Window smaller than the smoother: the warm-up ramp of growing
    // boxcar windows spans several envelope blocks.
    const auto x = makeSignal(1200, 0xb10c);
    EmProfConfig config = configWithWindow(3);
    config.signal.enabled = true;
    config.signal.smootherSamples = 11;
    compareChunk(x, 0, x.size(), true, config, "w=3 s=11 whole");
    compareChunk(x, 7, 900, false, config, "w=3 s=11 clipped halo");
}

TEST(BatchPipeline, ConstantAndZeroSignals)
{
    if (!batchKernelAvailable())
        GTEST_SKIP() << "AVX2 batch kernel not active";

    for (float level : {0.0f, 1.0f}) {
        std::vector<dsp::Sample> x(700, level);
        for (bool resilient : {false, true}) {
            EmProfConfig config = configWithWindow(16);
            config.signal.enabled = resilient;
            compareChunk(x, 0, x.size(), true, config,
                         std::string("level=") + std::to_string(level) +
                             (resilient ? " resilient" : " classic"));
        }
    }
}

TEST(BatchPipeline, AutoDispatchMatchesExplicitKernel)
{
    if (!batchKernelAvailable())
        GTEST_SKIP() << "AVX2 batch kernel not active";

    const auto x = makeSignal(4000, 0xd15b);
    const EmProfConfig config = configWithWindow(32);
    const ChunkResult autoR =
        analyzeChunkAuto(x.data(), 0, 500, 3500, false, config);
    const ChunkResult simd = detail::analyzeChunkBatchAvx2(
        x.data(), 0, 500, 3500, false, config);
    expectSameResult(autoR, simd, config, "auto vs explicit");
}
#endif // !EMPROF_DISABLE_SIMD

TEST(BatchPipeline, StreamingChunkClassifiesAtEmission)
{
    // Runs on every build flavour (the AVX2 kernel is held to the same
    // rule by expectSameResult).
    const auto x = makeSignal(6000, 0xc1a5);
    for (const bool resilient : {false, true}) {
        EmProfConfig config = configWithWindow(64);
        config.signal.enabled = resilient;
        const ChunkResult r = detail::analyzeChunkStreaming(
            x.data(), 0, 1000, 5000, false, config);
        ASSERT_FALSE(r.events.empty());
        expectClassifiedAtEmission(r, config);
    }
}

TEST(BatchPipeline, ParallelMatchesStreamingEndToEnd)
{
    // Runs on every build flavour: with the kernel active this checks
    // batch+stitch against the per-sample oracle; without it, chunked
    // streaming against it.
    dsp::TimeSeries series;
    series.sampleRateHz = 1e6;
    series.samples = makeSignal(50000, 0xe2e);

    for (bool resilient : {false, true}) {
        EmProfConfig config = configWithWindow(160);
        config.signal.enabled = resilient;
        const ProfileResult ref =
            oracle::StreamingOracle::analyze(series, config);

        ParallelAnalyzerConfig pcfg;
        pcfg.threads = 8;
        pcfg.chunkSamples = 7321; // unaligned, many stitch boundaries
        const ProfileResult par =
            analyzeParallel(series, config, pcfg);

        ASSERT_EQ(ref.events.size(), par.events.size())
            << (resilient ? "resilient" : "classic");
        for (std::size_t i = 0; i < ref.events.size(); ++i) {
            EXPECT_EQ(ref.events[i].startSample,
                      par.events[i].startSample);
            EXPECT_EQ(ref.events[i].endSample, par.events[i].endSample);
            EXPECT_EQ(ref.events[i].depth, par.events[i].depth);
            EXPECT_EQ(ref.events[i].confidence,
                      par.events[i].confidence);
        }
        EXPECT_EQ(ref.report.totalStallCycles,
                  par.report.totalStallCycles);
    }
}

} // namespace
} // namespace emprof::profiler
