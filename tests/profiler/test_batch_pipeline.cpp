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
 * The AVX2-specific tests skip on hardware without AVX2 and in
 * EMPROF_DISABLE_SIMD builds; the end-to-end equivalence tests run
 * everywhere (they then exercise the scalar span reference against the
 * per-sample oracle, which must also hold).
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "profiler/batch_pipeline.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "streaming_oracle.hpp"
#include "../parity.hpp"

namespace emprof::profiler {
namespace {

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
 * makeSignal scaled into the float denormal range.  Denormals are
 * finite, so the kernel's envelope scan must still match the
 * streaming reference bit for bit.
 */
std::vector<dsp::Sample>
makeDenormalSignal(std::size_t n, uint32_t seed)
{
    auto x = makeSignal(n, seed);
    for (auto &v : x)
        v *= 1000.0f * std::numeric_limits<float>::denorm_min();
    return x;
}

/**
 * Chunk events are classified where the kernels emit them: every
 * classification field must be classifyStall() of the raw dip.
 */
void
expectClassifiedAtEmission(const ChunkResult &r, const EmProfConfig &config)
{
    std::vector<StallEvent> reclassified;
    for (const StallEvent &ev : r.events) {
        StallEvent raw;
        raw.startSample = ev.startSample;
        raw.endSample = ev.endSample;
        raw.depth = ev.depth;
        classifyStall(raw, config);
        reclassified.push_back(raw);
    }
    EXPECT_EQ(parity::eventsDiff(reclassified, r.events), "");
}

void
expectSameResult(const ChunkResult &a, const ChunkResult &b,
                 const EmProfConfig &config, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);

    using parity::bits;
    ASSERT_EQ(a.prefixNorms.size(), b.prefixNorms.size());
    for (std::size_t i = 0; i < a.prefixNorms.size(); ++i)
        EXPECT_EQ(bits(a.prefixNorms[i]), bits(b.prefixNorms[i]))
            << "prefix " << i;

    EXPECT_EQ(parity::eventsDiff(a.events, b.events), "");
    expectClassifiedAtEmission(a, config);
    expectClassifiedAtEmission(b, config);

    EXPECT_EQ(a.open.inDip, b.open.inDip);
    EXPECT_EQ(a.open.start, b.open.start);
    EXPECT_EQ(a.open.lastBelowExit, b.open.lastBelowExit);
    EXPECT_EQ(bits(a.open.depthSum), bits(b.open.depthSum));
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
        EXPECT_EQ(bits(ba.minValue), bits(bb.minValue)) << "block " << i;
        EXPECT_EQ(bits(ba.maxValue), bits(bb.maxValue)) << "block " << i;
        EXPECT_EQ(bits(ba.mean), bits(bb.mean)) << "block " << i;
        EXPECT_EQ(bits(ba.noiseSigma), bits(bb.noiseSigma))
            << "block " << i;
        EXPECT_EQ(bits(ba.snrDb), bits(bb.snrDb)) << "block " << i;
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

/**
 * Whole series of every length 1..40 as one final chunk: warm-up-only
 * and sub-vector envelope blocks.
 */
void
compareShortSeries(const std::vector<dsp::Sample> &x,
                   const EmProfConfig &config, const std::string &what)
{
    for (std::size_t n = 1; n <= 40; ++n) {
        const std::vector<dsp::Sample> head(x.begin(),
                                            x.begin() + n);
        compareChunk(head, 0, n, true, config,
                     what + " n=" + std::to_string(n));
    }
}

TEST(BatchPipeline, ClassicChunkBitParityAcrossWindows)
{
    if (!batchPipelineActive())
        GTEST_SKIP() << "AVX2 batch kernel not active";

    const auto x = makeSignal(6000, 0xca97);
    const auto tiny = makeDenormalSignal(3000, 0xde70);
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
        compareShortSeries(x, config, "w=" + std::to_string(w));
        compareChunk(tiny, 0, tiny.size(), true, config,
                     "w=" + std::to_string(w) + " denormal whole");
        compareChunk(tiny, 999, 2501, false, config,
                     "w=" + std::to_string(w) + " denormal interior");
    }
}

TEST(BatchPipeline, ResilientChunkBitParity)
{
    if (!batchPipelineActive())
        GTEST_SKIP() << "AVX2 batch kernel not active";

    const auto x = makeSignal(6000, 0x5eed);
    const auto tiny = makeDenormalSignal(3000, 0xabcd);
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
            compareShortSeries(x, config, base);
            compareChunk(tiny, 0, tiny.size(), true, config,
                         base + " denormal whole");
            compareChunk(tiny, 1000, 2500, false, config,
                         base + " denormal interior");
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
    if (!batchPipelineActive())
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
    if (!batchPipelineActive())
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
    if (!batchPipelineActive())
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

        EXPECT_EQ(parity::eventsDiff(ref.events, par.events), "")
            << (resilient ? "resilient" : "classic");
        EXPECT_EQ(ref.report.totalStallCycles,
                  par.report.totalStallCycles);
    }
}

} // namespace
} // namespace emprof::profiler
