/**
 * @file
 * Served-path equivalence at the pipeline layer: the golden capture's
 * bytes are fed through SessionPipeline in radically different
 * slicings — one byte at a time, ragged 997-byte chunks, all at once —
 * and every framing must produce events bit-identical to the
 * checked-in expectation (the same file the streaming and parallel
 * paths are pinned to).  Plus the rejection catalogue: truncated
 * uploads, flipped bits, trailing garbage, zero-sample captures — all
 * typed errors, never crashes or wrong-but-plausible reports.
 */

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../profiler/streaming_oracle.hpp"
#include "serve/session_pipeline.hpp"
#include "serve_support.hpp"
#include "store/crc32c.hpp"

using namespace emprof;
using namespace emprof::serve;
using namespace emprof::serve::support;

namespace {

/** Feed the capture in @p step -byte slices and finish. */
profiler::ProfileResult
runFraming(const std::vector<uint8_t> &bytes, std::size_t step,
           std::size_t spanSamples)
{
    SessionPipeline pipeline(servedConfig(), spanSamples);
    std::string error;
    for (std::size_t off = 0; off < bytes.size();) {
        const std::size_t take = std::min(step, bytes.size() - off);
        EXPECT_TRUE(pipeline.feed(bytes.data() + off, take, &error))
            << error;
        off += take;
    }
    profiler::ProfileResult result;
    EXPECT_TRUE(pipeline.finish(result, &error)) << error;
    return result;
}

/**
 * A 112-byte upload: a valid file header, then one chunk declaring
 * @p count samples over a 20-byte zero payload, every CRC valid.  The
 * header declares the same total, so only the chunk's own bytes can
 * show the count is impossible.
 */
std::vector<uint8_t>
hostileUpload(uint32_t count)
{
    store::FileHeader header{};
    std::memcpy(header.magic, store::kEmcapMagic, sizeof(header.magic));
    header.version = store::kEmcapVersion;
    header.codec = static_cast<uint32_t>(store::SampleCodec::F32);
    header.sampleRateHz = golden::kSampleRateHz;
    header.clockHz = 1e9;
    header.totalSamples = count;
    header.headerCrc = store::crc32c(
        0, &header, offsetof(store::FileHeader, headerCrc));

    const std::vector<uint8_t> payload(20, 0);
    store::ChunkHeader chunk{};
    chunk.encoding =
        static_cast<uint32_t>(store::ChunkEncoding::DeltaPacked);
    chunk.sampleCount = count;
    chunk.payloadBytes = static_cast<uint32_t>(payload.size());
    chunk.scale = 1.0f;
    chunk.crc = store::crc32c(
        store::crc32c(0, &chunk, offsetof(store::ChunkHeader, crc)),
        payload.data(), payload.size());

    std::vector<uint8_t> bytes(sizeof(header) + sizeof(chunk) +
                               payload.size());
    std::memcpy(bytes.data(), &header, sizeof(header));
    std::memcpy(bytes.data() + sizeof(header), &chunk, sizeof(chunk));
    std::memcpy(bytes.data() + sizeof(header) + sizeof(chunk),
                payload.data(), payload.size());
    return bytes;
}

} // namespace

TEST(SessionPipeline, HostileChunkHeaderIsRejectedBeforeAllocating)
{
    // 20 payload bytes hold at most 1 + 128 * (20 - 8) = 1537 samples.
    // The smallest impossible count, then the 1 GiB and 16 GiB asks
    // must all be refused at the chunk header, before the decoder grows
    // the caller's sample buffer.
    constexpr uint32_t bound = 1537;
    for (const uint32_t count :
         {bound + 1, uint32_t{1} << 28, uint32_t{0xFFFFFFF0}}) {
        const auto bytes = hostileUpload(count);
        ASSERT_EQ(bytes.size(), 112u);

        EmcapStreamDecoder decoder;
        std::vector<dsp::Sample> out;
        std::string error;
        ASSERT_FALSE(decoder.feed(bytes.data(), bytes.size(), out, &error))
            << count;
        EXPECT_NE(error.find("chunk header implausible"),
                  std::string::npos)
            << error;
        ASSERT_EQ(out.capacity(), 0u) << "count " << count;

        SessionPipeline pipeline(servedConfig());
        EXPECT_FALSE(pipeline.feed(bytes.data(), bytes.size(), &error));
        EXPECT_NE(error.find("chunk header implausible"),
                  std::string::npos)
            << error;
        EXPECT_TRUE(pipeline.poisoned());
    }

    // At the bound the header is plausible and the payload decodes.
    const auto bytes = hostileUpload(bound);
    EmcapStreamDecoder decoder;
    std::vector<dsp::Sample> out;
    std::string error;
    EXPECT_TRUE(decoder.feed(bytes.data(), bytes.size(), out, &error))
        << error;
    EXPECT_EQ(out.size(), bound);
}

TEST(SessionPipeline, HeaderRecoversCaptureMetadata)
{
    const auto bytes =
        goldenCapture();
    ASSERT_FALSE(bytes.empty());

    SessionPipeline pipeline(servedConfig());
    std::string error;
    // Feed just the 72-byte header.
    ASSERT_TRUE(pipeline.feed(bytes.data(), 72, &error)) << error;
    ASSERT_TRUE(pipeline.headerReady());
    EXPECT_DOUBLE_EQ(pipeline.config().sampleRateHz,
                     golden::kSampleRateHz);
    EXPECT_DOUBLE_EQ(pipeline.config().clockHz, 1e9);
    EXPECT_EQ(pipeline.decoder().info().totalSamples,
              golden::kSamples);
    EXPECT_EQ(pipeline.decoder().info().deviceName,
              golden::kDeviceName);
}

TEST(SessionPipeline, AllFramingsAreBitIdenticalToTheGoldenEvents)
{
    const auto bytes =
        goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    // One byte at a time: every state-machine boundary is crossed
    // mid-element.  Ragged primes: slices never align with chunk or
    // frame boundaries.  All at once: the degenerate single feed.
    struct Case
    {
        const char *name;
        std::size_t step;
        std::size_t span;
    };
    const Case cases[] = {
        {"byte-at-a-time", 1, 0},
        {"ragged-997", 997, 0},
        {"all-at-once", SIZE_MAX, 0},
        {"byte-at-a-time/span-700", 1, 700},
        {"ragged-997/span-1024", 997, 1024},
        {"all-at-once/span-300", SIZE_MAX, 300},
    };
    for (const auto &c : cases) {
        const auto result = runFraming(bytes, c.step, c.span);
        EXPECT_EQ(parity::eventsDiff(expected, result.events), "")
            << c.name;
        EXPECT_EQ(result.report.totalEvents, expected.size())
            << c.name;
    }
}

TEST(SessionPipeline, TinySpansActuallyAnalyseMidUpload)
{
    const auto bytes =
        goldenCapture();
    SessionPipeline pipeline(servedConfig(), /*spanSamples=*/512);
    std::string error;
    ASSERT_TRUE(pipeline.feed(bytes.data(), bytes.size(), &error))
        << error;
    // 8192 samples at span 512: 15 spans analysed eagerly, the last
    // 512 held back for the is_final span at finish().
    EXPECT_EQ(pipeline.spansAnalyzed(), 15u);
    EXPECT_LE(pipeline.bufferedSamples(),
              512u + pipeline.config().haloSamples());
    profiler::ProfileResult result;
    ASSERT_TRUE(pipeline.finish(result, &error)) << error;
    EXPECT_EQ(pipeline.spansAnalyzed(), 16u);
}

TEST(SessionPipeline, ResilientModeMatchesTheDirectResilientPath)
{
    const auto bytes =
        goldenCapture();

    profiler::EmProfConfig resilient = golden::goldenConfig();
    resilient.signal.enabled = true;

    // Reference: the per-sample streaming oracle on the same config.
    const profiler::ProfileResult ref =
        profiler::oracle::StreamingOracle::analyze(golden::goldenSignal(),
                                                   resilient);

    profiler::EmProfConfig base = resilient;
    base.sampleRateHz = 1.0;
    base.clockHz = 1.0;
    SessionPipeline pipeline(base, /*spanSamples=*/777);
    std::string error;
    ASSERT_TRUE(pipeline.feed(bytes.data(), bytes.size(), &error))
        << error;
    profiler::ProfileResult served;
    ASSERT_TRUE(pipeline.finish(served, &error)) << error;

    EXPECT_EQ(parity::eventsDiff(ref.events, served.events), "")
        << "resilient";
    EXPECT_EQ(served.report.quality.enabled, true);
    EXPECT_EQ(golden::doubleBits(
                  served.report.quality.coverageFraction),
              golden::doubleBits(
                  ref.report.quality.coverageFraction));
}

TEST(SessionPipeline, TruncatedUploadIsATypedError)
{
    const auto bytes =
        goldenCapture();
    for (const std::size_t keep :
         {std::size_t{40}, std::size_t{100}, bytes.size() / 2,
          bytes.size() - 5}) {
        SessionPipeline pipeline(servedConfig());
        std::string error;
        ASSERT_TRUE(pipeline.feed(bytes.data(), keep, &error))
            << error;
        profiler::ProfileResult result;
        EXPECT_FALSE(pipeline.finish(result, &error)) << keep;
        EXPECT_FALSE(error.empty()) << keep;
    }
}

TEST(SessionPipeline, FlippedBitInAChunkIsATypedError)
{
    auto bytes = goldenCapture();
    bytes[5000] ^= 0x10; // somewhere inside a chunk payload

    SessionPipeline pipeline(servedConfig());
    std::string error;
    profiler::ProfileResult result;
    const bool fed =
        pipeline.feed(bytes.data(), bytes.size(), &error);
    const bool finished =
        fed && pipeline.finish(result, &error);
    EXPECT_FALSE(finished);
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;

    // The pipeline stays poisoned: feeding more keeps failing.
    EXPECT_FALSE(pipeline.feed(bytes.data(), 1, &error));
}

TEST(SessionPipeline, GarbageHeaderIsRejectedImmediately)
{
    std::vector<uint8_t> garbage(256, 0xAB);
    SessionPipeline pipeline(servedConfig());
    std::string error;
    EXPECT_FALSE(
        pipeline.feed(garbage.data(), garbage.size(), &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(SessionPipeline, FinishTwiceIsAnError)
{
    const auto bytes =
        goldenCapture();
    SessionPipeline pipeline(servedConfig());
    std::string error;
    ASSERT_TRUE(pipeline.feed(bytes.data(), bytes.size(), &error));
    profiler::ProfileResult result;
    ASSERT_TRUE(pipeline.finish(result, &error)) << error;
    EXPECT_FALSE(pipeline.finish(result, &error));
}
