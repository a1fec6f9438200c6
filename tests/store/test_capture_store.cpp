/**
 * @file
 * CaptureWriter / CaptureReader container tests: round-trips, footer
 * seeking at chunk boundaries, metadata, streaming appends, and the
 * per-chunk damage-containment story (one corrupt chunk must not take
 * the rest of the capture with it).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "../profiler/streaming_oracle.hpp"
#include "dsp/rng.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"
#include "store/crc32c.hpp"

namespace emprof::store {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

dsp::TimeSeries
plateauSeries(std::size_t n, uint64_t seed)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(n, 1.0f);
    dsp::Rng rng(seed);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    return s;
}

WriterOptions
baseOptions(std::size_t chunkSamples = 1000)
{
    WriterOptions opt;
    opt.sampleRateHz = 40e6;
    opt.clockHz = 1.008e9;
    opt.deviceName = "TestDevice";
    opt.chunkSamples = chunkSamples;
    return opt;
}

/** Flip one byte in a file. */
void
flipByte(const std::string &path, long offset, uint8_t mask = 0xFF)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ mask, f);
    std::fclose(f);
}

template <class T>
void
appendBytes(std::vector<uint8_t> &bytes, const T &value)
{
    const auto *p = reinterpret_cast<const uint8_t *>(&value);
    bytes.insert(bytes.end(), p, p + sizeof(value));
}

/** Append one chunk over a zero payload, with a valid CRC. */
void
appendChunk(std::vector<uint8_t> &bytes, ChunkEncoding encoding,
            uint32_t sampleCount, uint32_t payloadBytes)
{
    const std::vector<uint8_t> payload(payloadBytes, 0);
    ChunkHeader chunk{};
    chunk.encoding = static_cast<uint32_t>(encoding);
    chunk.sampleCount = sampleCount;
    chunk.payloadBytes = payloadBytes;
    chunk.scale = 1.0f;
    chunk.crc = crc32c(crc32c(0, &chunk, offsetof(ChunkHeader, crc)),
                       payload.data(), payload.size());
    appendBytes(bytes, chunk);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
}

/** An F32 file header declaring @p totalSamples, with a valid CRC. */
std::vector<uint8_t>
fileHeaderBytes(uint64_t totalSamples)
{
    FileHeader header{};
    std::memcpy(header.magic, kEmcapMagic, sizeof(header.magic));
    header.version = kEmcapVersion;
    header.codec = static_cast<uint32_t>(SampleCodec::F32);
    header.sampleRateHz = 40e6;
    header.totalSamples = totalSamples;
    header.headerCrc = crc32c(0, &header, offsetof(FileHeader, headerCrc));
    std::vector<uint8_t> bytes;
    appendBytes(bytes, header);
    return bytes;
}

/**
 * A capture a hostile writer could produce: one F32 chunk declaring
 * @p sampleCount samples over a 20-byte zero payload, header, index
 * and footer all consistent and every CRC valid.
 */
std::vector<uint8_t>
hostileCapture(ChunkEncoding encoding, uint32_t sampleCount)
{
    std::vector<uint8_t> bytes = fileHeaderBytes(sampleCount);
    appendChunk(bytes, encoding, sampleCount, 20);

    const ChunkIndexEntry entry{sizeof(FileHeader), 0, sampleCount,
                                sizeof(ChunkHeader) + 20};
    FooterTail tail{1, sampleCount, 0, {'E', 'M', 'C', 'F'}};
    tail.footerCrc = crc32c(crc32c(0, &entry, sizeof(entry)), &tail,
                            offsetof(FooterTail, footerCrc));
    appendBytes(bytes, entry);
    appendBytes(bytes, tail);
    return bytes;
}

void
writeFileBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

TEST(CaptureStore, ImpossibleSampleCountFailsOpen)
{
    // 2^28 samples (1 GiB decoded) from 20 payload bytes, which hold
    // at most 1537: open() must refuse before anyone sizes a buffer
    // from the index.
    const auto path = tempPath("hostile_open.emcap");
    writeFileBytes(path,
                   hostileCapture(ChunkEncoding::DeltaPacked, 1u << 28));
    CaptureReader reader;
    std::string error;
    ASSERT_FALSE(reader.open(path, &error));
    EXPECT_NE(error.find("more samples than its payload can encode"),
              std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(CaptureStore, ImpossibleSampleCountFailsDecodeBeforeAllocating)
{
    // 1000 samples fit 20 bytes of DeltaPacked payload, so the index
    // passes open(); but this chunk is Raw, where 20 bytes hold 5.
    const auto path = tempPath("hostile_decode.emcap");
    writeFileBytes(path, hostileCapture(ChunkEncoding::Raw, 1000));
    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;

    std::vector<dsp::Sample> out;
    ASSERT_FALSE(reader.decodeChunk(0, out, &error));
    EXPECT_NE(error.find("more samples than its payload can encode"),
              std::string::npos)
        << error;
    EXPECT_EQ(out.capacity(), 0u);
    EXPECT_FALSE(reader.verify().ok);
    std::remove(path.c_str());
}

TEST(CaptureStore, ImpossibleSampleCountEndsRecovery)
{
    // A torn capture: one sound 1-sample chunk, then a CRC-valid chunk
    // declaring 2^28 samples.  Salvage keeps the first and stops.
    std::vector<uint8_t> bytes = fileHeaderBytes(0);
    appendChunk(bytes, ChunkEncoding::DeltaPacked, 1, 8);
    appendChunk(bytes, ChunkEncoding::DeltaPacked, 1u << 28, 20);

    const auto path = tempPath("hostile_recover.emcap");
    writeFileBytes(path, bytes);
    CaptureReader reader;
    RecoveryReport report;
    std::string error;
    ASSERT_TRUE(reader.openRecovered(path, &report, &error)) << error;
    EXPECT_EQ(report.salvagedChunks, 1u);
    EXPECT_EQ(reader.info().totalSamples, 1u);
    EXPECT_NE(report.stopReason.find("more samples than its payload"),
              std::string::npos)
        << report.stopReason;
    std::remove(path.c_str());
}

TEST(CaptureStore, LosslessRoundTripIsBitExact)
{
    // 3.5 chunks: exercises the partial final chunk.
    const auto series = plateauSeries(3500, 1);
    const auto path = tempPath("roundtrip.emcap");
    WriterStats stats;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(), &stats));
    EXPECT_EQ(stats.samples, 3500u);
    EXPECT_EQ(stats.chunks, 4u);

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().totalSamples, 3500u);
    EXPECT_EQ(reader.info().codec, SampleCodec::F32);
    EXPECT_DOUBLE_EQ(reader.info().sampleRateHz, 40e6);
    EXPECT_DOUBLE_EQ(reader.info().clockHz, 1.008e9);
    EXPECT_EQ(reader.info().deviceName, "TestDevice");
    EXPECT_EQ(reader.chunkCount(), 4u);

    dsp::TimeSeries loaded;
    ASSERT_TRUE(reader.readAll(loaded, &error)) << error;
    EXPECT_DOUBLE_EQ(loaded.sampleRateHz, 40e6);
    ASSERT_EQ(loaded.samples.size(), series.samples.size());
    EXPECT_EQ(std::memcmp(loaded.samples.data(), series.samples.data(),
                          series.samples.size() * sizeof(float)),
              0);
    std::remove(path.c_str());
}

TEST(CaptureStore, QuantizedRoundTripWithinErrorBound)
{
    const auto series = plateauSeries(5000, 2);
    const auto path = tempPath("quant.emcap");
    auto opt = baseOptions();
    opt.codec = SampleCodec::QuantI16;
    opt.quantBits = 16;
    WriterStats stats;
    ASSERT_TRUE(writeCapture(path, series, opt, &stats));
    // The acceptance bar: i16 beats raw f32 by at least 2x.
    EXPECT_GE(stats.compressionRatio(), 2.0);

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().codec, SampleCodec::QuantI16);
    EXPECT_EQ(reader.info().quantBits, 16u);

    dsp::TimeSeries loaded;
    ASSERT_TRUE(reader.readAll(loaded, &error)) << error;
    ASSERT_EQ(loaded.samples.size(), series.samples.size());
    // maxAbs is just over 1.0, so scale/2 stays under 2e-5.
    for (std::size_t i = 0; i < series.samples.size(); ++i)
        ASSERT_NEAR(loaded.samples[i], series.samples[i], 2e-5)
            << "i=" << i;
    std::remove(path.c_str());
}

TEST(CaptureStore, EmptyCaptureRoundTrips)
{
    dsp::TimeSeries empty;
    empty.sampleRateHz = 40e6;
    const auto path = tempPath("empty.emcap");
    ASSERT_TRUE(writeCapture(path, empty, baseOptions()));

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().totalSamples, 0u);
    EXPECT_EQ(reader.chunkCount(), 0u);
    dsp::TimeSeries loaded;
    EXPECT_TRUE(reader.readAll(loaded, &error)) << error;
    EXPECT_TRUE(loaded.samples.empty());
    EXPECT_TRUE(reader.verify().ok);

    // Analysed, at one worker or four, it is the empty report.
    const profiler::EmProfConfig config;
    const auto reference =
        profiler::oracle::StreamingOracle::analyze(empty, config);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        profiler::ParallelAnalyzerConfig pcfg;
        pcfg.threads = threads;
        profiler::ProfileResult result;
        ASSERT_TRUE(profiler::analyzeCaptureParallel(reader, config,
                                                     result, pcfg, &error))
            << error;
        EXPECT_TRUE(result.events.empty());
        profiler::oracle::expectMatchesOracle(result, reference);
    }
    std::remove(path.c_str());
}

TEST(CaptureStore, StreamingAppendEqualsOneShot)
{
    const auto series = plateauSeries(4321, 3);
    const auto one = tempPath("oneshot.emcap");
    const auto dripped = tempPath("dripped.emcap");
    ASSERT_TRUE(writeCapture(one, series, baseOptions()));

    // Same samples pushed in awkward piece sizes must produce an
    // identical chunk layout (chunking is by count, not by append).
    CaptureWriter writer;
    ASSERT_TRUE(writer.open(dripped, baseOptions()));
    std::size_t pos = 0;
    const std::size_t pieces[] = {1, 999, 1000, 1, 0, 1500, 820};
    for (const std::size_t piece : pieces) {
        ASSERT_TRUE(
            writer.append(series.samples.data() + pos, piece));
        pos += piece;
    }
    ASSERT_EQ(pos, series.samples.size());
    ASSERT_TRUE(writer.finalize());

    // Byte-identical files, not just equivalent ones.
    std::FILE *fa = std::fopen(one.c_str(), "rb");
    std::FILE *fb = std::fopen(dripped.c_str(), "rb");
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    for (;;) {
        const int a = std::fgetc(fa);
        const int b = std::fgetc(fb);
        ASSERT_EQ(a, b);
        if (a == EOF)
            break;
    }
    std::fclose(fa);
    std::fclose(fb);
    std::remove(one.c_str());
    std::remove(dripped.c_str());
}

TEST(CaptureStore, ReadRangeSeeksCorrectlyAtChunkBoundaries)
{
    const std::size_t chunk = 500;
    const auto series = plateauSeries(4 * chunk + 123, 4);
    const auto path = tempPath("seek.emcap");
    ASSERT_TRUE(writeCapture(path, series, baseOptions(chunk)));

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    ASSERT_EQ(reader.chunkCount(), 5u);

    // chunkContaining at every boundary flavour.
    EXPECT_EQ(reader.chunkContaining(0), 0u);
    EXPECT_EQ(reader.chunkContaining(chunk - 1), 0u);
    EXPECT_EQ(reader.chunkContaining(chunk), 1u);
    EXPECT_EQ(reader.chunkContaining(4 * chunk), 4u);
    EXPECT_EQ(reader.chunkContaining(4 * chunk + 122), 4u);

    struct Case
    {
        uint64_t first, count;
    };
    const Case cases[] = {
        {0, 1},                    // first sample
        {0, chunk},                // exactly chunk 0
        {chunk, chunk},            // exactly chunk 1
        {chunk - 1, 2},            // straddles one boundary
        {chunk - 1, 2 * chunk},    // straddles two boundaries
        {3 * chunk + 7, chunk},    // partial tail chunk involved
        {4 * chunk + 122, 1},      // very last sample
        {0, 4 * chunk + 123},      // everything
    };
    for (const auto &c : cases) {
        std::vector<dsp::Sample> got;
        ASSERT_TRUE(reader.readRange(c.first, c.count, got, &error))
            << "first=" << c.first << " count=" << c.count << ": "
            << error;
        ASSERT_EQ(got.size(), c.count);
        EXPECT_EQ(std::memcmp(got.data(),
                              series.samples.data() + c.first,
                              c.count * sizeof(float)),
                  0)
            << "first=" << c.first << " count=" << c.count;
    }

    // Out-of-range and overflowing requests must fail cleanly.
    std::vector<dsp::Sample> got;
    EXPECT_FALSE(reader.readRange(4 * chunk + 123, 1, got));
    EXPECT_FALSE(reader.readRange(0, 4 * chunk + 124, got));
    EXPECT_FALSE(reader.readRange(~uint64_t{0}, 2, got));
    // Empty range at a valid position is fine.
    EXPECT_TRUE(reader.readRange(chunk, 0, got, &error)) << error;
    EXPECT_TRUE(got.empty());
    std::remove(path.c_str());
}

TEST(CaptureStore, CorruptChunkIsContainedToThatChunk)
{
    const std::size_t chunk = 400;
    const auto series = plateauSeries(5 * chunk, 5);
    const auto path = tempPath("corrupt.emcap");
    ASSERT_TRUE(writeCapture(path, series, baseOptions(chunk)));

    CaptureReader clean;
    std::string error;
    ASSERT_TRUE(clean.open(path, &error)) << error;
    ASSERT_EQ(clean.chunkCount(), 5u);
    // Damage the middle of chunk 2's payload.
    const long target = static_cast<long>(clean.chunk(2).fileOffset +
                                          sizeof(ChunkHeader) +
                                          clean.chunk(2).storedBytes / 2);
    clean.close();
    flipByte(path, target);

    CaptureReader reader;
    ASSERT_TRUE(reader.open(path, &error)) << error; // header+footer OK

    // verify() names exactly the damaged chunk.
    const auto result = reader.verify();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.chunksChecked, 5u);
    ASSERT_EQ(result.badChunks.size(), 1u);
    EXPECT_EQ(result.badChunks[0], 2u);

    // The damaged chunk refuses to decode; every other chunk still
    // round-trips bit-exactly — damage is contained.
    std::vector<dsp::Sample> got;
    EXPECT_FALSE(reader.decodeChunk(2, got));
    for (const std::size_t i : {0u, 1u, 3u, 4u}) {
        ASSERT_TRUE(reader.decodeChunk(i, got, &error)) << error;
        ASSERT_EQ(got.size(), chunk);
        EXPECT_EQ(std::memcmp(got.data(),
                              series.samples.data() + i * chunk,
                              chunk * sizeof(float)),
                  0)
            << "chunk " << i;
    }
    // readRange through the bad chunk fails; around it, succeeds.
    EXPECT_FALSE(reader.readRange(2 * chunk + 10, 10, got));
    EXPECT_TRUE(reader.readRange(chunk, chunk, got, &error)) << error;
    EXPECT_TRUE(reader.readRange(3 * chunk, 2 * chunk, got, &error))
        << error;
    std::remove(path.c_str());
}

TEST(CaptureStore, WriterRejectsUnusableOptions)
{
    const auto path = tempPath("badopt.emcap");
    CaptureWriter writer;
    auto opt = baseOptions();
    opt.chunkSamples = 0;
    EXPECT_FALSE(writer.open(path, opt));

    opt = baseOptions();
    opt.codec = SampleCodec::QuantI16;
    opt.quantBits = 1;
    EXPECT_FALSE(writer.open(path, opt));
    opt.quantBits = 17;
    EXPECT_FALSE(writer.open(path, opt));
    opt.quantBits = 16;
    EXPECT_TRUE(writer.open(path, opt));
    EXPECT_TRUE(writer.finalize());
    std::remove(path.c_str());
}

TEST(CaptureStore, WriterRejectsChunksItsHeaderFieldsCannotRecord)
{
    // sampleCount, payloadBytes and storedBytes are 32-bit.  The first
    // chunk length whose raw payload (4 B/sample for F32, 2 for
    // QuantI16) plus the 20-byte chunk header passes UINT32_MAX must
    // fail open() before the chunk buffer is reserved or the file is
    // created, not be written with truncated fields.
    struct Case
    {
        SampleCodec codec;
        uint64_t bytesPerSample;
        std::size_t firstTooLarge;
    };
    for (const Case c : {Case{SampleCodec::F32, 4, 1073741819u},
                         Case{SampleCodec::QuantI16, 2, 2147483638u}}) {
        SCOPED_TRACE(static_cast<int>(c.codec));
        ASSERT_GT(sizeof(ChunkHeader) + c.firstTooLarge * c.bytesPerSample,
                  uint64_t{UINT32_MAX});
        ASSERT_LE(sizeof(ChunkHeader) +
                      (c.firstTooLarge - 1) * c.bytesPerSample,
                  uint64_t{UINT32_MAX});

        const auto path = tempPath("huge_chunk.emcap");
        std::remove(path.c_str());
        auto opt = baseOptions(c.firstTooLarge);
        opt.codec = c.codec;
        CaptureWriter writer;
        EXPECT_FALSE(writer.open(path, opt));
        EXPECT_FALSE(writer.isOpen());
        EXPECT_NE(writer.lastError().describe().find(
                      "unusable writer options"),
                  std::string::npos)
            << writer.lastError().describe();
        std::FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_EQ(f, nullptr) << "open() created the file";
        if (f != nullptr) {
            std::fclose(f);
            std::remove(path.c_str());
        }
    }
}

TEST(CaptureStore, DeviceNameIsTruncatedNotOverflowed)
{
    const auto path = tempPath("longname.emcap");
    auto opt = baseOptions();
    opt.deviceName = "a-device-name-much-longer-than-the-header-field";
    ASSERT_TRUE(writeCapture(path, plateauSeries(10, 6), opt));

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().deviceName,
              opt.deviceName.substr(0, sizeof(FileHeader::deviceName) - 1));
    std::remove(path.c_str());
}

TEST(CaptureStore, IsEmcapProbe)
{
    const auto path = tempPath("probe.emcap");
    ASSERT_TRUE(writeCapture(path, plateauSeries(10, 7), baseOptions()));
    EXPECT_TRUE(CaptureReader::isEmcap(path));

    const auto other = tempPath("probe.bin");
    std::FILE *f = std::fopen(other.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a capture at all", f);
    std::fclose(f);
    std::string why;
    EXPECT_FALSE(CaptureReader::isEmcap(other, &why));
    EXPECT_EQ(why, "") << "a readable file is not an open failure";
    const auto missing = tempPath("missing.emcap");
    EXPECT_FALSE(CaptureReader::isEmcap(missing));
    EXPECT_FALSE(CaptureReader::isEmcap(missing, &why));
    EXPECT_EQ(why.rfind("cannot open " + missing + ": ", 0), 0u) << why;
    EXPECT_NE(why.find("No such file or directory"), std::string::npos)
        << why;
    std::remove(path.c_str());
    std::remove(other.c_str());
}

} // namespace
} // namespace emprof::store
