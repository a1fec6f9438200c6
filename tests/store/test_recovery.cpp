/**
 * @file
 * EMCAP crash-recovery tests.
 *
 * The core property: for a capture truncated at ANY byte boundary —
 * the file a crashed or power-cut writer leaves behind —
 * CaptureReader::openRecovered either fails with a clean typed error
 * (nothing salvageable) or salvages a prefix of fully-flushed chunks
 * whose samples are bit-identical to the original.  Never a crash,
 * never a silently wrong sample count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "../profiler/streaming_oracle.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

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

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const uint8_t *data, std::size_t len)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (len > 0)
        ASSERT_EQ(std::fwrite(data, 1, len, f), len);
    ASSERT_EQ(std::fclose(f), 0);
}

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

TEST(Recovery, EveryByteTruncationSalvagesCleanPrefixOrFailsCleanly)
{
    const auto series = plateauSeries(2500, 101);
    const auto path = tempPath("trunc_src.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(500), nullptr,
                             &error))
        << error;

    // The finalized file's own index gives the expected salvage for
    // any truncation length: chunk i survives iff its header AND whole
    // payload are inside the prefix.
    CaptureReader intact;
    ASSERT_TRUE(intact.open(path, &error)) << error;
    struct ChunkSpan
    {
        uint64_t endByte;
        uint64_t samplesThrough; // cumulative samples up to this chunk
    };
    std::vector<ChunkSpan> spans;
    uint64_t cumulative = 0;
    for (std::size_t i = 0; i < intact.chunkCount(); ++i) {
        const auto &e = intact.chunk(i);
        cumulative += e.sampleCount;
        spans.push_back({e.fileOffset + e.storedBytes, cumulative});
    }
    intact.close();

    const auto bytes = readFile(path);
    ASSERT_GT(bytes.size(), sizeof(FileHeader));
    const auto trunc_path = tempPath("trunc_cut.emcap");

    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeFile(trunc_path, bytes.data(), len);

        CaptureReader reader;
        RecoveryReport report;
        std::string rec_error;
        const bool ok =
            reader.openRecovered(trunc_path, &report, &rec_error);

        if (len < sizeof(FileHeader)) {
            EXPECT_FALSE(ok) << "len=" << len;
            EXPECT_FALSE(rec_error.empty()) << "len=" << len;
            continue;
        }
        // Header is written once and never moves, so any prefix that
        // covers it is recoverable.
        ASSERT_TRUE(ok) << "len=" << len << ": " << rec_error;

        uint64_t expect_samples = 0;
        for (const auto &span : spans)
            if (span.endByte <= len)
                expect_samples = span.samplesThrough;
        ASSERT_EQ(report.salvagedSamples, expect_samples)
            << "len=" << len;
        ASSERT_EQ(reader.info().totalSamples, expect_samples)
            << "len=" << len;

        dsp::TimeSeries salvaged;
        ASSERT_TRUE(reader.readAll(salvaged, &rec_error))
            << "len=" << len << ": " << rec_error;
        ASSERT_EQ(salvaged.samples.size(), expect_samples);
        if (expect_samples > 0)
            EXPECT_EQ(std::memcmp(salvaged.samples.data(),
                                  series.samples.data(),
                                  expect_samples * sizeof(float)),
                      0)
                << "len=" << len;
    }
    std::remove(path.c_str());
    std::remove(trunc_path.c_str());
}

TEST(Recovery, FinalizedCaptureRecoversInFull)
{
    const auto series = plateauSeries(3500, 7);
    const auto path = tempPath("full.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(), nullptr,
                             &error))
        << error;

    CaptureReader reader;
    RecoveryReport report;
    ASSERT_TRUE(reader.openRecovered(path, &report, &error)) << error;
    EXPECT_EQ(report.salvagedChunks, 4u);
    EXPECT_EQ(report.salvagedSamples, 3500u);
    // The dropped tail is exactly the footer (index + tail), which the
    // scan cannot mistake for a chunk.
    EXPECT_EQ(report.droppedTailBytes,
              4 * sizeof(ChunkIndexEntry) + sizeof(FooterTail));

    dsp::TimeSeries loaded;
    ASSERT_TRUE(reader.readAll(loaded, &error)) << error;
    ASSERT_EQ(loaded.samples.size(), series.samples.size());
    EXPECT_EQ(std::memcmp(loaded.samples.data(), series.samples.data(),
                          series.samples.size() * sizeof(float)),
              0);
    std::remove(path.c_str());
}

TEST(Recovery, CorruptMidChunkStopsSalvageBeforeIt)
{
    const auto series = plateauSeries(4000, 9);
    const auto path = tempPath("midcorrupt.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(), nullptr,
                             &error))
        << error;

    CaptureReader intact;
    ASSERT_TRUE(intact.open(path, &error)) << error;
    ASSERT_GE(intact.chunkCount(), 3u);
    // Flip a payload byte in chunk 2.
    const auto &bad = intact.chunk(2);
    const long victim = static_cast<long>(bad.fileOffset) +
                        static_cast<long>(sizeof(ChunkHeader)) + 5;
    const uint64_t expect =
        intact.chunk(0).sampleCount + intact.chunk(1).sampleCount;
    intact.close();
    flipByte(path, victim);

    CaptureReader reader;
    RecoveryReport report;
    ASSERT_TRUE(reader.openRecovered(path, &report, &error)) << error;
    EXPECT_EQ(report.salvagedChunks, 2u);
    EXPECT_EQ(report.salvagedSamples, expect);
    EXPECT_FALSE(report.stopReason.empty());

    dsp::TimeSeries salvaged;
    ASSERT_TRUE(reader.readAll(salvaged, &error)) << error;
    ASSERT_EQ(salvaged.samples.size(), expect);
    EXPECT_EQ(std::memcmp(salvaged.samples.data(), series.samples.data(),
                          expect * sizeof(float)),
              0);
    std::remove(path.c_str());
}

TEST(Recovery, DamagedHeaderIsNotRecoverable)
{
    const auto series = plateauSeries(1500, 3);
    const auto path = tempPath("badheader.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(), nullptr,
                             &error))
        << error;
    flipByte(path, 10); // inside the 72-byte header

    CaptureReader reader;
    RecoveryReport report;
    EXPECT_FALSE(reader.openRecovered(path, &report, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(Recovery, QuantizedCaptureRecoversPerChunkScale)
{
    // QuantI16 keeps its dequantisation scale in each chunk header, so
    // recovery needs nothing from the footer.  The salvage must decode
    // to exactly what the intact reader decodes.
    const auto series = plateauSeries(3000, 21);
    const auto path = tempPath("quantrec.emcap");
    auto opt = baseOptions();
    opt.codec = SampleCodec::QuantI16;
    opt.quantBits = 12;
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, opt, nullptr, &error))
        << error;

    CaptureReader intact;
    ASSERT_TRUE(intact.open(path, &error)) << error;
    dsp::TimeSeries full;
    ASSERT_TRUE(intact.readAll(full, &error)) << error;
    const uint64_t cut_end =
        intact.chunk(1).fileOffset + intact.chunk(1).storedBytes;
    intact.close();

    // Truncate right after chunk 1 (two complete chunks survive).
    const auto bytes = readFile(path);
    const auto cut = tempPath("quantrec_cut.emcap");
    writeFile(cut, bytes.data(), static_cast<std::size_t>(cut_end));

    CaptureReader reader;
    RecoveryReport report;
    ASSERT_TRUE(reader.openRecovered(cut, &report, &error)) << error;
    EXPECT_EQ(report.salvagedChunks, 2u);
    EXPECT_EQ(reader.info().codec, SampleCodec::QuantI16);
    EXPECT_EQ(reader.info().quantBits, 12u);

    dsp::TimeSeries salvaged;
    ASSERT_TRUE(reader.readAll(salvaged, &error)) << error;
    ASSERT_EQ(salvaged.samples.size(), report.salvagedSamples);
    EXPECT_EQ(std::memcmp(salvaged.samples.data(), full.samples.data(),
                          salvaged.samples.size() * sizeof(float)),
              0);
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(Recovery, RecoveredReaderFeedsParallelAnalyzerIdentically)
{
    // A recovered reader must be a drop-in source for the parallel
    // analyzer: same events as streaming the salvaged prefix.
    auto series = plateauSeries(6000, 33);
    for (std::size_t i = 1200; i < 1300; ++i)
        series.samples[i] = 0.2f;
    for (std::size_t i = 3480; i < 3560; ++i)
        series.samples[i] = 0.2f;
    const auto path = tempPath("recanalyze.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(500), nullptr,
                             &error))
        << error;

    CaptureReader intact;
    ASSERT_TRUE(intact.open(path, &error)) << error;
    const uint64_t cut_end =
        intact.chunk(7).fileOffset + intact.chunk(7).storedBytes;
    intact.close();
    const auto bytes = readFile(path);
    const auto cut = tempPath("recanalyze_cut.emcap");
    writeFile(cut, bytes.data(), static_cast<std::size_t>(cut_end));

    CaptureReader reader;
    ASSERT_TRUE(reader.openRecovered(cut, nullptr, &error)) << error;
    ASSERT_EQ(reader.info().totalSamples, 4000u);

    profiler::EmProfConfig config;
    config.clockHz = 1.008e9;
    config.normWindowSeconds = 20e-6;

    dsp::TimeSeries prefix;
    prefix.sampleRateHz = series.sampleRateHz;
    prefix.samples.assign(series.samples.begin(),
                          series.samples.begin() + 4000);
    const auto streaming =
        profiler::oracle::StreamingOracle::analyze(prefix, config);
    ASSERT_GE(streaming.events.size(), 1u);

    profiler::ParallelAnalyzerConfig pcfg;
    pcfg.threads = 4;
    pcfg.chunkSamples = 500;
    profiler::ProfileResult parallel;
    ASSERT_TRUE(profiler::analyzeCaptureParallel(reader, config,
                                                 parallel, pcfg, &error))
        << error;

    ASSERT_EQ(parallel.events.size(), streaming.events.size());
    for (std::size_t i = 0; i < streaming.events.size(); ++i) {
        EXPECT_EQ(parallel.events[i].startSample,
                  streaming.events[i].startSample);
        EXPECT_EQ(parallel.events[i].endSample,
                  streaming.events[i].endSample);
        EXPECT_EQ(parallel.events[i].depth, streaming.events[i].depth);
        EXPECT_EQ(parallel.events[i].kind, streaming.events[i].kind);
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(Recovery, SalvageRewritesToAVerifiableCapture)
{
    // The emprof_store recover path: salvage, re-encode, and the
    // result is a fully finalized capture that passes strict open()
    // and verify().
    const auto series = plateauSeries(2200, 55);
    const auto path = tempPath("rewrite_src.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(400), nullptr,
                             &error))
        << error;
    const auto bytes = readFile(path);
    const auto cut = tempPath("rewrite_cut.emcap");
    // Chop 40% off the end: some chunks plus the footer vanish.
    writeFile(cut, bytes.data(), bytes.size() * 6 / 10);

    CaptureReader reader;
    RecoveryReport report;
    ASSERT_TRUE(reader.openRecovered(cut, &report, &error)) << error;
    ASSERT_GT(report.salvagedSamples, 0u);

    dsp::TimeSeries salvaged;
    ASSERT_TRUE(reader.readAll(salvaged, &error)) << error;
    const auto out = tempPath("rewrite_out.emcap");
    ASSERT_TRUE(writeCapture(out, salvaged, baseOptions(400), nullptr,
                             &error))
        << error;

    CaptureReader fixed;
    ASSERT_TRUE(fixed.open(out, &error)) << error;
    const auto verdict = fixed.verify();
    EXPECT_TRUE(verdict.ok) << verdict.error;
    dsp::TimeSeries roundtrip;
    ASSERT_TRUE(fixed.readAll(roundtrip, &error)) << error;
    ASSERT_EQ(roundtrip.samples.size(), salvaged.samples.size());
    EXPECT_EQ(std::memcmp(roundtrip.samples.data(),
                          salvaged.samples.data(),
                          salvaged.samples.size() * sizeof(float)),
              0);
    std::remove(path.c_str());
    std::remove(cut.c_str());
    std::remove(out.c_str());
}

TEST(Recovery, StrictOpenOfTruncatedFileNamesRecovery)
{
    // The strict reader's error for a footer-less file must point the
    // operator at recovery.
    const auto series = plateauSeries(1500, 77);
    const auto path = tempPath("hint.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(), nullptr,
                             &error))
        << error;
    const auto bytes = readFile(path);
    writeFile(path, bytes.data(), bytes.size() / 2);

    CaptureReader reader;
    EXPECT_FALSE(reader.open(path, &error));
    EXPECT_NE(error.find("recovery"), std::string::npos) << error;
    std::remove(path.c_str());
}

} // namespace
} // namespace emprof::store
