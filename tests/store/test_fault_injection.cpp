/**
 * @file
 * I/O fault-injection tests.
 *
 * ScopedFaultPlan arms one fault at a cumulative byte position inside
 * CheckedFile's transfer loops; the tests sweep that position across
 * entire write and read streams to prove every I/O site in the capture
 * path either surfaces a typed IoError or (for EINTR) recovers
 * transparently — and that whatever a failed writer leaves on disk is
 * either cleanly rejected or salvageable with bit-exact samples.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/io/checked_file.hpp"
#include "common/io/fault_injection.hpp"
#include "dsp/rng.hpp"
#include "dsp/signal_io.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

namespace emprof::store {
namespace {

using common::io::CheckedFile;
using common::io::FaultInjector;
using common::io::FaultPlan;
using common::io::IoError;
using common::io::IoErrorKind;
using common::io::ScopedFaultPlan;

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

FaultPlan
plan(FaultPlan::Kind kind, uint64_t trigger)
{
    FaultPlan p;
    p.kind = kind;
    p.triggerByte = trigger;
    return p;
}

uint64_t
fileSize(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return static_cast<uint64_t>(size);
}

// --- CheckedFile-level behaviour ------------------------------------

TEST(FaultInjection, TornWriteSurfacesShortWriteAndInvalidates)
{
    const auto path = tempPath("torn.bin");
    CheckedFile file;
    ASSERT_TRUE(file.open(path, CheckedFile::Mode::WriteTruncate));

    std::vector<uint8_t> data(100, 0xAB);
    {
        ScopedFaultPlan fault(plan(FaultPlan::Kind::TornWrite, 40));
        EXPECT_FALSE(file.writeAll(data.data(), data.size(), "blob"));
        EXPECT_TRUE(FaultInjector::fired());
    }
    EXPECT_EQ(file.error().kind, IoErrorKind::ShortWrite);
    EXPECT_EQ(file.error().context, "blob");
    EXPECT_FALSE(file.error().describe().empty());

    // First-error-wins: later operations fail, the error is preserved.
    EXPECT_FALSE(file.writeAll(data.data(), data.size(), "later"));
    EXPECT_EQ(file.error().kind, IoErrorKind::ShortWrite);
    EXPECT_EQ(file.error().context, "blob");
    EXPECT_FALSE(file.close());

    // The torn bytes really landed (that is what makes it "torn").
    EXPECT_EQ(fileSize(path), 40u);
    std::remove(path.c_str());
}

TEST(FaultInjection, NoSpaceSurfacesEnospc)
{
    const auto path = tempPath("nospace.bin");
    CheckedFile file;
    ASSERT_TRUE(file.open(path, CheckedFile::Mode::WriteTruncate));
    std::vector<uint8_t> data(64, 0x11);
    {
        ScopedFaultPlan fault(plan(FaultPlan::Kind::NoSpace, 10));
        EXPECT_FALSE(file.writeAll(data.data(), data.size(), "blob"));
    }
    EXPECT_EQ(file.error().kind, IoErrorKind::NoSpace);
    EXPECT_EQ(file.error().sysErrno, ENOSPC);
    std::remove(path.c_str());
}

TEST(FaultInjection, EintrIsRetriedTransparently)
{
    const auto path = tempPath("eintr.bin");
    CheckedFile file;
    ASSERT_TRUE(file.open(path, CheckedFile::Mode::WriteTruncate));
    std::vector<uint8_t> data(128);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    {
        ScopedFaultPlan fault(plan(FaultPlan::Kind::Eintr, 50));
        EXPECT_TRUE(file.writeAll(data.data(), data.size(), "blob"));
        EXPECT_TRUE(FaultInjector::fired());
    }
    EXPECT_TRUE(file.error().ok());
    ASSERT_TRUE(file.close());
    EXPECT_EQ(fileSize(path), data.size());
    std::remove(path.c_str());
}

TEST(FaultInjection, ShortReadAndFailReadSurfaceTypedErrors)
{
    const auto path = tempPath("readfault.bin");
    {
        CheckedFile file;
        ASSERT_TRUE(file.open(path, CheckedFile::Mode::WriteTruncate));
        std::vector<uint8_t> data(64, 0x5A);
        ASSERT_TRUE(file.writeAll(data.data(), data.size(), "blob"));
        ASSERT_TRUE(file.close());
    }
    uint8_t buf[64];
    {
        CheckedFile file;
        ASSERT_TRUE(file.open(path, CheckedFile::Mode::Read));
        ScopedFaultPlan fault(plan(FaultPlan::Kind::ShortRead, 32));
        EXPECT_FALSE(file.readAll(buf, sizeof(buf), "blob"));
        EXPECT_EQ(file.error().kind, IoErrorKind::ShortRead);
    }
    {
        CheckedFile file;
        ASSERT_TRUE(file.open(path, CheckedFile::Mode::Read));
        ScopedFaultPlan fault(plan(FaultPlan::Kind::FailRead, 0));
        EXPECT_FALSE(file.readAll(buf, sizeof(buf), "blob"));
        EXPECT_EQ(file.error().kind, IoErrorKind::ReadFailed);
    }
    // Real EOF (no injection) is a ShortRead too.
    {
        CheckedFile file;
        ASSERT_TRUE(file.open(path, CheckedFile::Mode::Read));
        uint8_t big[100];
        EXPECT_FALSE(file.readAll(big, sizeof(big), "blob"));
        EXPECT_EQ(file.error().kind, IoErrorKind::ShortRead);
    }
    std::remove(path.c_str());
}

// --- capture-writer path --------------------------------------------

TEST(FaultInjection, WriterFaultAtEveryByteFailsCleanOrRecovers)
{
    // The central sweep: arm a fault at every byte position of the
    // writer's output stream, for each failure shape.  writeCapture
    // must report a typed error, and what it leaves on disk must be
    // cleanly rejectable or salvageable with bit-exact samples —
    // never crash, never a wrong count.
    const auto series = plateauSeries(500, 202);
    const auto path = tempPath("sweep.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(100), nullptr,
                             &error))
        << error;
    const uint64_t total_bytes = fileSize(path);

    // Expected salvage boundaries from the intact file's index.
    CaptureReader intact;
    ASSERT_TRUE(intact.open(path, &error)) << error;
    std::vector<std::pair<uint64_t, uint64_t>> spans; // endByte, samples
    uint64_t cumulative = 0;
    for (std::size_t i = 0; i < intact.chunkCount(); ++i) {
        const auto &e = intact.chunk(i);
        cumulative += e.sampleCount;
        spans.push_back({e.fileOffset + e.storedBytes, cumulative});
    }
    intact.close();
    std::remove(path.c_str());

    for (const auto kind :
         {FaultPlan::Kind::FailWrite, FaultPlan::Kind::TornWrite,
          FaultPlan::Kind::NoSpace}) {
        // The write stream re-writes the 72-byte header during
        // finalize, so the stream is total_bytes + 72 long.
        for (uint64_t trigger = 0; trigger < total_bytes + 72;
             ++trigger) {
            bool ok;
            std::string sweep_error;
            {
                ScopedFaultPlan fault(plan(kind, trigger));
                ok = writeCapture(path, series, baseOptions(100),
                                  nullptr, &sweep_error);
            }
            ASSERT_FALSE(ok) << "kind=" << static_cast<int>(kind)
                             << " trigger=" << trigger;
            ASSERT_FALSE(sweep_error.empty()) << "trigger=" << trigger;

            // Strict open must never report a wrong sample count; if
            // it accepts the file at all, the file must be complete.
            {
                CaptureReader strict;
                std::string open_error;
                if (strict.open(path, &open_error)) {
                    dsp::TimeSeries loaded;
                    ASSERT_TRUE(strict.readAll(loaded, &open_error));
                    ASSERT_EQ(loaded.samples.size(),
                              series.samples.size())
                        << "trigger=" << trigger;
                }
            }

            // Recovery: fails cleanly, or salvages a bit-exact prefix
            // aligned to a flushed-chunk boundary.
            CaptureReader reader;
            RecoveryReport report;
            std::string rec_error;
            if (!reader.openRecovered(path, &report, &rec_error)) {
                ASSERT_FALSE(rec_error.empty())
                    << "trigger=" << trigger;
                continue;
            }
            bool on_boundary = report.salvagedSamples == 0;
            for (const auto &span : spans)
                on_boundary |= report.salvagedSamples == span.second;
            ASSERT_TRUE(on_boundary)
                << "salvaged " << report.salvagedSamples
                << " samples at trigger=" << trigger;

            dsp::TimeSeries salvaged;
            ASSERT_TRUE(reader.readAll(salvaged, &rec_error))
                << "trigger=" << trigger << ": " << rec_error;
            ASSERT_EQ(salvaged.samples.size(), report.salvagedSamples);
            if (!salvaged.samples.empty()) {
                ASSERT_EQ(
                    std::memcmp(salvaged.samples.data(),
                                series.samples.data(),
                                salvaged.samples.size() *
                                    sizeof(float)),
                    0)
                    << "trigger=" << trigger;
            }
        }
    }
    std::remove(path.c_str());
}

TEST(FaultInjection, WriterSurvivesEintrAnywhere)
{
    // EINTR is not an error: wherever it lands in the stream, the
    // retry loop must absorb it and produce a byte-identical capture.
    const auto series = plateauSeries(500, 203);
    const auto path = tempPath("eintr.emcap");
    std::string error;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(100), nullptr,
                             &error))
        << error;
    const uint64_t total_bytes = fileSize(path);

    for (uint64_t trigger = 0; trigger < total_bytes + 72;
         trigger += 7) {
        bool ok;
        {
            ScopedFaultPlan fault(
                plan(FaultPlan::Kind::Eintr, trigger));
            ok = writeCapture(path, series, baseOptions(100), nullptr,
                              &error);
        }
        ASSERT_TRUE(ok) << "trigger=" << trigger << ": " << error;

        CaptureReader reader;
        ASSERT_TRUE(reader.open(path, &error)) << error;
        dsp::TimeSeries loaded;
        ASSERT_TRUE(reader.readAll(loaded, &error)) << error;
        ASSERT_EQ(loaded.samples.size(), series.samples.size());
        ASSERT_EQ(std::memcmp(loaded.samples.data(),
                              series.samples.data(),
                              series.samples.size() * sizeof(float)),
                  0)
            << "trigger=" << trigger;
    }
    std::remove(path.c_str());
}

TEST(FaultInjection, WriterInvalidatesAfterMidCaptureFault)
{
    // Streaming use: a fault during append() must invalidate the
    // writer — further appends fail fast, finalize reports the first
    // error, and no footer gets written over the damage.
    const auto series = plateauSeries(500, 204);
    const auto path = tempPath("invalidate.emcap");

    CaptureWriter writer;
    ASSERT_TRUE(writer.open(path, baseOptions(100)));

    bool append_ok, finalize_ok = false;
    {
        // Somewhere inside the chunk stream (byte counting starts at
        // arm(), i.e. after the 72-byte provisional header).
        ScopedFaultPlan fault(plan(FaultPlan::Kind::TornWrite, 450));
        append_ok = writer.append(series.samples.data(),
                                  series.samples.size());
        if (append_ok)
            finalize_ok = writer.finalize(); // fault lands in footer
    }
    EXPECT_FALSE(append_ok && finalize_ok);
    EXPECT_FALSE(writer.isOpen());
    EXPECT_EQ(writer.lastError().kind, IoErrorKind::ShortWrite);
    // Invalidated: everything after the first failure fails fast and
    // preserves that first error.
    EXPECT_FALSE(writer.append(series.samples.data(), 100));
    EXPECT_FALSE(writer.finalize());
    EXPECT_EQ(writer.lastError().kind, IoErrorKind::ShortWrite);

    // The partial file never gained a footer.
    CaptureReader strict;
    std::string error;
    EXPECT_FALSE(strict.open(path, &error));
    std::remove(path.c_str());
}

// --- signal_io path --------------------------------------------------

TEST(FaultInjection, SaveSignalSurfacesDiskFull)
{
    const auto series = plateauSeries(400, 205);
    const auto path = tempPath("fault.emsig");
    IoError error;
    {
        ScopedFaultPlan fault(plan(FaultPlan::Kind::NoSpace, 600));
        EXPECT_FALSE(dsp::saveSignal(path, series, &error));
    }
    EXPECT_EQ(error.kind, IoErrorKind::NoSpace);
    EXPECT_EQ(error.sysErrno, ENOSPC);
    std::remove(path.c_str());
}

TEST(FaultInjection, LoadSignalEveryTruncationIsATypedError)
{
    // An .emsig whose payload is cut at any byte must be a typed
    // error, never a shorter-but-plausible signal.
    const auto series = plateauSeries(64, 206);
    const auto path = tempPath("trunc.emsig");
    IoError error;
    ASSERT_TRUE(dsp::saveSignal(path, series, &error))
        << error.describe();
    const uint64_t size = fileSize(path);

    std::vector<uint8_t> bytes(size);
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    const auto cut = tempPath("trunc_cut.emsig");
    for (uint64_t len = 0; len < size; ++len) {
        std::FILE *f = std::fopen(cut.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        if (len > 0) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, len, f), len);
        }
        std::fclose(f);

        dsp::TimeSeries out;
        IoError cut_error;
        EXPECT_FALSE(dsp::loadSignal(cut, out, &cut_error))
            << "len=" << len;
        EXPECT_FALSE(cut_error.ok()) << "len=" << len;
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(FaultInjection, LoadRawRejectsTrailingPartialSample)
{
    const auto path = tempPath("ragged.f32");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const uint8_t junk[10] = {}; // 2.5 floats
        ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
        std::fclose(f);
    }
    dsp::TimeSeries out;
    IoError error;
    EXPECT_FALSE(dsp::loadRawF32(path, 40e6, false, out, &error));
    EXPECT_EQ(error.kind, IoErrorKind::Format);
    std::remove(path.c_str());
}

} // namespace
} // namespace emprof::store
