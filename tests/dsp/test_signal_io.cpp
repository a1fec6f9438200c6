/**
 * @file
 * Unit tests for signal file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "dsp/signal_io.hpp"

namespace emprof::dsp {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(SignalIo, MagnitudeRoundTrip)
{
    TimeSeries series;
    series.sampleRateHz = 40e6;
    for (int i = 0; i < 1000; ++i)
        series.samples.push_back(static_cast<float>(i) * 0.001f);

    const auto path = tempPath("roundtrip.emsig");
    ASSERT_TRUE(saveSignal(path, series));

    TimeSeries loaded;
    ASSERT_TRUE(loadSignal(path, loaded));
    EXPECT_DOUBLE_EQ(loaded.sampleRateHz, 40e6);
    ASSERT_EQ(loaded.samples.size(), series.samples.size());
    for (std::size_t i = 0; i < series.samples.size(); i += 37)
        EXPECT_FLOAT_EQ(loaded.samples[i], series.samples[i]);
    std::remove(path.c_str());
}

TEST(SignalIo, IqFileLoadsAsMagnitude)
{
    ComplexSeries series;
    series.sampleRateHz = 20e6;
    series.samples = {{3.0f, 4.0f}, {0.0f, 1.0f}, {-5.0f, 12.0f}};

    const auto path = tempPath("iq.emsig");
    ASSERT_TRUE(saveSignal(path, series));

    TimeSeries loaded;
    ASSERT_TRUE(loadSignal(path, loaded));
    ASSERT_EQ(loaded.samples.size(), 3u);
    EXPECT_FLOAT_EQ(loaded.samples[0], 5.0f);
    EXPECT_FLOAT_EQ(loaded.samples[1], 1.0f);
    EXPECT_FLOAT_EQ(loaded.samples[2], 13.0f);
    std::remove(path.c_str());
}

TEST(SignalIo, MissingFileFails)
{
    TimeSeries out;
    EXPECT_FALSE(loadSignal("/nonexistent/nowhere.emsig", out));
}

TEST(SignalIo, BadMagicFails)
{
    const auto path = tempPath("bad.emsig");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a signal file at all, not even close",
               f);
    std::fclose(f);
    TimeSeries out;
    EXPECT_FALSE(loadSignal(path, out));
    std::remove(path.c_str());
}

TEST(SignalIo, TruncatedPayloadFails)
{
    TimeSeries series;
    series.sampleRateHz = 1e6;
    series.samples.assign(100, 1.0f);
    const auto path = tempPath("trunc.emsig");
    ASSERT_TRUE(saveSignal(path, series));

    // Chop the file short.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(ftruncate(fileno(f), 32 + 10), 0);
    std::fclose(f);
    TimeSeries out;
    EXPECT_FALSE(loadSignal(path, out));
    std::remove(path.c_str());
}

TEST(SignalIo, RawF32RealLoad)
{
    const auto path = tempPath("raw.f32");
    const float data[] = {1.0f, 2.0f, 3.0f};
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data, sizeof(float), 3, f);
    std::fclose(f);

    TimeSeries out;
    ASSERT_TRUE(loadRawF32(path, 10e6, /*iq=*/false, out));
    EXPECT_DOUBLE_EQ(out.sampleRateHz, 10e6);
    ASSERT_EQ(out.samples.size(), 3u);
    EXPECT_FLOAT_EQ(out.samples[1], 2.0f);
    std::remove(path.c_str());
}

TEST(SignalIo, RawF32IqLoadComputesMagnitude)
{
    const auto path = tempPath("raw_iq.f32");
    const float data[] = {3.0f, 4.0f, 6.0f, 8.0f};
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data, sizeof(float), 4, f);
    std::fclose(f);

    TimeSeries out;
    ASSERT_TRUE(loadRawF32(path, 10e6, /*iq=*/true, out));
    ASSERT_EQ(out.samples.size(), 2u);
    EXPECT_FLOAT_EQ(out.samples[0], 5.0f);
    EXPECT_FLOAT_EQ(out.samples[1], 10.0f);
    std::remove(path.c_str());
}

TEST(SignalIo, CsvExportHasHeaderAndRows)
{
    TimeSeries series;
    series.sampleRateHz = 1000.0;
    series.samples = {0.5f, 1.5f};
    const auto path = tempPath("sig.csv");
    ASSERT_TRUE(saveCsv(path, series));

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[128];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_EQ(std::string(line), "time_s,magnitude\n");
    int rows = 0;
    while (std::fgets(line, sizeof(line), f))
        ++rows;
    std::fclose(f);
    EXPECT_EQ(rows, 2);
    std::remove(path.c_str());
}

TEST(SignalIo, EmptySeriesRoundTrips)
{
    TimeSeries series;
    series.sampleRateHz = 5e6;
    const auto path = tempPath("empty.emsig");
    ASSERT_TRUE(saveSignal(path, series));
    TimeSeries out;
    ASSERT_TRUE(loadSignal(path, out));
    EXPECT_TRUE(out.samples.empty());
    EXPECT_DOUBLE_EQ(out.sampleRateHz, 5e6);
    std::remove(path.c_str());
}

} // namespace
} // namespace emprof::dsp
