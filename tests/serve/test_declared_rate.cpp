/**
 * @file
 * Analysis memory follows the input, not the declared sample rate.
 *
 * A 4096-sample capture whose header declares 25 GHz implies a
 * 4 ms x 25 GHz = 10^8-sample normalisation window.  Sized by that
 * window, the envelope tables of one call would take gigabytes; sized
 * by min(window, samples the call sees) they take what the input
 * holds.  The upload goes through the served path (SessionPipeline)
 * and the offline path (analyzeCaptureParallel), classic and
 * resilient: each must grow this process's peak RSS by less than
 * 64 MiB, and both paths must report the same events.
 *
 * The test is its own executable so that the peak it reads
 * (getrusage's ru_maxrss, a process-wide high-water mark) is its own.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "serve/session_pipeline.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;

namespace {

constexpr double kDeclaredRateHz = 2.5e10;
constexpr std::size_t kSamples = 4096;
constexpr long kBoundKiB = 64 * 1024;

long
peakRssKiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** Busy at ~1.0 with one 2000-sample dip to ~0.2: 80 ns at 25 GHz,
 *  so it stays above the 60 ns duration cut. */
dsp::TimeSeries
upload()
{
    dsp::TimeSeries s;
    s.sampleRateHz = kDeclaredRateHz;
    s.samples.assign(kSamples, 1.0f);
    for (std::size_t i = 1000; i < 3000; ++i)
        s.samples[i] = 0.2f;
    dsp::Rng rng(25);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    return s;
}

std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        bytes.push_back(static_cast<uint8_t>(c));
    std::fclose(f);
    return bytes;
}

TEST(DeclaredRate, ShortUploadAtHugeRateStaysSmallServedAndOffline)
{
    const std::string path =
        std::string(::testing::TempDir()) + "declared_rate.emcap";
    store::WriterOptions opt;
    opt.sampleRateHz = kDeclaredRateHz;
    ASSERT_TRUE(store::writeCapture(path, upload(), opt));
    const std::vector<uint8_t> bytes = fileBytes(path);
    ASSERT_FALSE(bytes.empty());

    for (const bool resilient : {false, true}) {
        SCOPED_TRACE(resilient ? "resilient" : "classic");
        profiler::EmProfConfig config;
        config.signal.enabled = resilient;
        ASSERT_GT(config.normWindowSamples(), 0u);

        long before = peakRssKiB();
        serve::SessionPipeline pipeline(config);
        std::string error;
        ASSERT_TRUE(pipeline.feed(bytes.data(), bytes.size(), &error))
            << error;
        ASSERT_GE(pipeline.config().normWindowSamples(),
                  std::size_t{99000000});
        profiler::ProfileResult served;
        ASSERT_TRUE(pipeline.finish(served, &error)) << error;
        EXPECT_LT(peakRssKiB() - before, kBoundKiB)
            << "served session grew peak RSS by "
            << (peakRssKiB() - before) / 1024 << " MiB";

        before = peakRssKiB();
        store::CaptureReader reader;
        ASSERT_TRUE(reader.open(path, &error)) << error;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(::testing::Message() << "threads=" << threads);
            profiler::ParallelAnalyzerConfig pcfg;
            pcfg.threads = threads;
            profiler::ProfileResult offline;
            ASSERT_TRUE(profiler::analyzeCaptureParallel(
                reader, config, offline, pcfg, &error))
                << error;
            EXPECT_LT(peakRssKiB() - before, kBoundKiB)
                << "offline analysis grew peak RSS by "
                << (peakRssKiB() - before) / 1024 << " MiB";

            if (!resilient) {
                ASSERT_EQ(served.events.size(), 1u);
            }
            ASSERT_EQ(offline.events.size(), served.events.size());
            for (std::size_t i = 0; i < served.events.size(); ++i) {
                EXPECT_EQ(offline.events[i].startSample,
                          served.events[i].startSample);
                EXPECT_EQ(offline.events[i].endSample,
                          served.events[i].endSample);
                EXPECT_EQ(offline.events[i].depth, served.events[i].depth);
            }
            EXPECT_EQ(offline.report.toText(), served.report.toText());
        }
    }
    std::remove(path.c_str());
}

} // namespace
