/**
 * @file
 * Tests for EventListPool, the bounded pool the span kernels take their
 * event lists from: its take/give/cap contract on a pool of its own,
 * under four threads at once, and the reuse a second capture analysis
 * gets from the process-wide pool with the events unchanged.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dsp/rng.hpp"
#include "obs/metrics.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"
#include "streaming_oracle.hpp"
#include "../parity.hpp"

namespace emprof::profiler {
namespace {

constexpr std::size_t kMaxListEvents =
    EventListPool::kMaxListBytes / sizeof(StallEvent);

std::vector<StallEvent>
listWithCapacity(std::size_t events)
{
    std::vector<StallEvent> list;
    list.reserve(events);
    return list;
}

TEST(EventListPool, TakeFromAnEmptyPoolGivesAnEmptyList)
{
    EventListPool pool;
    const std::vector<StallEvent> list = pool.take();
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.capacity(), 0u);
    EXPECT_EQ(pool.bytes(), 0u);
}

TEST(EventListPool, GiveThenTakeReturnsTheCapacityNotTheContents)
{
    EventListPool pool;
    std::vector<StallEvent> list = listWithCapacity(1000);
    list.resize(700);
    const std::size_t capacity = list.capacity();
    pool.give(std::move(list));
    EXPECT_EQ(pool.bytes(), capacity * sizeof(StallEvent));

    const std::vector<StallEvent> again = pool.take();
    EXPECT_TRUE(again.empty());
    EXPECT_EQ(again.capacity(), capacity);
    EXPECT_EQ(pool.bytes(), 0u);
    EXPECT_EQ(pool.take().capacity(), 0u);
}

TEST(EventListPool, TakesTheLastListGivenFirst)
{
    EventListPool pool;
    pool.give(listWithCapacity(100));
    pool.give(listWithCapacity(300));
    EXPECT_EQ(pool.take().capacity(), 300u);
    EXPECT_EQ(pool.take().capacity(), 100u);
}

TEST(EventListPool, ListThatWouldPassTheCapIsDropped)
{
    EventListPool pool;
    // Exactly at the cap: kept; one more list of any size is dropped.
    // (The lists are reserved, never touched.)
    const std::size_t fill =
        EventListPool::kCapBytes / EventListPool::kMaxListBytes;
    for (std::size_t i = 0; i < fill; ++i)
        pool.give(listWithCapacity(kMaxListEvents));
    EXPECT_EQ(pool.bytes(), EventListPool::kCapBytes);
    pool.give(listWithCapacity(1));
    EXPECT_EQ(pool.bytes(), EventListPool::kCapBytes);

    // An empty list holds no capacity and is not kept.
    EventListPool empty;
    empty.give({});
    EXPECT_EQ(empty.bytes(), 0u);
}

TEST(EventListPool, ListOverTheListBoundIsDroppedEvenWhenThePoolIsEmpty)
{
    // A whole-signal list must not take the room of the span lists.
    EventListPool pool;
    pool.give(listWithCapacity(kMaxListEvents + 1));
    EXPECT_EQ(pool.bytes(), 0u);
    EXPECT_EQ(pool.take().capacity(), 0u);

    pool.give(listWithCapacity(kMaxListEvents));
    EXPECT_EQ(pool.bytes(), EventListPool::kMaxListBytes);
}

TEST(EventListPool, FourThreadsTakeAndGiveConcurrently)
{
    EventListPool pool;
    std::atomic<int> nonEmptyTakes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&pool, &nonEmptyTakes, t] {
            for (int round = 0; round < 2000; ++round) {
                std::vector<StallEvent> list = pool.take();
                if (!list.empty())
                    nonEmptyTakes.fetch_add(1);
                list.resize(1 + static_cast<std::size_t>(
                                    (round * 7 + t * 13) % 64));
                pool.give(std::move(list));
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(nonEmptyTakes.load(), 0);

    // Every byte the pool counts is a list it can hand out.
    const std::size_t held = pool.bytes();
    EXPECT_GT(held, 0u);
    EXPECT_LE(held, EventListPool::kCapBytes);
    std::size_t drained = 0;
    for (;;) {
        const std::vector<StallEvent> list = pool.take();
        if (list.capacity() == 0)
            break;
        drained += list.capacity() * sizeof(StallEvent);
    }
    EXPECT_EQ(drained, held);
    EXPECT_EQ(pool.bytes(), 0u);
}

/** A 40 MHz busy signal with a dip every few hundred samples, so every
 *  span of a few thousand samples has events of its own. */
dsp::TimeSeries
dippySignal(std::size_t total)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(23);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    for (std::size_t pos = 900; pos + 40 < total;
         pos += 200 + rng.below(400))
        for (std::size_t i = pos; i < pos + 8 + rng.below(20); ++i)
            s.samples[i] = 0.2f;
    return s;
}

uint64_t
counter(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(EventListPool, SecondCaptureAnalysisReusesEverySpanList)
{
    EmProfConfig config;
    config.clockHz = 1e9;
    config.normWindowSeconds = 20e-6; // 800-sample envelope window
    const dsp::TimeSeries sig = dippySignal(60000);
    const ProfileResult reference =
        oracle::StreamingOracle::analyze(sig, config);
    ASSERT_GT(reference.events.size(), 50u);

    store::WriterOptions opt;
    opt.sampleRateHz = sig.sampleRateHz;
    opt.chunkSamples = 2500;
    const std::string path =
        std::string(::testing::TempDir()) + "event_list_pool.emcap";
    ASSERT_TRUE(store::writeCapture(path, sig, opt));
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;

    // Start from an empty process-wide pool, whatever ran before.
    while (EventListPool::shared().take().capacity() != 0) {
    }

    auto &registry = obs::MetricsRegistry::instance();
    obs::MetricsRegistry::setEnabled(true);
    ParallelAnalyzerConfig parallel;
    parallel.threads = 2;
    parallel.chunkSamples = 5000;
    uint64_t spans[2] = {};
    uint64_t reused[2] = {};
    uint64_t fresh[2] = {};
    for (int call = 0; call < 2; ++call) {
        registry.resetValues();
        ProfileResult result;
        ASSERT_TRUE(analyzeCaptureParallel(reader, config, result,
                                           parallel, &error))
            << error;
        EXPECT_EQ(parity::eventsDiff(reference.events, result.events), "")
            << "call " << call;
        const obs::MetricsSnapshot snap = registry.scrape();
        spans[call] = counter(snap, "analyzer.chunks_analyzed");
        reused[call] = counter(snap, "profiler.event_lists_reused");
        fresh[call] = counter(snap, "profiler.event_lists_fresh");
    }
    obs::MetricsRegistry::setEnabled(false);
    std::remove(path.c_str());

    ASSERT_GE(spans[0], 12u);
    EXPECT_EQ(spans[1], spans[0]);
    // The first call finds the pool empty; the second reuses every list
    // the first gave back.
    EXPECT_EQ(fresh[0], spans[0]);
    EXPECT_EQ(reused[0], 0u);
    EXPECT_EQ(reused[1], spans[1]);
    EXPECT_EQ(fresh[1], 0u);
}

} // namespace
} // namespace emprof::profiler
