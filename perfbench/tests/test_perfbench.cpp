// Unit tests for the benchmark's own machinery: seeded inputs, order
// statistics and the span arithmetic the ledger is built on.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

TEST(Inputs, SameSeedReproducesTheHash)
{
    EXPECT_EQ(signalHash(42, 300000), signalHash(42, 300000));
}

TEST(Inputs, DifferentSeedChangesTheHash)
{
    EXPECT_NE(signalHash(42, 300000), signalHash(43, 300000));
    EXPECT_NE(signalHash(mixSeed(42, 0), 4096),
              signalHash(mixSeed(42, 1), 4096));
}

TEST(Inputs, BlockSizeDoesNotChangeTheSignal)
{
    EXPECT_EQ(signalHash(7, 200000, 1 << 16), signalHash(7, 200000, 1000));
    EXPECT_EQ(signalHash(7, 200000, 1 << 16), signalHash(7, 200000, 1));
}

TEST(Inputs, SignalHasMissAndRefreshDips)
{
    const std::size_t n = 4000000;
    SignalSynth synth(11, n);
    std::vector<float> s(n);
    synth.fill(s.data(), n);
    std::size_t dips = 0, refresh = 0, run = 0;
    for (std::size_t i = 0; i <= n; ++i) {
        if (i < n && s[i] == 0.2f) {
            ++run;
            continue;
        }
        if (run > 0) {
            ++dips;
            EXPECT_TRUE(run == 100 || (run >= 8 && run <= 14)) << run;
            refresh += run == 100;
        }
        run = 0;
    }
    // One dip every ~111 samples (~2.8 us at 40 MHz), 1% refresh-length.
    EXPECT_NEAR(static_cast<double>(dips) / n, 1.0 / 111, 0.001);
    EXPECT_NEAR(static_cast<double>(refresh) / dips, 0.01, 0.003);
}

TEST(Inputs, WrittenCaptureHashesTheSynthesisedSignal)
{
    const std::string path =
        "perfbench_test_" + std::to_string(::getpid()) + ".emcap";
    Capture capture;
    std::string error;
    ASSERT_TRUE(writeCapture(path, 5, 150000, capture, &error)) << error;
    EXPECT_EQ(capture.signalHash, signalHash(5, 150000));
    EXPECT_EQ(capture.samples, 150000u);
    Reference ref;
    ASSERT_TRUE(referenceAnalysis(path, "t", ref, &error)) << error;
    EXPECT_EQ(ref.samples, 150000u);
    EXPECT_GT(ref.events, 1000u);
    std::remove(path.c_str());
}

TEST(Stats, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 0.5), 50);
    EXPECT_EQ(percentile(v, 0.99), 99);
    EXPECT_EQ(percentile(v, 1.0), 100);
    EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Stats, TailSupportCountsSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(samplesBeyond(200, 0.95), 10u);
    EXPECT_EQ(samplesBeyond(100, 0.99), 1u);
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);
}

TEST(Trace, SelfTimeSubtractsSameLaneChildrenOnce)
{
    std::vector<Span> spans(4);
    spans[0] = {"offline.file", 1, 0, 0, 0, 100, 0, 1};
    spans[1] = {"store.open", 2, 1, 0, 10, 30, 0, 1};
    spans[2] = {"profiler.stitch", 3, 1, 0, 20, 50, 0, 1};
    spans[3] = {"profiler.analyze", 4, 1, 0, 0, 100, 1, 2}; // other lane
    const auto self = selfTimes(spans);
    EXPECT_EQ(self[0], 60); // [10, 50) covered once
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[3], 100);
}

TEST(Trace, LedgerChargesWidthAndNamesTheCostliestLayer)
{
    std::vector<Span> spans(3);
    spans[0] = {"offline.file", 1, 0, 0, 0, 100, 0, 1};
    spans[1] = {"profiler.analyze", 2, 1, 0, 0, 80, 1, 2};
    spans[2] = {"store.decode", 3, 1, 0, 0, 40, 2, 2};
    Ledger ledger;
    ledger.endToEndNs = 100;
    ledger.callNs = layerSelfNs(spans, selfTimes(spans),
                                [](const Span &) { return true; });
    EXPECT_DOUBLE_EQ(ledger.callNs["profiler.analyze"], 40);
    EXPECT_DOUBLE_EQ(ledger.callNs["store.decode"], 20);
    EXPECT_EQ(ledger.callNs.count("offline.file"), 0u);
    EXPECT_DOUBLE_EQ(ledger.residualFraction(), 0.4);
    EXPECT_EQ(ledger.costliestModule(), "profiler");
}

TEST(Trace, RecorderKeepsParentsAndDropsPastItsCap)
{
    SpanRecorder rec(3);
    {
        ScopedSpan root(rec, "client.session", 9);
        ScopedSpan child(rec, "client.open", 9, root.id());
        ScopedSpan more(rec, "client.upload", 9, root.id());
        ScopedSpan dropped(rec, "client.finish", 9, root.id());
        EXPECT_EQ(dropped.id(), 0u);
    }
    const auto spans = rec.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(rec.dropped(), 1u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].trace, 9u);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);
}
