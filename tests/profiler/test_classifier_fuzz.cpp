/**
 * @file
 * 1000-seed classifier fuzz (nightly ASan/UBSan lane, labelled slow).
 *
 * Each seed draws a random-but-valid band configuration and a batch of
 * random dips, then checks the classifier's invariants: every derived
 * field finite, the level always the analytic duration band, kind
 * consistent with the refresh boundary, confidence inside [0, 1] and
 * zero only on a boundary or a rejected event.  A slice of the seeds
 * runs hostile configs (NaN, infinities, denormals) that must take the
 * zeroed reject path, and another slice runs whole random signals
 * through the per-sample streaming oracle and the parallel analyzer,
 * which must agree on every label bit for bit.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "streaming_oracle.hpp"

namespace emprof::profiler {
namespace {

constexpr int kSeeds = 1000;

ServiceLevel
expectedLevel(double duration_ns, const EmProfConfig &cfg)
{
    const double dram_min = cfg.prefetchMaskedMaxNs > 0.0
                                ? cfg.prefetchMaskedMaxNs
                                : cfg.llcHitMaxNs;
    if (duration_ns >= cfg.refreshStallNs)
        return ServiceLevel::DramRefresh;
    if (duration_ns >= dram_min)
        return ServiceLevel::Dram;
    if (duration_ns >= cfg.llcHitMaxNs)
        return ServiceLevel::PrefetchMasked;
    return ServiceLevel::LlcHit;
}

/** Random config that must pass validate(): bands drawn in order. */
EmProfConfig
randomConfig(dsp::Rng &rng)
{
    EmProfConfig cfg;
    cfg.sampleRateHz = 1e6 + rng.uniform() * 999e6;
    cfg.clockHz = 1e8 + rng.uniform() * 1.9e9;
    cfg.llcHitMaxNs = rng.uniform() * 400.0;
    cfg.refreshStallNs =
        cfg.llcHitMaxNs + rng.uniform() * 4000.0;
    // Half the configs disable the prefetch band.
    cfg.prefetchMaskedMaxNs =
        rng.uniform() < 0.5
            ? 0.0
            : cfg.llcHitMaxNs +
                  rng.uniform() *
                      (cfg.refreshStallNs - cfg.llcHitMaxNs);
    return cfg;
}

uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

} // namespace

TEST(ClassifierFuzz, BandInvariantsHoldForRandomConfigsAndDips)
{
    for (int seed = 0; seed < kSeeds; ++seed) {
        dsp::Rng rng(0xC1A5'5000 + static_cast<uint64_t>(seed));
        const EmProfConfig cfg = randomConfig(rng);
        std::string why;
        ASSERT_TRUE(cfg.validate(&why)) << "seed " << seed << ": " << why;

        for (int i = 0; i < 64; ++i) {
            StallEvent ev;
            ev.startSample = rng.below(1u << 30);
            ev.endSample =
                ev.startSample + rng.below(1'000'000);
            classifyStall(ev, cfg);

            ASSERT_TRUE(std::isfinite(ev.durationNs))
                << "seed " << seed;
            ASSERT_TRUE(std::isfinite(ev.stallCycles))
                << "seed " << seed;
            ASSERT_GE(ev.levelConfidence, 0.0) << "seed " << seed;
            ASSERT_LE(ev.levelConfidence, 1.0) << "seed " << seed;
            ASSERT_EQ(ev.level, expectedLevel(ev.durationNs, cfg))
                << "seed " << seed << " duration " << ev.durationNs;
            ASSERT_EQ(ev.kind,
                      ev.durationNs >= cfg.refreshStallNs
                          ? StallKind::RefreshCoincident
                          : StallKind::LlcMiss)
                << "seed " << seed;
            // DramRefresh if and only if refresh-coincident: the level
            // taxonomy refines the legacy kind split, never contradicts
            // it.
            ASSERT_EQ(ev.level == ServiceLevel::DramRefresh,
                      ev.kind == StallKind::RefreshCoincident)
                << "seed " << seed;
        }
    }
}

TEST(ClassifierFuzz, HostileConfigsAlwaysTakeTheZeroedRejectPath)
{
    const double hostile[] = {
        0.0,
        -1.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
    };
    for (int seed = 0; seed < kSeeds; ++seed) {
        dsp::Rng rng(0xBAD'F00D + static_cast<uint64_t>(seed));
        EmProfConfig cfg = randomConfig(rng);
        const std::size_t n = sizeof(hostile) / sizeof(hostile[0]);
        cfg.sampleRateHz = hostile[rng.below(n)];
        if (rng.uniform() < 0.5)
            cfg.clockHz = hostile[rng.below(n)];

        StallEvent ev;
        ev.startSample = rng.below(1u << 20);
        ev.endSample = ev.startSample + rng.below(1u << 24);
        classifyStall(ev, cfg);

        // Either the classification succeeded with finite fields (a
        // hostile value can still be usable, e.g. max sample rate) or
        // the event came back fully zeroed — never NaN/Inf leakage.
        if (ev.levelConfidence == 0.0 && ev.durationNs == 0.0) {
            ASSERT_EQ(ev.stallCycles, 0.0) << "seed " << seed;
            ASSERT_EQ(ev.level, ServiceLevel::LlcHit)
                << "seed " << seed;
        } else {
            ASSERT_TRUE(std::isfinite(ev.durationNs))
                << "seed " << seed;
            ASSERT_TRUE(std::isfinite(ev.stallCycles))
                << "seed " << seed;
        }
    }
}

TEST(ClassifierFuzz, StreamingAndParallelAgreeOnEveryLabelBit)
{
    // Whole-pipeline slice: random dip trains, both batch paths.  100
    // signals keeps the nightly lane inside its budget.
    for (int seed = 0; seed < kSeeds / 10; ++seed) {
        dsp::Rng rng(0x5160'4211 + static_cast<uint64_t>(seed));

        EmProfConfig cfg;
        cfg.clockHz = 1e9;
        cfg.sampleRateHz = 40e6;
        cfg.normWindowSeconds = 40e-6;
        cfg.minStallNs = 40.0;
        cfg.minDurationFloorSamples = 2;
        cfg.llcHitMaxNs = 50.0 + rng.uniform() * 100.0;
        cfg.refreshStallNs = 800.0 + rng.uniform() * 1000.0;
        cfg.prefetchMaskedMaxNs =
            rng.uniform() < 0.5
                ? 0.0
                : cfg.llcHitMaxNs +
                      rng.uniform() *
                          (cfg.refreshStallNs - cfg.llcHitMaxNs);

        dsp::TimeSeries sig;
        sig.sampleRateHz = cfg.sampleRateHz;
        sig.samples.assign(16'384, 1.0f);
        for (auto &x : sig.samples)
            x += static_cast<float>(0.04 * (rng.uniform() - 0.5));
        std::size_t pos = 500;
        while (pos + 200 < sig.samples.size()) {
            const std::size_t len = 2 + rng.below(120);
            for (std::size_t i = pos; i < pos + len; ++i)
                sig.samples[i] = 0.2f;
            pos += len + 60 + rng.below(400);
        }

        const auto streaming = oracle::StreamingOracle::analyze(sig, cfg);
        ParallelAnalyzerConfig pcfg;
        pcfg.threads = 3;
        const auto parallel = analyzeParallel(sig, cfg, pcfg);

        ASSERT_EQ(streaming.events.size(), parallel.events.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < streaming.events.size(); ++i) {
            const auto &a = streaming.events[i];
            const auto &b = parallel.events[i];
            ASSERT_EQ(a.level, b.level) << "seed " << seed;
            ASSERT_EQ(bits(a.levelConfidence),
                      bits(b.levelConfidence))
                << "seed " << seed;
            ASSERT_EQ(bits(a.durationNs), bits(b.durationNs))
                << "seed " << seed;
            ASSERT_EQ(a.level, expectedLevel(a.durationNs, cfg))
                << "seed " << seed;
        }
    }
}

} // namespace emprof::profiler
