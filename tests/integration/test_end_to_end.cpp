/**
 * @file
 * Integration tests: the complete paper pipeline, end to end.
 *
 * These mirror the paper's validation methodology: known-miss-count
 * microbenchmarks through the full EM chain (Table II), simulator
 * power traces against ground truth (Table III), refresh
 * classification (Fig. 5), bandwidth effects (Fig. 12) and boot
 * profiling (Fig. 13).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "devices/devices.hpp"
#include "em/capture.hpp"
#include "profiler/boot_profile.hpp"
#include "profiler/marker.hpp"
#include "profiler/profiler.hpp"
#include "sim/simulator.hpp"
#include "workloads/boot.hpp"
#include "workloads/microbenchmark.hpp"
#include "workloads/spec.hpp"

namespace emprof {
namespace {

profiler::EmProfConfig
profilerFor(const devices::DeviceModel &device)
{
    profiler::EmProfConfig cfg;
    cfg.clockHz = device.clockHz();
    return cfg;
}

TEST(EndToEnd, MicrobenchmarkCountWithinOnePercentOnOlimex)
{
    workloads::MicrobenchmarkConfig mb_cfg;
    mb_cfg.totalMisses = 1024;
    mb_cfg.consecutiveMisses = 10;
    workloads::Microbenchmark mb(mb_cfg);

    auto device = devices::makeOlimex();
    sim::Simulator simulator(device.sim);
    const auto cap = em::captureRun(simulator, mb, device.probe);

    const auto sections = profiler::findMarkerSections(cap.magnitude);
    ASSERT_GE(sections.markers.size(), 2u);
    const auto section = profiler::slice(cap.magnitude, sections.measured);
    const auto result =
        profiler::EmProf::analyze(section, profilerFor(device));

    const double accuracy =
        100.0 * (1.0 - std::abs(static_cast<double>(
                           result.report.totalEvents) -
                       1024.0) /
                           1024.0);
    EXPECT_GE(accuracy, 99.0);
}

TEST(EndToEnd, SimulatorPowerTraceMissAndStallAccuracy)
{
    // Table III methodology: EMPROF on the raw power side channel,
    // compared to simulator ground truth.
    workloads::MicrobenchmarkConfig mb_cfg;
    mb_cfg.totalMisses = 512;
    mb_cfg.consecutiveMisses = 10;
    workloads::Microbenchmark mb(mb_cfg);

    auto device = devices::makeOlimex();
    sim::Simulator simulator(device.sim);
    dsp::TimeSeries power;
    simulator.runWithPowerTrace(mb, power);

    auto cfg = profilerFor(device);
    cfg.sampleRateHz = power.sampleRateHz;
    const auto result = profiler::EmProf::analyze(power, cfg);
    const auto &gt = simulator.groundTruth();

    const auto gt_events = gt.countIntervalsAtLeast(60);
    const double miss_acc =
        100.0 * (1.0 - std::abs(static_cast<double>(
                           result.report.totalEvents) -
                       static_cast<double>(gt_events)) /
                           static_cast<double>(gt_events));
    EXPECT_GE(miss_acc, 97.0);

    const double stall_acc =
        100.0 *
        (1.0 - std::abs(result.report.totalStallCycles -
                        static_cast<double>(gt.missStallCycles())) /
                   static_cast<double>(gt.missStallCycles()));
    EXPECT_GE(stall_acc, 95.0);
}

TEST(EndToEnd, RefreshCoincidentStallsDetectedAtPaperCadence)
{
    // Fig. 5: one ~2-3 us stall at least every ~70 us of miss traffic.
    workloads::MicrobenchmarkConfig mb_cfg;
    mb_cfg.totalMisses = 2048;
    mb_cfg.consecutiveMisses = 16;
    workloads::Microbenchmark mb(mb_cfg);

    auto device = devices::makeOlimex();
    sim::Simulator simulator(device.sim);
    const auto cap = em::captureRun(simulator, mb, device.probe);
    const auto result =
        profiler::EmProf::analyze(cap.magnitude, profilerFor(device));

    const double duration_us =
        static_cast<double>(cap.magnitude.samples.size()) /
        cap.magnitude.sampleRateHz * 1e6;
    const double expected_refreshes = duration_us / 70.0;
    EXPECT_GT(result.report.refreshEvents, 0u);
    EXPECT_NEAR(static_cast<double>(result.report.refreshEvents),
                expected_refreshes, expected_refreshes * 0.7 + 2.0);

    // Refresh-coincident stalls last microseconds, not hundreds of ns.
    for (const auto &ev : result.events) {
        if (ev.kind == profiler::StallKind::RefreshCoincident) {
            EXPECT_GT(ev.durationNs, 1200.0);
        }
    }
}

TEST(EndToEnd, NarrowBandwidthUndercountsOnAlcatel)
{
    // Fig. 12 / Sec. VI-B: at 20 MHz the Alcatel capture misses most
    // stalls; by 60-80 MHz detection stabilises.
    auto device = devices::makeAlcatel();
    auto run_at = [&](double bw) {
        auto wl = workloads::makeSpec("mcf", 1'500'000, 42);
        auto probe = device.probe;
        probe.receiver.bandwidthHz = bw;
        sim::Simulator simulator(device.sim);
        const auto cap = em::captureRun(simulator, *wl, probe);
        return profiler::EmProf::analyze(cap.magnitude,
                                         profilerFor(device));
    };
    const auto narrow = run_at(20e6);
    const auto mid = run_at(80e6);
    EXPECT_LT(narrow.report.totalEvents, mid.report.totalEvents);
    // What narrow bandwidth does find is biased to long stalls.
    EXPECT_GT(narrow.report.avgStallCycles, mid.report.avgStallCycles);
}

TEST(EndToEnd, BootRunsAreConsistentButNotIdentical)
{
    auto device = devices::makeOlimex();
    auto profile_boot = [&](uint64_t seed) {
        workloads::BootConfig boot_cfg;
        boot_cfg.scaleOps = 1'500'000;
        boot_cfg.seed = seed;
        auto boot = workloads::makeBoot(boot_cfg);
        sim::Simulator simulator(device.sim);
        const auto cap = em::captureRun(simulator, *boot, device.probe);
        const auto result =
            profiler::EmProf::analyze(cap.magnitude, profilerFor(device));
        return profiler::makeBootProfile(result.events,
                                         cap.magnitude.sampleRateHz,
                                         cap.magnitude.samples.size(),
                                         100e-6);
    };
    const auto run1 = profile_boot(1);
    const auto run2 = profile_boot(2);
    const double similarity = profiler::bootProfileSimilarity(run1, run2);
    EXPECT_GT(similarity, 0.5);  // same phase structure
    EXPECT_LT(similarity, 0.999); // but distinct runs
}

TEST(EndToEnd, PrefetcherReducesSamsungStreamMisses)
{
    // Sec. VI-A: the Samsung prefetcher hides stream misses that the
    // Olimex takes in full.
    auto run_on = [&](const devices::DeviceModel &device) {
        auto wl = workloads::makeSpec("bzip2", 4'000'000, 7);
        sim::Simulator simulator(device.sim);
        simulator.run(*wl);
        return simulator.groundTruth().rawLlcMisses();
    };
    const auto samsung = run_on(devices::makeSamsung());
    const auto olimex = run_on(devices::makeOlimex());
    EXPECT_LT(3 * samsung, olimex);
}

TEST(EndToEnd, AlcatelLargeLlcCutsCapacityMisses)
{
    // Capacity differentiation needs enough accesses to warm the
    // working set; short runs are compulsory-miss-bound on every LLC.
    auto run_on = [&](const devices::DeviceModel &device) {
        auto wl = workloads::makeSpec("twolf", 20'000'000, 7);
        sim::Simulator simulator(device.sim);
        simulator.run(*wl);
        return simulator.groundTruth().rawLlcMisses();
    };
    const auto alcatel = run_on(devices::makeAlcatel());
    const auto olimex = run_on(devices::makeOlimex());
    EXPECT_LT(5 * alcatel, 4 * olimex);
}

TEST(EndToEnd, StallHistogramHasMainModeNearMemoryLatency)
{
    auto device = devices::makeOlimex();
    auto wl = workloads::makeSpec("mcf", 2'000'000, 11);
    sim::Simulator simulator(device.sim);
    const auto cap = em::captureRun(simulator, *wl, device.probe);
    const auto result =
        profiler::EmProf::analyze(cap.magnitude, profilerFor(device));
    ASSERT_GT(result.report.totalEvents, 100u);
    // Median stall within 2x of the DRAM latency.
    const double latency = device.sim.memory.accessLatency;
    EXPECT_GT(result.report.medianStallCycles, latency / 2);
    EXPECT_LT(result.report.medianStallCycles, latency * 2);
}

} // namespace
} // namespace emprof
