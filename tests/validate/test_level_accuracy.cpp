/**
 * @file
 * CI-gated service-level accuracy suite (DESIGN.md §16): the simulator
 * runs the microbenchmark grid, the SPEC-like suite (with and without
 * the Samsung-style prefetcher) and the measurement-bandwidth sweep;
 * the classifier's per-event levels are scored against the ground
 * truth and every level that appears in a suite's ground truth must be
 * attributed with >= 90% accuracy.  Each suite's confusion matrix is
 * written next to the test binary as a .json/.txt artifact pair.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "devices/devices.hpp"
#include "em/capture.hpp"
#include "profiler/profiler.hpp"
#include "sim/simulator.hpp"
#include "validate/level_confusion.hpp"
#include "workloads/microbenchmark.hpp"
#include "workloads/spec.hpp"

using namespace emprof;
using namespace emprof::validate;

namespace {

/** Ops per SPEC-like workload: enough for hundreds of stalls per
 *  level while keeping the whole suite in the fast lane. */
constexpr uint64_t kSpecOps = 3'000'000;

/**
 * Dependent-load stream over a cold footprint with a fixed-PC loop
 * body: exactly the pattern a stride prefetcher locks onto.  The
 * compute run between loads sets the line interval and thereby the
 * residual latency the demand access still pays — the knob that places
 * stalls inside the prefetch-masked band.
 */
class StreamWorkload : public workloads::SegmentedWorkload
{
  public:
    StreamWorkload(uint64_t lines, uint32_t work_ops)
    {
        workloads::StreamAddresses stream(0x4000'0000,
                                          64ull * 1024 * 1024);
        addSegment(
            lines,
            [stream, work_ops](std::vector<workloads::MicroOp> &out,
                               uint64_t) mutable {
                // Fixed PCs per iteration — the loop body a stride
                // table can train on.
                workloads::Addr pc = 0x1000;
                pc = workloads::emitDependentLoad(out, pc,
                                                  stream.next(), 0);
                pc = workloads::emitCompute(out, pc, work_ops, 0);
                workloads::emitLoopBranch(out, pc, 0);
            });
    }
};

sim::Cycle
mergeGap(const profiler::EmProfConfig &cfg)
{
    const double cycles_per_sample = cfg.clockHz / cfg.sampleRateHz;
    return std::max<sim::Cycle>(
        2, static_cast<sim::Cycle>(cycles_per_sample));
}

/** Run one workload on the raw power trace and score the classifier. */
ConfusionMatrix
scorePowerTraceRun(const sim::SimConfig &sim_config,
                   sim::TraceSource &trace)
{
    sim::Simulator simulator(sim_config);
    dsp::TimeSeries power;
    simulator.runWithPowerTrace(trace, power);

    auto cfg = levelValidationConfig(sim_config, power.sampleRateHz);
    std::string why;
    EXPECT_TRUE(cfg.validate(&why)) << why;
    const auto result = profiler::EmProf::analyze(power, cfg);

    const auto labels = groundTruthLabels(
        simulator.groundTruth(), sim_config.clockHz,
        power.sampleRateHz, mergeGap(cfg), detectorFloorCycles(cfg));
    return scoreEvents(result.events, labels);
}

/** Run one workload through the EM probe chain at @p bandwidth_hz. */
ConfusionMatrix
scoreCaptureRun(const devices::DeviceModel &device,
                sim::TraceSource &trace, double bandwidth_hz)
{
    auto probe = device.probe;
    probe.receiver.bandwidthHz = bandwidth_hz;
    sim::Simulator simulator(device.sim);
    const auto cap = em::captureRun(simulator, trace, probe);

    auto cfg =
        levelValidationConfig(device.sim, cap.magnitude.sampleRateHz);
    std::string why;
    EXPECT_TRUE(cfg.validate(&why)) << why;
    const auto result = profiler::EmProf::analyze(cap.magnitude, cfg);

    const auto labels = groundTruthLabels(
        simulator.groundTruth(), device.sim.clockHz,
        cap.magnitude.sampleRateHz, mergeGap(cfg),
        detectorFloorCycles(cfg));
    return scoreEvents(result.events, labels);
}

/** Write the .txt/.json artifact pair and log their location. */
void
writeArtifacts(const std::string &name, const ConfusionMatrix &matrix)
{
    for (const char *ext : {"txt", "json"}) {
        const std::string path =
            "level_confusion_" + name + "." + ext;
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << path;
        const std::string body = ext == std::string("json")
                                     ? matrix.toJson(name)
                                     : matrix.toText();
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
    }
    std::printf("[ artifact ] level_confusion_%s.{txt,json}\n%s",
                name.c_str(), matrix.toText().c_str());
}

/** The >= 90% per-level floor, applied to levels with ground truth. */
void
gateAccuracy(const std::string &name, const ConfusionMatrix &matrix)
{
    for (std::size_t l = 0; l < profiler::kServiceLevelCount; ++l) {
        const auto level = static_cast<profiler::ServiceLevel>(l);
        if (matrix.truthTotal(level) == 0)
            continue;
        EXPECT_GE(matrix.accuracy(level), 0.90)
            << name << ": " << profiler::serviceLevelName(level)
            << " attributed below the floor\n"
            << matrix.toText();
    }
    EXPECT_GE(matrix.overallAccuracy(), 0.90) << matrix.toText();
}

} // namespace

TEST(LevelAccuracy, MicrobenchmarkGrid)
{
    const auto device = devices::makeOlimex();
    ConfusionMatrix total;
    const std::pair<uint64_t, uint64_t> points[] = {
        {256, 1}, {256, 5}, {1024, 10}, {4096, 50}};
    for (const auto &[tm, cm] : points) {
        workloads::MicrobenchmarkConfig cfg;
        cfg.totalMisses = tm;
        cfg.consecutiveMisses = cm;
        workloads::Microbenchmark mb(cfg);
        total.add(scorePowerTraceRun(device.sim, mb));
    }
    writeArtifacts("micro", total);
    // The grid is demand misses by construction: DRAM-class truth must
    // dominate and be present in bulk.
    EXPECT_GT(total.truthTotal(profiler::ServiceLevel::Dram), 100u);
    gateAccuracy("micro", total);
}

TEST(LevelAccuracy, SpecSuite)
{
    const auto device = devices::makeOlimex();
    ConfusionMatrix total;
    for (const auto &name : workloads::specNames()) {
        auto wl = workloads::makeSpec(name, kSpecOps, 42);
        // Per-workload matrices are diagnostics: a single workload can
        // legitimately sit below the floor (a demand miss whose latency
        // is mostly overlapped stalls for only a hit-scale tail, which
        // no duration classifier can tell apart).  The floors are gated
        // on the suite aggregate, matching the paper's suite-level
        // accuracy tables.
        total.add(scorePowerTraceRun(device.sim, *wl));
    }
    writeArtifacts("spec", total);
    EXPECT_GT(total.truthTotal(profiler::ServiceLevel::Dram), 200u);
    EXPECT_GT(total.truthTotal(profiler::ServiceLevel::DramRefresh),
              20u);
    gateAccuracy("spec", total);
}

TEST(LevelAccuracy, SpecSuiteWithPrefetcher)
{
    // Samsung-style configuration: the stride prefetcher produces the
    // PrefetchMasked truth class the other suites cannot.
    const auto device = devices::makeSamsung();
    ConfusionMatrix total;
    for (const auto &name : workloads::specNames()) {
        auto wl = workloads::makeSpec(name, kSpecOps, 42);
        total.add(scorePowerTraceRun(device.sim, *wl));
    }
    // SPEC's random/pointer-chasing mixes defeat the stride table by
    // design, so the masked class is rare there; the dependent-load
    // streams below sweep the line interval to spread residual
    // latencies across the prefetch-masked band.
    for (const uint32_t work_ops : {40u, 80u, 120u}) {
        StreamWorkload stream(40'000, work_ops);
        total.add(scorePowerTraceRun(device.sim, stream));
    }
    writeArtifacts("spec_prefetch", total);
    EXPECT_GT(
        total.truthTotal(profiler::ServiceLevel::PrefetchMasked), 20u);
    gateAccuracy("spec_prefetch", total);
}

TEST(LevelAccuracy, BandwidthSweep)
{
    // Through the full EM chain at the Fig. 12 bandwidths that the
    // paper reports as stable.  Narrower captures coarsen the measured
    // durations (25 cycles per sample at 40 MHz) — the classifier must
    // stay above the floor anyway.
    const auto device = devices::makeOlimex();
    ConfusionMatrix total;
    for (const double bw : {40e6, 80e6, 160e6}) {
        auto wl = workloads::makeSpec("mcf", kSpecOps, 42);
        const auto m = scoreCaptureRun(device, *wl, bw);
        char label[32];
        std::snprintf(label, sizeof(label), "bw %.0f MHz", bw / 1e6);
        gateAccuracy(label, m);
        total.add(m);
    }
    writeArtifacts("bandwidth", total);
    EXPECT_GT(total.truthTotal(profiler::ServiceLevel::Dram), 100u);
    gateAccuracy("bandwidth", total);
}
