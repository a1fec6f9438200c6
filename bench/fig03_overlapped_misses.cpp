/**
 * @file
 * Fig. 3 — LLC misses that produce no individually attributable
 * stalls: (a) misses fully hidden under useful work, (b) overlapping
 * misses that coalesce into one stall.
 *
 * The bench engineers both situations and reports the simulator's raw
 * miss count against its stall-interval count, plus what EMPROF sees —
 * demonstrating the paper's point that stall-based reporting
 * undercounts miss *events* but still tracks their performance impact.
 */

#include <cstdio>

#include "common.hpp"
#include "profiler/profiler.hpp"
#include "sim/simulator.hpp"
#include "workloads/common.hpp"

using namespace emprof;

namespace {

/** (a) Independent misses fully hidden under long compute runs. */
class HiddenMissKernel : public workloads::SegmentedWorkload
{
  public:
    HiddenMissKernel()
    {
        auto addrs = std::make_shared<workloads::StreamAddresses>(
            0x4000'0000, 64 * 1024 * 1024);
        addSegment(300, [addrs](auto &out, uint64_t) {
            // The load's value is never consumed and plenty of work
            // follows, so the miss drains while the core stays busy.
            workloads::Addr pc = workloads::emitIndependentLoad(
                out, 0x1000, addrs->next(), 0);
            pc = workloads::emitCompute(out, pc, 700, 0);
            workloads::emitLoopBranch(out, pc, 0);
        });
    }
};

/** (b) Bursts of back-to-back misses that overlap and coalesce. */
class OverlapKernel : public workloads::SegmentedWorkload
{
  public:
    OverlapKernel()
    {
        auto addrs = std::make_shared<workloads::StreamAddresses>(
            0x5000'0000, 64 * 1024 * 1024);
        addSegment(300, [addrs](auto &out, uint64_t) {
            workloads::Addr pc = 0x1000;
            // Four misses in a tight burst: MLP overlaps them, and the
            // resulting stall is one merged interval.
            for (int i = 0; i < 4; ++i)
                pc = workloads::emitIndependentLoad(out, pc,
                                                    addrs->next(), 0);
            workloads::MicroOp use = sim::makeAlu(pc, /*dep=*/1);
            out.push_back(use);
            pc = workloads::emitCompute(out, pc + 4, 500, 0);
            workloads::emitLoopBranch(out, pc, 0);
        });
    }
};

void
report(const char *title, sim::TraceSource &trace)
{
    auto device = devices::makeOlimex();
    auto cfg = device.sim;
    cfg.memory.refreshEnabled = false;
    sim::Simulator simulator(cfg);
    dsp::TimeSeries power;
    simulator.runWithPowerTrace(trace, power);
    const auto &gt = simulator.groundTruth();

    auto prof_cfg = bench::profilerFor(device, power.sampleRateHz);
    const auto result = profiler::EmProf::analyze(power, prof_cfg);

    std::printf("\n%s\n", title);
    std::printf("  raw LLC misses (hardware-counter view): %llu\n",
                static_cast<unsigned long long>(gt.rawLlcMisses()));
    std::printf("  stall intervals (ground truth):          %zu\n",
                gt.stallIntervals().size());
    std::printf("  EMPROF events:                           %llu\n",
                static_cast<unsigned long long>(
                    result.report.totalEvents));
    std::printf("  miss-stall cycles GT / EMPROF:           %llu / %.0f\n",
                static_cast<unsigned long long>(gt.missStallCycles()),
                result.report.totalStallCycles);
}

} // namespace

int
main()
{
    bench::printHeader(
        "Fig. 3: misses with no individually attributable stalls");

    HiddenMissKernel hidden;
    report("(a) fully-hidden misses: many misses, almost no stalls --\n"
           "    a stall-based detector *should* report ~0 here, and the\n"
           "    performance impact is indeed ~0:",
           hidden);

    OverlapKernel overlap;
    report("(b) overlapped misses (4 per burst): raw count is 4x the\n"
           "    interval count, but the stall time EMPROF reports still\n"
           "    tracks the true performance impact:",
           overlap);
    return 0;
}
