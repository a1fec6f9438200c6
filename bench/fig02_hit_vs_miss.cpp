/**
 * @file
 * Fig. 2 — (a) LLC-hit stalls vs. (b) LLC-miss stalls in the
 * simulator's power side-channel signal.
 *
 * Per Sec. III-B: a small load kernel runs twice, once with its array
 * sized to miss L1 but hit the LLC, once sized far beyond the LLC.
 * Both stall the core on use, but the miss stall is an order of
 * magnitude longer.
 */

#include <cstdio>

#include "common.hpp"
#include "dsp/moving_stats.hpp"
#include "sim/simulator.hpp"
#include "workloads/common.hpp"

using namespace emprof;

namespace {

/** Dependent-load kernel over a given footprint. */
class LoadKernel : public workloads::SegmentedWorkload
{
  public:
    LoadKernel(uint64_t footprint_bytes, uint64_t seed)
    {
        auto addrs = std::make_shared<workloads::RandomAddresses>(
            0x4000'0000, footprint_bytes, seed);
        addSegment(400, [addrs](auto &out, uint64_t) {
            workloads::Addr pc =
                workloads::emitCompute(out, 0x1000, 80, 0);
            pc = workloads::emitDependentLoad(out, pc, addrs->next(), 0);
            workloads::emitLoopBranch(out, pc, 0);
        });
    }
};

void
show(const char *title, uint64_t footprint, const sim::SimConfig &cfg)
{
    LoadKernel kernel(footprint, 0x5EED);
    sim::Simulator simulator(cfg);
    dsp::TimeSeries power;
    const auto result = simulator.runWithPowerTrace(kernel, power);

    // Display at the paper's 20-cycle (50 MHz @ 1 GHz) resolution.
    const auto smooth = dsp::movingAverage(power, 20);
    std::printf("\n%s\n", title);
    const std::size_t begin = power.samples.size() / 2;
    bench::asciiWave(smooth, begin,
                     std::min(begin + 4000, power.samples.size()), 9, 96,
                     true);
    const auto &gt = simulator.groundTruth();
    double avg_stall = 0.0;
    for (const auto &iv : gt.stallIntervals())
        avg_stall += static_cast<double>(iv.durationCycles());
    if (!gt.stallIntervals().empty())
        avg_stall /= static_cast<double>(gt.stallIntervals().size());
    std::printf("  LLC misses: %llu, L1D miss rate %.1f%%, "
                "avg miss-stall %.0f cycles, IPC %.2f\n",
                static_cast<unsigned long long>(result.rawLlcMisses),
                100.0 * result.l1dStats.missRate(), avg_stall,
                result.ipc());
}

} // namespace

int
main()
{
    bench::printHeader("Fig. 2: LLC-hit vs LLC-miss stalls (simulator)",
                       "(power trace shown at ~20-cycle resolution)");

    sim::SimConfig cfg = devices::makeOlimex().sim;
    cfg.memory.refreshEnabled = false;

    // (a) misses L1 (1 KiB scaled L1D such that a 4 KiB array spills)
    // but hits the 16 KiB scaled LLC: brief stalls only.
    show("(a) L1D miss / LLC hit — brief shallow stalls:", 4 * 1024,
         cfg);

    // (b) far beyond the LLC: every load reaches DRAM.
    show("(b) LLC miss — order-of-magnitude longer stalls:",
         8 * 1024 * 1024, cfg);
    return 0;
}
