/**
 * @file
 * Fig. 4 — LLC hit and miss in the physical (synthesised EM)
 * side-channel signal of the Olimex board: the same contrast as
 * Fig. 2, but through the full probe/receiver chain at 40 MHz.
 */

#include <cstdio>

#include "common.hpp"
#include "em/capture.hpp"
#include "profiler/marker.hpp"
#include "workloads/common.hpp"

using namespace emprof;

namespace {

class LoadKernel : public workloads::SegmentedWorkload
{
  public:
    LoadKernel(uint64_t footprint_bytes, uint64_t seed)
    {
        auto addrs = std::make_shared<workloads::RandomAddresses>(
            0x4000'0000, footprint_bytes, seed);
        addSegment(600, [addrs](auto &out, uint64_t) {
            workloads::Addr pc =
                workloads::emitCompute(out, 0x1000, 80, 0);
            pc = workloads::emitDependentLoad(out, pc, addrs->next(), 0);
            workloads::emitLoopBranch(out, pc, 0);
        });
    }
};

void
show(const char *title, uint64_t footprint)
{
    auto device = devices::makeOlimex();
    device.sim.memory.refreshEnabled = false;
    LoadKernel kernel(footprint, 0x5EED);
    sim::Simulator simulator(device.sim);
    const auto cap = em::captureRun(simulator, kernel, device.probe);

    std::printf("\n%s\n", title);
    // Skip the first half: the small-footprint case takes compulsory
    // misses while its array warms, and the figure is about the
    // steady state.
    const auto steady = profiler::slice(
        cap.magnitude,
        {cap.magnitude.samples.size() / 2, cap.magnitude.samples.size()});
    bench::asciiWave(steady, 0, std::min<std::size_t>(400, steady.size()),
                     9, 96, true);

    const auto result =
        profiler::EmProf::analyze(steady, bench::profilerFor(device));
    std::printf("  EMPROF events: %llu, avg stall %.0f ns\n",
                static_cast<unsigned long long>(
                    result.report.totalEvents),
                result.report.avgStallCycles / device.clockHz() * 1e9);
}

} // namespace

int
main()
{
    bench::printHeader(
        "Fig. 4: LLC hit vs miss in the received EM signal (Olimex)",
        "(40 MHz measurement bandwidth around the clock)");

    show("(a) L1D miss / LLC hit — stalls too brief for the duration "
         "threshold:",
         4 * 1024);
    show("(b) LLC miss — ~200-300 ns dips, one per miss:",
         8 * 1024 * 1024);

    std::printf("\n  paper: stalls produced by most LLC misses last "
                "~300 ns on this board\n");
    return 0;
}
