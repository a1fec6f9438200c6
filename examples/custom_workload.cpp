/**
 * @file
 * Profiling your own workload.
 *
 * Workloads are dynamic micro-op streams; the easiest way to build one
 * is SegmentedWorkload: add segments, each with an iteration count and
 * a callback that appends one iteration's ops.  This example builds a
 * toy "image blur" — stream the input row, random-access a lookup
 * table, write the output — and shows how its memory behaviour looks
 * to EMPROF, including how ground truth from the simulator can be used
 * to sanity-check what the profiler reports.
 */

#include <cstdio>
#include <memory>

#include "devices/devices.hpp"
#include "em/capture.hpp"
#include "profiler/profiler.hpp"
#include "workloads/common.hpp"

using namespace emprof;

namespace {

/** A toy image-processing kernel. */
class BlurWorkload : public workloads::SegmentedWorkload
{
  public:
    BlurWorkload()
    {
        // 2 MiB input image, streamed; a small weight table with high
        // reuse; output stores.
        auto input = std::make_shared<workloads::StreamAddresses>(
            0x4000'0000, 2 * 1024 * 1024);
        auto weights = std::make_shared<workloads::RandomAddresses>(
            0x5000'0000, 2 * 1024, /*seed=*/7);
        auto output = std::make_shared<workloads::StreamAddresses>(
            0x6000'0000, 2 * 1024 * 1024);

        addSegment(40'000, [=](auto &out, uint64_t) {
            workloads::Addr pc = 0x1000;
            // Load a pixel neighbourhood (sequential: prefetchable on
            // cores that have a prefetcher, cold misses otherwise).
            pc = workloads::emitIndependentLoad(out, pc, input->next(), 0);
            // Weight lookups hit the cache.
            pc = workloads::emitDependentLoad(out, pc, weights->next(), 0);
            // The convolution itself.
            pc = workloads::emitCompute(out, pc, 60, 0, /*mul_every=*/4);
            // Store the result (retires via the store buffer).
            workloads::MicroOp store = sim::makeStore(pc, output->next());
            out.push_back(store);
            workloads::emitLoopBranch(out, pc + 4, 0);
        });
    }
};

} // namespace

int
main()
{
    const auto device = devices::makeOlimex();

    BlurWorkload workload;
    sim::Simulator simulator(device.sim);
    const auto capture = em::captureRun(simulator, workload, device.probe);

    profiler::EmProfConfig config;
    config.clockHz = device.clockHz();
    const auto result =
        profiler::EmProf::analyze(capture.magnitude, config);

    std::printf("%s",
                result.report.toText("EMPROF profile of BlurWorkload:")
                    .c_str());

    // Because this is a simulation, we can check EMPROF against the
    // ground truth — something you cannot do on a real device, which
    // is exactly why the simulator substrate exists (Sec. V-C).
    const auto &gt = simulator.groundTruth();
    std::printf("\nsimulator ground truth: %llu raw LLC misses, "
                "%zu stall intervals, %llu stall cycles\n",
                static_cast<unsigned long long>(gt.rawLlcMisses()),
                gt.stallIntervals().size(),
                static_cast<unsigned long long>(gt.missStallCycles()));
    std::printf("(raw misses exceed stall intervals when streaming "
                "misses overlap — Fig. 3)\n");
    return 0;
}
