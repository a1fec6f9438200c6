/**
 * @file
 * The validation microbenchmark of Fig. 6.
 *
 * Generates a known pattern of LLC misses: after touching every page
 * once (so no page faults — here, so the page-walk lines are already
 * cached) and running a tight marker loop, it performs exactly TM
 * loads of distinct, never-revisited cache lines in randomised order
 * (defeating any stride prefetcher), in groups of CM separated by a
 * micro-function call, then runs a closing marker loop.
 *
 * Because every measured-section line is distinct and absent from
 * every cache level, the section produces exactly TM LLC misses —
 * the a-priori-known count EMPROF is validated against (Table II).
 */

#ifndef EMPROF_WORKLOADS_MICROBENCHMARK_HPP
#define EMPROF_WORKLOADS_MICROBENCHMARK_HPP

#include <cstdint>
#include <vector>

#include "workloads/common.hpp"

namespace emprof::workloads {

/** Microbenchmark parameters (TM / CM per the paper). */
struct MicrobenchmarkConfig
{
    /** TM: total LLC misses the measured section produces. */
    uint64_t totalMisses = 1024;

    /** CM: consecutive misses per group. */
    uint64_t consecutiveMisses = 10;

    /** Iterations of each marker (blank) loop. */
    uint64_t blankLoopIterations = 20'000;

    /** Compute ops per marker-loop iteration. */
    uint32_t aluPerBlankIteration = 8;

    /**
     * Busy ops between loads, emulating the rand() + address
     * computation of the pseudocode.  This separation is what makes
     * consecutive misses individually resolvable in the signal
     * (Fig. 7b shows distinct dips within a CM=10 group).
     */
    uint32_t randWorkOps = 110;

    /** Ops in micro_function_call(), the group separator. */
    uint32_t microFnOps = 260;

    uint64_t pageBytes = 4096;
    uint64_t lineBytes = 64;

    /** Shuffle seed for the randomised access order. */
    uint64_t seed = 0x5EEDull;
};

/**
 * The Fig. 6 microbenchmark as a trace source.
 */
class Microbenchmark : public SegmentedWorkload
{
  public:
    /** Workload phases (tagged into every op for ground truth). */
    static constexpr uint8_t kPhaseSetup = 0;      ///< page touch
    static constexpr uint8_t kPhaseMarkerLead = 1; ///< first blank loop
    static constexpr uint8_t kPhaseMemAccess = 2;  ///< measured section
    static constexpr uint8_t kPhaseMarkerTail = 3; ///< last blank loop

    explicit Microbenchmark(const MicrobenchmarkConfig &config);

    /** The engineered LLC miss count of the measured section (== TM). */
    uint64_t expectedMisses() const { return config_.totalMisses; }

  private:
    MicrobenchmarkConfig config_;

    /** Pre-shuffled distinct line addresses for the measured section. */
    std::vector<Addr> addresses_;
};

} // namespace emprof::workloads

#endif // EMPROF_WORKLOADS_MICROBENCHMARK_HPP
