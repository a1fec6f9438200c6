/**
 * @file
 * Unit-activity power model.
 *
 * Mirrors the paper's SESC enhancement (Sec. III-B): each cycle the
 * core reports which units were active, and the model converts that to
 * one power sample.  A fully-stalled cycle draws only static power, so
 * the power trace drops to a low, flat level during LLC-miss stalls —
 * the very feature EMPROF detects.
 */

#ifndef EMPROF_SIM_POWER_HPP
#define EMPROF_SIM_POWER_HPP

#include <cstdint>

#include "dsp/noise.hpp"
#include "sim/config.hpp"
#include "sim/isa.hpp"

namespace emprof::sim {

/** Per-cycle unit activity, filled by the core. */
struct ActivityCounters
{
    uint32_t fetched = 0;
    uint32_t issuedAlu = 0;
    uint32_t issuedMul = 0;
    uint32_t issuedDiv = 0;
    uint32_t issuedFp = 0;
    uint32_t issuedLoad = 0;
    uint32_t issuedStore = 0;
    uint32_t issuedBranch = 0;
    uint32_t l1Accesses = 0;
    uint32_t llcAccesses = 0;

    void reset() { *this = ActivityCounters{}; }
};

/**
 * Converts per-cycle activity into a power sample.
 */
class PowerModel
{
  public:
    explicit PowerModel(const PowerConfig &config);

    /** Power for one cycle of the given activity (arbitrary units). */
    double sample(const ActivityCounters &activity);

    const PowerConfig &config() const { return config_; }

  private:
    PowerConfig config_;
    dsp::AwgnSource background_;
};

} // namespace emprof::sim

#endif // EMPROF_SIM_POWER_HPP
