/**
 * @file
 * Ground-truth recorder: exactly what the paper's enhanced SESC emits
 * (Sec. V-C) — when each LLC miss is detected, and where each resulting
 * full-stall interval begins and ends.
 *
 * Two counts matter and they are deliberately different:
 *  - rawLlcMisses(): every demand LLC miss, including misses whose
 *    latency is fully hidden and misses that overlap other misses.
 *    This is what a hardware LLC-miss counter counts.
 *  - stallIntervals(): maximal runs of fully-stalled cycles during
 *    which at least one LLC miss is outstanding.  Overlapped misses
 *    coalesce into one interval (Fig. 3b); fully-hidden misses produce
 *    none (Fig. 3a).  This is the event EMPROF can and should see, and
 *    Table III "miss accuracy" compares against it.
 */

#ifndef EMPROF_SIM_GROUND_TRUTH_HPP
#define EMPROF_SIM_GROUND_TRUTH_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace emprof::sim {

/** Maximum number of workload phases tracked. */
inline constexpr std::size_t kMaxPhases = 16;

/**
 * Memory service level of a stall interval — the simulator-side twin
 * of profiler::ServiceLevel, kept separate so the sim library never
 * depends on the profiler (src/validate/ maps between the two).
 */
enum class StallLevel : uint8_t
{
    LlcHit,         ///< waiting on an LLC hit (dependent-load chain)
    PrefetchMasked, ///< residual latency of an in-flight prefetch
    Dram,           ///< ordinary DRAM demand miss
    DramRefresh,    ///< DRAM fill lengthened by a refresh window
};

/** Number of stall levels (confusion-matrix dimension). */
inline constexpr std::size_t kStallLevelCount = 4;

/**
 * How the misses behind one stalled cycle were served; the core model
 * fills this from AccessOutcome fields (DESIGN.md §16).  The default
 * matches the legacy 4-argument onMissStallCycle call: a plain demand
 * miss.
 */
struct StallLevelFlags
{
    /** A demand miss (or demand-class prefetch residual) outstanding. */
    bool demandMiss = true;

    /** An in-flight-prefetch residual outstanding (masked latency). */
    bool prefetchMasked = false;

    /** An outstanding fill queued behind refresh for at least the
     *  configured labeling threshold. */
    bool refreshLengthened = false;
};

/** One maximal LLC-miss-induced full-stall interval. */
struct StallInterval
{
    /** First fully-stalled cycle. */
    Cycle begin = 0;

    /** Last fully-stalled cycle (inclusive). */
    Cycle end = 0;

    /** Maximum number of LLC misses outstanding during the interval. */
    uint32_t overlappedMisses = 1;

    /** The interval was lengthened by a DRAM refresh window. */
    bool refreshAffected = false;

    /** Workload phase the interval occurred in. */
    uint8_t phase = 0;

    /** Union of per-cycle service flags over the interval. */
    StallLevelFlags flags;

    Cycle durationCycles() const { return end - begin + 1; }

    /**
     * Service level of the interval: the slowest class that
     * contributed, since it dominates the measured duration.
     */
    StallLevel
    level() const
    {
        if (flags.refreshLengthened)
            return StallLevel::DramRefresh;
        if (flags.demandMiss)
            return StallLevel::Dram;
        if (flags.prefetchMasked)
            return StallLevel::PrefetchMasked;
        return StallLevel::LlcHit;
    }
};

/** One raw LLC miss (recorded only in detailed mode). */
struct RawMissEvent
{
    /** Cycle the miss was detected at the LLC. */
    Cycle detect = 0;

    /** Instruction-side (I$ path) rather than data-side miss. */
    bool fetchSide = false;

    /** The fill waited on a DRAM refresh window. */
    bool refreshDelayed = false;
};

/** Per-phase aggregate counters (for Table V ground truth). */
struct PhaseCounters
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t llcMisses = 0;
    uint64_t missStallCycles = 0;
};

/**
 * Collects miss and stall ground truth during a simulation.
 */
class GroundTruth
{
  public:
    /**
     * @param detailed Keep the per-event raw miss list (memory heavy on
     *        long runs; aggregate counters are always kept).
     */
    explicit GroundTruth(bool detailed = false) : detailed_(detailed) {}

    /** Record a demand LLC miss. */
    void
    onLlcMiss(Cycle detect, bool fetch_side, bool refresh_delayed,
              uint8_t phase)
    {
        ++rawLlcMisses_;
        phaseOf(phase).llcMisses += 1;
        if (refresh_delayed)
            ++refreshDelayedMisses_;
        if (detailed_)
            rawEvents_.push_back({detect, fetch_side, refresh_delayed});
    }

    /**
     * Record one fully-stalled cycle attributable to LLC misses.
     *
     * @param cycle The stalled cycle.
     * @param outstanding Number of LLC misses outstanding.
     * @param refresh_affected Any outstanding fill is refresh-delayed.
     * @param phase Current workload phase.
     * @param flags How the outstanding fills are being served; the
     *        default (plain demand miss) keeps legacy callers'
     *        intervals labeled StallLevel::Dram.
     */
    void
    onMissStallCycle(Cycle cycle, uint32_t outstanding,
                     bool refresh_affected, uint8_t phase,
                     StallLevelFlags flags = {})
    {
        ++missStallCycles_;
        phaseOf(phase).missStallCycles += 1;
        if (open_ && cycle == current_.end + 1) {
            current_.end = cycle;
            current_.overlappedMisses =
                std::max(current_.overlappedMisses, outstanding);
            current_.refreshAffected |= refresh_affected;
            current_.flags.demandMiss |= flags.demandMiss;
            current_.flags.prefetchMasked |= flags.prefetchMasked;
            current_.flags.refreshLengthened |= flags.refreshLengthened;
        } else {
            closeInterval();
            current_ = {cycle, cycle, std::max(outstanding, 1u),
                        refresh_affected, phase, flags};
            open_ = true;
        }
    }

    /**
     * Record a fully-stalled cycle spent waiting on an LLC *hit* (a
     * dependent-load chain bottoming out in the LLC).  Builds a
     * separate interval list so stallIntervals() — the paper's miss
     * ground truth — is unchanged; also counted in otherStallCycles()
     * exactly as before this level existed.
     */
    void
    onHitStallCycle(Cycle cycle, uint8_t phase)
    {
        ++otherStallCycles_;
        if (hitOpen_ && cycle == currentHit_.end + 1) {
            currentHit_.end = cycle;
        } else {
            closeHitInterval();
            currentHit_ = {cycle, cycle, 0, false, phase,
                           {false, false, false}};
            hitOpen_ = true;
        }
    }

    /** Record a fully-stalled cycle with no LLC miss outstanding. */
    void onOtherStallCycle() { ++otherStallCycles_; }

    /** Per-cycle phase accounting. */
    void onCycle(uint8_t phase) { phaseOf(phase).cycles += 1; }

    /** Per-retired-op accounting. */
    void onInstruction(uint8_t phase) { phaseOf(phase).instructions += 1; }

    /** Close any open interval; call when the simulation ends. */
    void
    finalize()
    {
        closeInterval();
        closeHitInterval();
    }

    /** Every demand LLC miss (the hardware-counter view). */
    uint64_t rawLlcMisses() const { return rawLlcMisses_; }

    /** Misses whose fills waited on refresh. */
    uint64_t refreshDelayedMisses() const { return refreshDelayedMisses_; }

    /** Total fully-stalled cycles attributed to LLC misses. */
    uint64_t missStallCycles() const { return missStallCycles_; }

    /** Fully-stalled cycles with no miss outstanding. */
    uint64_t otherStallCycles() const { return otherStallCycles_; }

    /** Coalesced stall intervals (EMPROF's ground truth). */
    const std::vector<StallInterval> &
    stallIntervals() const
    {
        return intervals_;
    }

    /**
     * All stall intervals — miss-induced and LLC-hit waits — merged
     * into one begin-sorted list, adjacent-or-overlapping neighbours
     * coalesced (gap <= @p max_gap), keeping results of at least
     * @p min_cycles.  A merged interval takes the level of whichever
     * source contributed the most cycles, except that a slower class
     * always outranks LlcHit — this is the per-event ground truth the
     * classifier is scored against (DESIGN.md §16).
     */
    std::vector<StallInterval>
    labeledIntervals(Cycle max_gap = 0, Cycle min_cycles = 1) const;

    /**
     * Number of stall intervals at least @p min_cycles long.  EMPROF
     * cannot see stalls shorter than its duration threshold, so
     * accuracy comparisons use the same floor on both sides.
     */
    uint64_t countIntervalsAtLeast(Cycle min_cycles) const;

    /** Total stalled cycles in intervals at least @p min_cycles long. */
    uint64_t stallCyclesInIntervalsAtLeast(Cycle min_cycles) const;

    /**
     * Interval count after merging neighbours separated by less than
     * @p max_gap cycles, keeping merged intervals of at least
     * @p min_cycles.  A signal-based detector cannot resolve two
     * stalls whose separation is below its duration threshold, so
     * accuracy comparisons use the same resolution on the ground
     * truth (the paper folds "several highly-overlapped LLC misses"
     * into one MISS for the same reason, Sec. II-B).
     */
    uint64_t countCoalescedIntervals(Cycle max_gap, Cycle min_cycles) const;

    /** Raw per-miss events (detailed mode only). */
    const std::vector<RawMissEvent> &rawEvents() const { return rawEvents_; }

    /** Per-phase counters. */
    const std::array<PhaseCounters, kMaxPhases> &
    phases() const
    {
        return phases_;
    }

  private:
    PhaseCounters &
    phaseOf(uint8_t phase)
    {
        return phases_[phase < kMaxPhases ? phase : kMaxPhases - 1];
    }

    void
    closeInterval()
    {
        if (open_) {
            intervals_.push_back(current_);
            open_ = false;
        }
    }

    void
    closeHitInterval()
    {
        if (hitOpen_) {
            hitIntervals_.push_back(currentHit_);
            hitOpen_ = false;
        }
    }

    bool detailed_;
    uint64_t rawLlcMisses_ = 0;
    uint64_t refreshDelayedMisses_ = 0;
    uint64_t missStallCycles_ = 0;
    uint64_t otherStallCycles_ = 0;
    std::vector<StallInterval> intervals_;
    std::vector<StallInterval> hitIntervals_;
    std::vector<RawMissEvent> rawEvents_;
    std::array<PhaseCounters, kMaxPhases> phases_{};
    StallInterval current_{};
    StallInterval currentHit_{};
    bool open_ = false;
    bool hitOpen_ = false;
};

} // namespace emprof::sim

#endif // EMPROF_SIM_GROUND_TRUTH_HPP
