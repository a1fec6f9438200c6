#include "sim/ground_truth.hpp"

#include <algorithm>

namespace emprof::sim {

std::vector<StallInterval>
GroundTruth::labeledIntervals(Cycle max_gap, Cycle min_cycles) const
{
    std::vector<StallInterval> all;
    all.reserve(intervals_.size() + hitIntervals_.size());
    all.insert(all.end(), intervals_.begin(), intervals_.end());
    all.insert(all.end(), hitIntervals_.begin(), hitIntervals_.end());
    std::sort(all.begin(), all.end(),
              [](const StallInterval &a, const StallInterval &b) {
                  return a.begin < b.begin;
              });

    std::vector<StallInterval> merged;
    // Cycle contribution per level for the interval being built; the
    // dominant contributor names the merged interval, except that any
    // memory-class cycles outrank LlcHit (the slower service is what
    // the measured duration reflects).
    std::array<uint64_t, kStallLevelCount> cycles{};
    StallInterval acc{};
    bool open = false;

    const auto finish = [&] {
        if (!open)
            return;
        if (acc.durationCycles() >= min_cycles) {
            std::size_t best = static_cast<std::size_t>(StallLevel::LlcHit);
            uint64_t best_cycles = 0;
            for (std::size_t level = 1; level < kStallLevelCount;
                 ++level) {
                if (cycles[level] >= best_cycles && cycles[level] > 0) {
                    best = level;
                    best_cycles = cycles[level];
                }
            }
            acc.flags.demandMiss = false;
            acc.flags.prefetchMasked = false;
            acc.flags.refreshLengthened = false;
            switch (static_cast<StallLevel>(best)) {
            case StallLevel::LlcHit:
                break;
            case StallLevel::PrefetchMasked:
                acc.flags.prefetchMasked = true;
                break;
            case StallLevel::Dram:
                acc.flags.demandMiss = true;
                break;
            case StallLevel::DramRefresh:
                acc.flags.refreshLengthened = true;
                break;
            }
            merged.push_back(acc);
        }
        open = false;
        cycles.fill(0);
    };

    for (const auto &interval : all) {
        if (open && interval.begin <= acc.end + max_gap + 1) {
            acc.end = std::max(acc.end, interval.end);
            acc.overlappedMisses = std::max(acc.overlappedMisses,
                                            interval.overlappedMisses);
            acc.refreshAffected |= interval.refreshAffected;
        } else {
            finish();
            acc = interval;
            open = true;
        }
        cycles[static_cast<std::size_t>(interval.level())] +=
            interval.durationCycles();
    }
    finish();
    return merged;
}

uint64_t
GroundTruth::countIntervalsAtLeast(Cycle min_cycles) const
{
    uint64_t n = 0;
    for (const auto &interval : intervals_) {
        if (interval.durationCycles() >= min_cycles)
            ++n;
    }
    return n;
}

uint64_t
GroundTruth::stallCyclesInIntervalsAtLeast(Cycle min_cycles) const
{
    uint64_t n = 0;
    for (const auto &interval : intervals_) {
        if (interval.durationCycles() >= min_cycles)
            n += interval.durationCycles();
    }
    return n;
}

uint64_t
GroundTruth::countCoalescedIntervals(Cycle max_gap, Cycle min_cycles) const
{
    uint64_t n = 0;
    bool open = false;
    Cycle merged_begin = 0;
    Cycle merged_end = 0;
    for (const auto &interval : intervals_) {
        if (open && interval.begin <= merged_end + max_gap) {
            merged_end = interval.end;
            continue;
        }
        if (open && merged_end - merged_begin + 1 >= min_cycles)
            ++n;
        merged_begin = interval.begin;
        merged_end = interval.end;
        open = true;
    }
    if (open && merged_end - merged_begin + 1 >= min_cycles)
        ++n;
    return n;
}

} // namespace emprof::sim
