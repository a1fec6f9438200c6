#include "workloads/microbenchmark.hpp"

namespace emprof::workloads {

namespace {

// Code-region bases (distinct I$ footprints per routine).
constexpr Addr kPcPageTouch = 0x6000;
constexpr Addr kPcBlank1 = 0x4000;
constexpr Addr kPcBlank2 = 0x5000;
constexpr Addr kPcRand = 0x2000;
constexpr Addr kPcMain = 0x1000;
constexpr Addr kPcMicroFn = 0x3000;

// Data array base, far from code.
constexpr Addr kArrayBase = 0x1000'0000;

} // namespace

Microbenchmark::Microbenchmark(const MicrobenchmarkConfig &config)
    : config_(config)
{
    // Build the measured section's address list: distinct lines, one
    // access each, randomised order.  Line 0 of each page is reserved
    // for the page-touch phase so the measured lines stay cold.
    const uint64_t lines_per_page =
        config_.pageBytes / config_.lineBytes - 1;
    const uint64_t pages =
        (config_.totalMisses + lines_per_page - 1) / lines_per_page;

    addresses_.reserve(config_.totalMisses);
    for (uint64_t i = 0; i < config_.totalMisses; ++i) {
        const uint64_t page = i / lines_per_page;
        const uint64_t line = 1 + i % lines_per_page;
        addresses_.push_back(kArrayBase + page * config_.pageBytes +
                             line * config_.lineBytes);
    }
    dsp::Rng rng(config_.seed);
    for (uint64_t i = addresses_.size(); i > 1; --i)
        std::swap(addresses_[i - 1], addresses_[rng.below(i)]);

    // --- Phase 0: page touch ------------------------------------------
    addSegment(pages, [this](auto &out, uint64_t p) {
        Addr pc = kPcPageTouch;
        pc = emitDependentLoad(out, pc,
                               kArrayBase + p * config_.pageBytes,
                               kPhaseSetup);
        pc = emitCompute(out, pc, 6, kPhaseSetup);
        emitLoopBranch(out, pc, kPhaseSetup);
    });

    // --- Phase 1: leading blank (marker) loop -------------------------
    addSegment(config_.blankLoopIterations,
               [this](auto &out, uint64_t) {
                   Addr pc = emitCompute(out, kPcBlank1,
                                         config_.aluPerBlankIteration,
                                         kPhaseMarkerLead);
                   emitLoopBranch(out, pc, kPhaseMarkerLead);
               });

    // --- Phase 2: measured memory-access section ----------------------
    addSegment(config_.totalMisses,
               [this](auto &out, uint64_t i) {
                   // rand() + page/line/address computation.
                   Addr pc = emitCompute(out, kPcRand, config_.randWorkOps,
                                         kPhaseMemAccess, /*mul_every=*/9);
                   // The load itself, with its value consumed (sum +=).
                   pc = emitDependentLoad(out, kPcMain, addresses_[i],
                                          kPhaseMemAccess);
                   emitLoopBranch(out, pc, kPhaseMemAccess);

                   // Group separator: micro_function_call().
                   if ((i + 1) % config_.consecutiveMisses == 0 &&
                       i + 1 < config_.totalMisses) {
                       Addr fn_pc = emitCompute(out, kPcMicroFn,
                                                config_.microFnOps,
                                                kPhaseMemAccess,
                                                /*mul_every=*/11);
                       emitLoopBranch(out, fn_pc, kPhaseMemAccess);
                   }
               });

    // --- Phase 3: trailing blank (marker) loop -------------------------
    addSegment(config_.blankLoopIterations,
               [this](auto &out, uint64_t) {
                   Addr pc = emitCompute(out, kPcBlank2,
                                         config_.aluPerBlankIteration,
                                         kPhaseMarkerTail);
                   emitLoopBranch(out, pc, kPhaseMarkerTail);
               });
}

} // namespace emprof::workloads
