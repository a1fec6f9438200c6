/**
 * @file
 * Shared workload-construction machinery: a segment-based trace
 * generator, address-stream helpers, and op-emission utilities.
 *
 * Workloads are sequences of segments; each segment runs a body
 * callback for a given number of iterations, appending the ops of one
 * iteration per call.  This keeps memory O(one iteration) regardless
 * of trace length.
 */

#ifndef EMPROF_WORKLOADS_COMMON_HPP
#define EMPROF_WORKLOADS_COMMON_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "dsp/rng.hpp"
#include "sim/isa.hpp"
#include "sim/trace.hpp"

namespace emprof::workloads {

using sim::Addr;
using sim::MicroOp;

/**
 * Trace source built from segments.
 */
class SegmentedWorkload : public sim::ChunkedTraceSource
{
  public:
    /** Appends one iteration's ops; `iter` counts from 0. */
    using BodyFn = std::function<void(std::vector<MicroOp> &, uint64_t)>;

    /**
     * Append a segment.
     *
     * @param iterations Number of body invocations.
     * @param body Iteration generator.
     */
    void
    addSegment(uint64_t iterations, BodyFn body)
    {
        segments_.push_back({iterations, std::move(body)});
    }

  protected:
    void
    refill(std::vector<MicroOp> &out) override
    {
        // Batch iterations so the per-chunk virtual-call overhead is
        // amortised, but stay bounded.
        while (out.size() < 512 && current_ < segments_.size()) {
            auto &segment = segments_[current_];
            if (iter_ >= segment.iterations) {
                ++current_;
                iter_ = 0;
                continue;
            }
            segment.body(out, iter_++);
        }
    }

  private:
    struct Segment
    {
        uint64_t iterations;
        BodyFn body;
    };

    std::vector<Segment> segments_;
    std::size_t current_ = 0;
    uint64_t iter_ = 0;
};

/** Sequential line-granular address stream over a footprint. */
class StreamAddresses
{
  public:
    StreamAddresses(Addr base, uint64_t footprint_bytes,
                    uint32_t line_bytes = 64)
        : base_(base), footprint_(footprint_bytes), line_(line_bytes)
    {}

    Addr
    next()
    {
        const Addr a = base_ + offset_;
        offset_ += line_;
        if (offset_ >= footprint_)
            offset_ = 0;
        return a;
    }

  private:
    Addr base_;
    uint64_t footprint_;
    uint32_t line_;
    uint64_t offset_ = 0;
};

/** Uniform-random line-granular address stream over a footprint. */
class RandomAddresses
{
  public:
    RandomAddresses(Addr base, uint64_t footprint_bytes, uint64_t seed,
                    uint32_t line_bytes = 64)
        : base_(base),
          lines_(footprint_bytes / line_bytes),
          line_(line_bytes),
          rng_(seed)
    {}

    Addr next() { return base_ + rng_.below(lines_) * line_; }

  private:
    Addr base_;
    uint64_t lines_;
    uint32_t line_;
    dsp::Rng rng_;
};

/**
 * Emit a run of compute ops with a mix of ALU/MUL/FP and sequential
 * PCs (4 bytes apart), returning the PC after the run.
 *
 * @param out Destination.
 * @param pc Starting PC.
 * @param count Number of ops.
 * @param phase Phase tag.
 * @param mul_every Insert an IntMul every N ops (0 = never).
 * @param fp_every Insert an FpAlu every N ops (0 = never).
 */
Addr emitCompute(std::vector<MicroOp> &out, Addr pc, uint32_t count,
                 uint8_t phase, uint32_t mul_every = 0,
                 uint32_t fp_every = 0);

/**
 * Emit a taken backward branch closing a loop body.
 */
void emitLoopBranch(std::vector<MicroOp> &out, Addr pc, uint8_t phase);

/**
 * Emit a load followed by a dependent consumer ALU op (the standard
 * "use the loaded value" idiom that makes an in-order core stall on
 * the miss).
 */
Addr emitDependentLoad(std::vector<MicroOp> &out, Addr pc, Addr mem_addr,
                       uint8_t phase);

/**
 * Emit a load whose result is not consumed promptly (streaming /
 * MLP-friendly access).
 */
Addr emitIndependentLoad(std::vector<MicroOp> &out, Addr pc, Addr mem_addr,
                         uint8_t phase);

} // namespace emprof::workloads

#endif // EMPROF_WORKLOADS_COMMON_HPP
