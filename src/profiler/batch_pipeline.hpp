/**
 * @file
 * Per-span analysis: envelope -> normalise -> dip-detect over one span
 * of samples, the unit every analysis path (EmProf::analyze, the
 * parallel analyzer's workers, a served session's SpanWindow) is built
 * from.
 *
 * A span is samples [begin, end) plus a halo of preceding samples that
 * warms the normaliser.  Two implementations produce a ChunkResult:
 *
 *  - analyzeChunkStreaming — the scalar reference: a fresh streaming
 *    normaliser + dip detector fed sample by sample.  EmProf::analyze
 *    runs it over the whole signal as one span; every other path is
 *    defined as "bit-identical to this for finite inputs".
 *  - analyzeChunkBatchAvx2 — the AVX2 kernel (compiled only without
 *    EMPROF_DISABLE_SIMD).  Envelope extrema come from a vectorised
 *    VHGW block scan; most samples are disposed of by a *screen* pass
 *    that proves 8 (classic) / 4 (resilient) samples at a time cannot
 *    be below the dip-entry threshold, with a conservative margin;
 *    samples that survive the screen take an exact path that
 *    reproduces the streaming normalisation arithmetic operation for
 *    operation (double precision, same rounding, no FMA).
 *
 * Parity contract: for finite input samples the two implementations
 * return bit-identical ChunkResults (events, prefix norms, open-dip
 * state, quality blocks).  The screen never skips a sample whose
 * normalised value could be below 1.05x the entry threshold, and
 * skipped samples are exactly the ones the streaming detector treats
 * as no-ops, so even the detector's internal accumulators match.  NaN
 * inputs: sliding extrema of a window containing NaN are
 * fold-order-dependent, so the batch path may diverge from streaming
 * (same caveat as dsp::slidingMinMaxBatch); no capture format produces
 * NaN magnitudes.
 *
 * Memory: both size their envelope tables by min(normalisation window,
 * samples the call sees), so a short input costs what it holds however
 * high the declared sample rate.  A call that sees at most one window
 * of samples is a single envelope block either way, so the sizing does
 * not change any output.
 *
 * analyzeChunkAuto dispatches: AVX2 kernel when compiled in, the CPU
 * has AVX2 and EMPROF_SIMD does not force "scalar"; the streaming
 * reference otherwise.
 */

#ifndef EMPROF_PROFILER_BATCH_PIPELINE_HPP
#define EMPROF_PROFILER_BATCH_PIPELINE_HPP

#include <cstdint>
#include <vector>

#include "dsp/types.hpp"
#include "profiler/dip_detector.hpp"
#include "profiler/profiler.hpp"
#include "profiler/signal_quality.hpp"

namespace emprof::profiler {

/**
 * Everything one chunk contributes to the stitch pass.
 *
 * All sample indices are global (capture-relative).  `prefixNorms`
 * holds the normalised values of the chunk's prefix — the leading run
 * of samples at or below the exit threshold — which is exactly the set
 * of samples that would extend a dip left open by the previous chunk.
 */
struct ChunkResult
{
    uint64_t begin = 0;
    uint64_t end = 0;
    std::vector<double> prefixNorms;
    std::vector<StallEvent> events;  // classified (classifyStall)
    std::vector<SignalBlock> blocks; // quality blocks owned here
    DipDetector::DipState open;      // dip still open at chunk end
};

/** True when analyzeChunkAuto will run the AVX2 batch kernel. */
bool batchPipelineActive();

/**
 * Analyse samples [begin, end) of a span; dispatches to the AVX2
 * batch kernel or the streaming reference (see file comment).
 *
 * @param data Sample storage; data[i - dataBegin] is global sample i.
 *        Must cover at least [begin - halo, end), where the halo is
 *        min(begin, config.haloSamples()).
 * @param is_final True for the last span, which additionally owns the
 *        trailing partial quality block.
 */
ChunkResult analyzeChunkAuto(const dsp::Sample *data, uint64_t dataBegin,
                             uint64_t begin, uint64_t end, bool is_final,
                             const EmProfConfig &config);

namespace detail {

/** The streaming reference implementation (always available). */
ChunkResult analyzeChunkStreaming(const dsp::Sample *data,
                                  uint64_t dataBegin, uint64_t begin,
                                  uint64_t end, bool is_final,
                                  const EmProfConfig &config);

#if !defined(EMPROF_DISABLE_SIMD)
/** The AVX2 kernel (batch_pipeline_avx2.cpp; call only when
 *  dsp::avx2Available()).  Exposed for the parity tests. */
ChunkResult analyzeChunkBatchAvx2(const dsp::Sample *data,
                                  uint64_t dataBegin, uint64_t begin,
                                  uint64_t end, bool is_final,
                                  const EmProfConfig &config);
#endif

} // namespace detail

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_BATCH_PIPELINE_HPP
