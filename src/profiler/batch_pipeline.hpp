/**
 * @file
 * Per-chunk batch analysis: the vectorised envelope -> normalise ->
 * dip-detect hot path behind the parallel analyzer.
 *
 * A chunk is the unit of parallel work: samples [begin, end) plus a
 * halo of preceding samples that warms the normaliser.  Two
 * implementations produce a ChunkResult:
 *
 *  - analyzeChunkStreaming — the reference: a fresh streaming
 *    normaliser + dip detector fed sample by sample.  This is the
 *    scalar fallback and the semantics oracle; every other path is
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
 * analyzeChunkAuto dispatches: AVX2 kernel when compiled in, the CPU
 * has AVX2 and EMPROF_SIMD does not force "scalar"; the streaming
 * reference otherwise.
 *
 * fastMath (opt-in, --fast-math-simd): the classic kernel's exact-path
 * normalisation runs in single precision (8-wide float divide) instead
 * of double.  Normalised values then differ from the reference by at
 * most ~2 float ULP (relative ~2.4e-7), so a sample whose normalised
 * value lies within that margin of the enter/exit threshold can flip a
 * dip boundary by one sample.  The resilient kernel ignores the flag
 * (its log-grid snap is already the cost centre, not the divide).
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
 * Analyse samples [begin, end) of a chunk; dispatches to the AVX2
 * batch kernel or the streaming reference (see file comment).
 *
 * @param data Sample storage; data[i - dataBegin] is global sample i.
 *        Must cover at least [begin - halo, end), where the halo is
 *        min(begin, config.haloSamples()).
 * @param is_final True for the last chunk, which additionally owns the
 *        trailing partial quality block.
 * @param fastMath Allow the reduced-precision normalise (see above).
 */
ChunkResult analyzeChunkAuto(const dsp::Sample *data, uint64_t dataBegin,
                             uint64_t begin, uint64_t end, bool is_final,
                             const EmProfConfig &config,
                             bool fastMath = false);

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
                                  const EmProfConfig &config,
                                  bool fastMath);
#endif

} // namespace detail

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_BATCH_PIPELINE_HPP
