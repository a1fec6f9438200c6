/**
 * @file
 * Parallel span analysis of recorded signals and captures.
 *
 * The input is cut into one contiguous range per worker; every worker
 * analyses its range span by span (analyzeChunkAuto), and a sequential
 * stitch pass merges dips that straddle span boundaries.  The result is
 * *bit-identical* to EmProf::analyze — same events, same sample
 * indices, same depths — at N× real time on N cores.  See DESIGN.md,
 * "Parallel analysis & threading model", for the span/halo diagram and
 * the determinism argument.
 *
 * Two properties make exact equivalence possible:
 *
 *  1. Normalisation is a pure function of a bounded history: the value
 *     at sample i depends only on the last normWindowSamples() raw
 *     samples.  Each span therefore re-feeds a "halo" of that many
 *     preceding samples into a fresh normaliser before its own samples,
 *     reproducing the streaming envelope exactly.
 *
 *  2. The dip detector's cross-span dependence collapses at the first
 *     normalised sample above the exit threshold: whatever the incoming
 *     state was, the detector is guaranteed "not in a dip" right after
 *     it.  Each span records its *prefix* (the leading run of samples
 *     at or below exit) so the stitcher can replay those samples into a
 *     dip left open by the previous span, sample for sample, in
 *     order — preserving even the floating-point summation order of
 *     the depth accumulator.
 */

#ifndef EMPROF_PROFILER_PARALLEL_ANALYZER_HPP
#define EMPROF_PROFILER_PARALLEL_ANALYZER_HPP

#include <cstddef>
#include <string>

#include "dsp/types.hpp"
#include "profiler/profiler.hpp"

namespace emprof::store {
class CaptureReader;
}

namespace emprof::profiler {

/** Tuning knobs for the parallel analyzer. */
struct ParallelAnalyzerConfig
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    std::size_t threads = 0;

    /**
     * Span length in samples: what one analyzeChunkAuto call covers.
     * 0 picks SpanWindow::defaultSpanSamples(), the served span.  Both
     * entry points give each effective worker one range of at least
     * one span and analyse it span by span, so a short input is one
     * range on one inline worker.  Tests use tiny spans to exercise
     * boundary stitching regardless of core count.
     */
    std::size_t chunkSamples = 0;
};

/**
 * Analyse a whole recorded magnitude series on the worker pool.
 *
 * Workers analyse their ranges straight off @p magnitude's buffer.  The
 * series' own sample rate overrides config.sampleRateHz, as in
 * EmProf::analyze.
 */
ProfileResult analyzeParallel(const dsp::TimeSeries &magnitude,
                              EmProfConfig config,
                              ParallelAnalyzerConfig parallel = {});

/**
 * Analyse an EMCAP capture straight off disk.
 *
 * Ranges end on stored-chunk boundaries.  Each worker streams its range
 * through its own SpanWindow: it decodes the halo, then each stored
 * chunk of its range, straight into the window, and analyses every span
 * while it is still in cache.  The capture is never materialised in
 * one buffer, on any number of workers: working memory is span + halo +
 * one stored chunk per worker, whatever the capture length (the
 * stitched events and their per-span results aside), and decode
 * overlaps analysis instead of serialising in a front-end loader.  The
 * events are bit-identical to readAll() + EmProf::analyze for every
 * thread count, span length and chunk layout.
 *
 * The capture's sample rate overrides config.sampleRateHz; its clock
 * is NOT applied to config (callers decide, since a command line may
 * override the recorded clock).
 *
 * @retval false An invalid config, or a chunk failed its CRC or
 *         decode; @p error (if non-null) says which.  The other workers
 *         stop at their next chunk.
 */
bool analyzeCaptureParallel(const store::CaptureReader &reader,
                            EmProfConfig config, ProfileResult &out,
                            ParallelAnalyzerConfig parallel = {},
                            std::string *error = nullptr);

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_PARALLEL_ANALYZER_HPP
