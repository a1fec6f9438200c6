/**
 * @file
 * Parallel chunked batch analysis of recorded captures.
 *
 * A recorded capture is split into contiguous chunks; every chunk is
 * normalised and dip-detected independently on a thread pool, and a
 * sequential stitch pass merges dips that straddle chunk boundaries.
 * The result is *bit-identical* to the streaming path (EmProf::analyze)
 * — same events, same sample indices, same depths — at N× real time on
 * N cores.  See DESIGN.md, "Parallel analysis & threading model", for
 * the chunk/halo diagram and the determinism argument.
 *
 * Two properties make exact equivalence possible:
 *
 *  1. Normalisation is a pure function of a bounded history: the value
 *     at sample i depends only on the last normWindowSamples() raw
 *     samples.  Each chunk therefore re-feeds a "halo" of that many
 *     preceding samples into a fresh normaliser before its own range,
 *     reproducing the streaming envelope exactly.
 *
 *  2. The dip detector's cross-chunk dependence collapses at the first
 *     normalised sample above the exit threshold: whatever the incoming
 *     state was, the detector is guaranteed "not in a dip" right after
 *     it.  Each chunk records its *prefix* (the leading run of samples
 *     at or below exit) so the stitcher can replay those samples into a
 *     dip left open by the previous chunk, sample for sample, in
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

/** Tuning knobs for the parallel batch analyzer. */
struct ParallelAnalyzerConfig
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    std::size_t threads = 0;

    /**
     * Span length in samples: what one analyzeChunkAuto call covers.
     * 0 picks it automatically — analyze() gives each effective worker
     * one span (static partitioning), floored at eight normalisation
     * windows so the halo re-normalisation overhead stays small;
     * analyzeCapture() runs each worker's range through a SpanWindow
     * with SpanWindow::defaultSpanSamples() spans.  An explicit value
     * sets the span on both paths and always runs the chunk + stitch
     * machinery, even on one worker (tests use tiny spans to exercise
     * boundary stitching regardless of core count).
     */
    std::size_t chunkSamples = 0;

    /**
     * With automatic chunking, inputs shorter than this run on the
     * plain streaming path — the pool spin-up and halo overhead would
     * dwarf any speedup.  Ignored when chunkSamples is set explicitly.
     */
    std::size_t minParallelSamples = 1u << 20;

    /**
     * Allow the batch kernel's reduced-precision (single-precision
     * divide) normalisation on the classic path.  Off by default:
     * results are then bit-identical to streaming.  When on, normalised
     * values may differ from the reference by ~2 float ULP, which can
     * move a dip boundary by one sample in razor-edge cases (see
     * batch_pipeline.hpp).
     */
    bool fastMathSimd = false;
};

/**
 * Batch analyzer producing streaming-identical events from recorded
 * captures using a pool of worker threads.
 */
class ParallelAnalyzer
{
  public:
    explicit ParallelAnalyzer(ParallelAnalyzerConfig config = {});

    /**
     * Analyse a whole recorded magnitude series.
     *
     * The series' own sample rate overrides config.sampleRateHz, as in
     * EmProf::analyze.  Falls back to the streaming path when the input
     * is short or only one thread is available.
     */
    ProfileResult analyze(const dsp::TimeSeries &magnitude,
                          EmProfConfig config) const;

    /**
     * Analyse an EMCAP capture straight off disk.
     *
     * Each effective worker takes one contiguous range of whole stored
     * chunks and streams it through its own SpanWindow: it decodes the
     * halo, then each stored chunk of its range, straight into the
     * window, and analyses every span while it is still in cache.  The
     * capture is never materialised in one buffer: working memory is
     * span + halo + one stored chunk per worker, whatever the capture
     * length (the stitched events and their per-span results aside),
     * and decode overlaps analysis instead of serialising in a
     * front-end loader.  The events are bit-identical to readAll() +
     * analyze() (and therefore to the streaming path) for every thread
     * count, span length and chunk layout.
     *
     * The capture's sample rate overrides config.sampleRateHz; its
     * clock is NOT applied to config (callers decide, since a command
     * line may override the recorded clock).
     *
     * @retval false A chunk failed its CRC or decode; @p error (if
     *         non-null) says which.  The other workers stop at their
     *         next chunk.
     */
    bool analyzeCapture(const store::CaptureReader &reader,
                        EmProfConfig config, ProfileResult &out,
                        std::string *error = nullptr) const;

    const ParallelAnalyzerConfig &config() const { return config_; }

  private:
    ParallelAnalyzerConfig config_;
};

/** One-shot convenience wrapper around ParallelAnalyzer. */
ProfileResult analyzeParallel(const dsp::TimeSeries &magnitude,
                              EmProfConfig config,
                              ParallelAnalyzerConfig parallel = {});

/** One-shot convenience wrapper for EMCAP captures. */
bool analyzeCaptureParallel(const store::CaptureReader &reader,
                            EmProfConfig config, ProfileResult &out,
                            ParallelAnalyzerConfig parallel = {},
                            std::string *error = nullptr);

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_PARALLEL_ANALYZER_HPP
