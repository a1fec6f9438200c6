/**
 * @file
 * The bounded sample window the capture and served analysis paths run
 * through.
 *
 * A SpanWindow holds the samples of one contiguous stretch of a
 * capture that is not already in memory, from a halo before its first
 * analysed sample up to whatever the caller has appended so far.
 * Callers write samples in place at the tail (a stored chunk decoded
 * straight into extend()'s pointer, or a push decoder appending to
 * buffer()); the window cuts them into spans:
 *
 *     bufferBegin      next                next + span        end()
 *         | halo ....... | span (analysed) ... | unanalysed ... |
 *
 * While strictly more than one span is buffered past `next`,
 * analyzeNextSpan() runs analyzeChunkAuto over [next, next + span) and
 * trims the buffer back to the halo the following span re-feeds.
 * "Strictly more" keeps at least one unanalysed sample for close(),
 * which analyses [next, end()) with the caller's is_final, so the
 * closing span always owns the trailing partial quality block.
 *
 * A caller that appends at most one stored chunk between calls
 * therefore never holds more than
 *     halo + span + (largest appended chunk)
 * samples, whatever the capture length.  SessionPipeline runs one
 * window per served session; analyzeCaptureParallel runs one per
 * worker, over the worker's range of stored chunks.  Every span's
 * ChunkResult goes to a ChunkStitcher in capture order, which makes the
 * result bit-identical to EmProf::analyze for any span length and any
 * way the samples were appended (DESIGN.md §8).
 */

#ifndef EMPROF_PROFILER_SPAN_WINDOW_HPP
#define EMPROF_PROFILER_SPAN_WINDOW_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/types.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/profiler.hpp"

namespace emprof::profiler {

class SpanWindow
{
  public:
    /**
     * The span length every chunked path uses unless told otherwise:
     * max(store::kDefaultChunkSamples, 8 normalisation windows), so the
     * halo re-feed stays under ~12% of each span's work.
     */
    static std::size_t defaultSpanSamples(const EmProfConfig &config);

    /**
     * @param config Analysis config (copied).
     * @param spanSamples Span length, >= 1.
     * @param first Global index of the first sample to analyse; the
     *        caller appends from bufferBegin() = first - min(first,
     *        haloSamples()) on.
     */
    SpanWindow(const EmProfConfig &config, std::size_t spanSamples,
               uint64_t first);

    /** Global index of the first buffered sample. */
    uint64_t bufferBegin() const { return bufferBegin_; }

    /** Global index one past the last buffered sample. */
    uint64_t end() const { return bufferBegin_ + buffer_.size(); }

    /** Samples currently buffered, halo included. */
    std::size_t bufferedSamples() const { return buffer_.size(); }

    /** Size the buffer once for appends of up to @p chunkSamples at a
     *  time, up to global sample @p last (exclusive), so it never
     *  reallocates while the window runs and never reserves more than
     *  the range can hold. */
    void reserveForChunks(std::size_t chunkSamples, uint64_t last);

    /**
     * Grow the tail by @p n samples and return where they go; the
     * caller writes all @p n of them before the next call.
     */
    dsp::Sample *extend(std::size_t n);

    /** The buffer itself, for decoders that append to a vector. */
    std::vector<dsp::Sample> &buffer() { return buffer_; }

    /** True while strictly more than one span is buffered past next. */
    bool spanReady() const { return end() > next_ + spanSamples_; }

    /** Analyse the next full span, then trim back to its halo.
     *  Requires spanReady(). */
    ChunkResult analyzeNextSpan();

    /** Analyse what is left, [next, end()).  Requires at least one
     *  unanalysed sample; the window is spent afterwards. */
    ChunkResult close(bool is_final);

    /** Spans analysed so far, the closing one included. */
    uint64_t spansAnalyzed() const { return spansAnalyzed_; }

    /** Drop the buffer and its memory (the window is spent). */
    void release();

  private:
    ChunkResult analyzeSpan(uint64_t end, bool is_final);

    EmProfConfig config_;
    std::size_t spanSamples_;
    std::vector<dsp::Sample> buffer_; ///< [bufferBegin_, end())
    uint64_t bufferBegin_;
    uint64_t next_; ///< first unanalysed global sample
    uint64_t spansAnalyzed_ = 0;
};

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_SPAN_WINDOW_HPP
