/**
 * @file
 * Incremental chunk stitching: the sequential tail of chunked analysis.
 *
 * Every analysis path (EmProf::analyze's one span, the parallel
 * workers' ranges, or a long-lived serving session feeding spans as
 * they arrive off a socket) produces one ChunkResult per contiguous
 * span of samples.  ChunkStitcher consumes those results *in order*
 * and maintains exactly the state a per-sample detector would have had
 * at each span boundary: the open-dip carry, the event list so far, and
 * the quality blocks.  Span events arrive already classified (the
 * kernels classify where they emit); the stitcher classifies only the
 * dips it closes itself.  finalize() then flushes a dip left open at
 * the end with DipDetector::finish()'s rule, applies the signal-quality
 * layer and builds the report, so the stitched result is bit-identical
 * to the per-sample loop no matter how the input was cut into spans —
 * or how long the gaps between feed() calls were.
 *
 * This is the piece that makes analysis *resumable*: a server session
 * can feed a chunk, go idle for seconds while the next upload frame
 * crosses the network, and feed the next — the stitcher carries the
 * detector state across feeds with no buffered samples at all.
 *
 * The one-shot and served paths share this one stitch implementation.
 * See DESIGN.md §8 for the carry/replay argument and §14 for the
 * serving pipeline built on top.
 */

#ifndef EMPROF_PROFILER_STITCH_HPP
#define EMPROF_PROFILER_STITCH_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "profiler/batch_pipeline.hpp"
#include "profiler/profiler.hpp"

namespace emprof::profiler {

/**
 * Order-sensitive accumulator over ChunkResults.
 *
 * feed() must be called with contiguous, in-order chunks (chunk N's
 * begin == chunk N-1's end).  finalize() may be called exactly once;
 * the stitcher is single-use.
 */
class ChunkStitcher
{
  public:
    explicit ChunkStitcher(const EmProfConfig &config);

    /**
     * Size the event list once for @p events events.  A caller holding
     * every chunk result up front passes the sum of their event counts
     * plus one per chunk (each chunk boundary can close a carried dip).
     */
    void reserveEvents(std::size_t events) { events_.reserve(events); }

    /** Merge one chunk's result into the running streaming state. */
    void feed(const ChunkResult &chunk);

    /**
     * Flush the open dip (same rule as DipDetector::finish()), apply
     * signal quality, and build the report over @p totalSamples.
     */
    ProfileResult finalize(uint64_t totalSamples);

    /** Events completed so far (classified, pre-quality-pass). */
    const std::vector<StallEvent> &events() const { return events_; }

  private:
    /** Close the carried dip; true when it was long enough to keep. */
    bool emitCarry();

    EmProfConfig config_;
    uint64_t minDuration_;
    std::vector<StallEvent> events_;
    std::vector<SignalBlock> blocks_;
    DipDetector::DipState carry_;
    uint64_t carriedDips_ = 0;
    uint64_t replayedSamples_ = 0;
    bool finalized_ = false;
};

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_STITCH_HPP
