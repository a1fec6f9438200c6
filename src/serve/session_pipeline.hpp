/**
 * @file
 * One served session's analysis pipeline: EMCAP bytes in, a finished
 * ProfileResult out, incrementally and with bounded memory.
 *
 * The pipeline chains three pieces that already guarantee streaming
 * bit-parity on their own:
 *
 *     EmcapStreamDecoder  →  analyzeChunkAuto  →  ChunkStitcher
 *     (bytes → samples)      (span → ChunkResult)  (carry + report)
 *
 * The decoder appends samples straight into a profiler::SpanWindow,
 * the same bounded window each worker of the offline analyzer runs:
 * whenever it holds strictly more than one analysis span past the
 * current position, the span is analysed and fed to the stitcher, and
 * the window trims back to the halo the *next* span needs.  "Strictly
 * more" keeps at least one unanalysed sample until finish(), so the
 * closing span always runs with is_final = true and owns the trailing
 * partial quality block — the same ownership rule as the parallel
 * analyzer, which is what makes the served result bit-identical to
 * emprof_analyze on the same capture for EVERY way the upload is cut
 * into Data frames.
 *
 * Peak memory per session is therefore
 *     halo + spanSamples + (one decoded EMCAP chunk)
 * samples, independent of capture length but not of the declared
 * sample rate: the default span is 8 normalisation windows and the
 * halo about one, both counted in samples of the header's rate.  A
 * capture that declares 25 GHz has a span of 8e8 samples, so a shorter
 * upload is buffered whole until finish().
 *
 * The pipeline is single-threaded by design: the server guarantees at
 * most one in-flight call per session (feeds are serialised through
 * the session's task queue), so no locking is needed here.
 */

#ifndef EMPROF_SERVE_SESSION_PIPELINE_HPP
#define EMPROF_SERVE_SESSION_PIPELINE_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "profiler/profiler.hpp"
#include "profiler/span_window.hpp"
#include "profiler/stitch.hpp"
#include "serve/emcap_stream.hpp"

namespace emprof::serve {

class SessionPipeline
{
  public:
    /**
     * @param base Analysis config; sampleRateHz is overridden by the
     *        capture header once it arrives, and clockHz too when the
     *        header records one (> 0), mirroring emprof_analyze's
     *        defaults.
     * @param spanSamples Analysis span length; 0 picks
     *        max(kDefaultChunkSamples, 8 norm windows).  Tests use
     *        tiny spans to force mid-upload analysis.
     */
    explicit SessionPipeline(const profiler::EmProfConfig &base,
                             std::size_t spanSamples = 0);

    /**
     * Ingest the next bytes of the capture upload.
     *
     * @retval false Malformed bytes or invalid capture metadata; the
     *         pipeline is poisoned and @p error says why.
     */
    bool feed(const uint8_t *data, std::size_t n, std::string *error);

    /**
     * End of upload: verify the capture arrived whole, analyse the
     * final span, and build the report.  Single-use.
     *
     * @retval false Truncated upload or poisoned pipeline.
     */
    bool finish(profiler::ProfileResult &out, std::string *error);

    /** Effective config; sample rate valid once headerReady(). */
    const profiler::EmProfConfig &config() const { return config_; }

    bool headerReady() const { return decoder_.headerReady(); }

    const EmcapStreamDecoder &decoder() const { return decoder_; }

    /**
     * Park support: drop the decoder's partially-received element and
     * return the element-aligned byte offset the upload must resume
     * from.  Decoded samples, stitcher carry and halo state are all
     * retained, so re-feeding the stream from this offset continues
     * the span chain bit-identically to an uninterrupted upload.
     */
    uint64_t
    rewindToResumable()
    {
        decoder_.rewindPartial();
        return decoder_.resumableOffset();
    }

    bool poisoned() const { return poisoned_; }

    bool resilient() const { return config_.signal.enabled; }

    /** Decoded samples currently buffered (halo included). */
    std::size_t
    bufferedSamples() const
    {
        return window_ ? window_->bufferedSamples() : 0;
    }

    /** Spans analysed so far (mid-upload progress; finish() adds the
     *  closing one). */
    uint64_t
    spansAnalyzed() const
    {
        return window_ ? window_->spansAnalyzed() : 0;
    }

  private:
    bool poison(std::string *error, const std::string &message);
    bool onHeader(std::string *error);
    void analyzeSpan(bool closing);

    profiler::EmProfConfig config_;
    std::size_t spanSamples_;

    EmcapStreamDecoder decoder_;
    std::optional<profiler::SpanWindow> window_; ///< from the header on
    std::optional<profiler::ChunkStitcher> stitcher_;

    bool finished_ = false;
    bool poisoned_ = false;
    std::string poisonReason_;
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_SESSION_PIPELINE_HPP
