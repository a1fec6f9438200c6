/**
 * @file
 * Streaming EMCAP writer.
 *
 * Buffers at most one chunk of samples (bounded memory no matter how
 * long the capture runs — emprof_capture streams into it as the probe
 * chain produces magnitude), encodes and CRCs each full chunk to disk,
 * and on finalize() appends the footer index, back-patches the header
 * with the final sample count, and fsyncs before close so a reported
 * success is durable.  The footer index grows by 24 bytes per chunk,
 * i.e. ~1.5 KB per GB of f32 payload.
 *
 * All I/O goes through common::io::CheckedFile: any failure — disk
 * full, torn write, short write — invalidates the writer immediately
 * and is preserved as a typed IoError in lastError().  A chunk whose
 * header landed but whose payload did not can therefore never desync
 * the footer index from the real file contents: nothing further is
 * written after the first failure, and finalize() reports it.  The
 * bytes already flushed remain salvageable via
 * CaptureReader::openRecovered.
 */

#ifndef EMPROF_STORE_CAPTURE_WRITER_HPP
#define EMPROF_STORE_CAPTURE_WRITER_HPP

#include <string>
#include <vector>

#include "common/io/checked_file.hpp"
#include "dsp/types.hpp"
#include "store/chunk_codec.hpp"
#include "store/emcap_format.hpp"

namespace emprof::store {

/** Everything the writer needs to know up front. */
struct WriterOptions
{
    double sampleRateHz = 0.0;
    double clockHz = 0.0;

    /** Capture source label (truncated to 23 chars in the header). */
    std::string deviceName;

    SampleCodec codec = SampleCodec::F32;
    unsigned quantBits = 16; ///< used when codec == QuantI16
    bool compress = true;
    std::size_t chunkSamples = kDefaultChunkSamples;
};

/** Size accounting, valid after finalize(). */
struct WriterStats
{
    uint64_t samples = 0;
    uint64_t chunks = 0;
    uint64_t fileBytes = 0;

    /** File-size ratio against the raw-f32 dump it replaces. */
    double
    compressionRatio() const
    {
        return fileBytes == 0
                   ? 0.0
                   : static_cast<double>(samples) * 4.0 /
                         static_cast<double>(fileBytes);
    }
};

class CaptureWriter
{
  public:
    CaptureWriter() = default;
    ~CaptureWriter() = default; // abandoned without finalize(): no footer

    CaptureWriter(const CaptureWriter &) = delete;
    CaptureWriter &operator=(const CaptureWriter &) = delete;

    /**
     * Create @p path and write a provisional header.
     *
     * @retval false The file could not be created (lastError() has the
     *         typed reason), or the options are unusable (quantBits
     *         outside 2..16, chunkSamples 0, or a chunk whose raw
     *         payload plus its 20-byte header passes 4 GiB, which the
     *         32-bit chunk fields cannot record).
     */
    bool open(const std::string &path, const WriterOptions &options);

    /**
     * Append samples; full chunks are encoded and written.
     *
     * @retval false A write failed (see lastError()).  The writer is
     *         invalidated: every further append/finalize fails and the
     *         first error is preserved.
     */
    bool append(const dsp::Sample *samples, std::size_t count);

    /** Convenience for in-memory series. */
    bool
    append(const dsp::TimeSeries &series)
    {
        return append(series.samples.data(), series.samples.size());
    }

    /**
     * Flush the partial chunk, write the footer, patch the header, and
     * fsync.  The writer is closed afterwards; stats() stays valid.
     *
     * @retval false Some write, sync, or close failed; lastError()
     *         says which and where.  The on-disk file then holds only
     *         whatever chunks were fully flushed (recoverable), and no
     *         footer claims otherwise.
     */
    bool finalize();

    bool
    isOpen() const
    {
        return file_.isOpen() && !failed_;
    }

    const WriterStats &stats() const { return stats_; }

    /** First I/O (or option-validation) failure; None while healthy. */
    const common::io::IoError &lastError() const { return error_; }

  private:
    bool flushChunk();
    bool failWithFileError();

    common::io::CheckedFile file_;
    bool failed_ = false;
    common::io::IoError error_;
    WriterOptions options_;
    std::vector<dsp::Sample> buffer_;
    std::vector<ChunkIndexEntry> index_;
    WriterStats stats_;
};

/**
 * One-shot convenience: open + append + finalize.
 *
 * @param error Receives lastError().describe() on failure.
 */
bool writeCapture(const std::string &path,
                  const dsp::TimeSeries &series, WriterOptions options,
                  WriterStats *stats = nullptr,
                  std::string *error = nullptr);

} // namespace emprof::store

#endif // EMPROF_STORE_CAPTURE_WRITER_HPP
