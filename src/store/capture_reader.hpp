/**
 * @file
 * Random-access EMCAP reader.
 *
 * open() validates the header and the footer index (magic, version,
 * CRC32C, chunk-table consistency) without touching any payload, so
 * opening a multi-GB capture is O(chunks), not O(samples).  Chunks are
 * then decoded on demand:
 *
 *  - decodeChunkInto() checks the chunk's CRC and decodes it straight
 *    into caller memory, through a stored-bytes buffer the caller
 *    reuses — it is `const` and uses positioned reads (pread), so any
 *    number of threads may decode different chunks of one reader
 *    concurrently; this is what lets analyzeCaptureParallel's workers
 *    decode into their own analysis windows.  decodeChunk() is the
 *    same decode into a vector.
 *  - readRange() seeks straight to the covering chunks via the footer
 *    index: O(1) per lookup plus one decode per touched chunk.
 *  - verify() walks every byte of the file against its CRC and reports
 *    which chunks are damaged — a capture with one flipped bit loses
 *    one chunk, not the corpus.
 *
 * A capture interrupted before finalize() has no footer; openRecovered()
 * rebuilds the index by scanning the per-chunk headers and CRCs from
 * the front of the file, salvaging every fully-flushed chunk (see
 * DESIGN.md §10, "Failure model & recovery").  All I/O runs through
 * common::io::CheckedFile, so every failure surfaces as a typed
 * IoError-derived message rather than a silent short read.
 */

#ifndef EMPROF_STORE_CAPTURE_READER_HPP
#define EMPROF_STORE_CAPTURE_READER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/io/checked_file.hpp"
#include "dsp/types.hpp"
#include "store/emcap_format.hpp"

namespace emprof::store {

/** Decoded file-header metadata. */
struct CaptureInfo
{
    uint32_t version = 0;
    SampleCodec codec = SampleCodec::F32;
    unsigned quantBits = 0;
    double sampleRateHz = 0.0;
    double clockHz = 0.0;
    std::string deviceName;
    uint64_t totalSamples = 0;
};

/** What openRecovered() managed to salvage. */
struct RecoveryReport
{
    uint64_t salvagedChunks = 0;
    uint64_t salvagedSamples = 0;

    /** File prefix (header + salvaged chunks) proven intact, bytes. */
    uint64_t salvagedBytes = 0;

    /** Trailing bytes abandoned (torn chunk, corruption, footer...). */
    uint64_t droppedTailBytes = 0;

    /** Why the scan stopped where it did (empty if it consumed the
     *  whole file, i.e. the capture had no footer at all). */
    std::string stopReason;
};

class CaptureReader
{
  public:
    CaptureReader() = default;
    ~CaptureReader();

    CaptureReader(const CaptureReader &) = delete;
    CaptureReader &operator=(const CaptureReader &) = delete;

    /**
     * Open and validate header + footer.
     *
     * @param error Receives a one-line reason on failure.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    /**
     * Open a damaged or truncated capture by rebuilding the chunk
     * index from the per-chunk headers and CRCs, ignoring the footer
     * entirely.  Salvages the longest prefix of fully-flushed,
     * CRC-valid chunks; info().totalSamples reflects the salvaged
     * count, and every reader operation then works on the salvaged
     * prefix exactly as if it had been a finalized capture.
     *
     * Requires an intact 72-byte file header (it is written first and
     * never moves, so any capture that produced at least one byte of
     * chunk data has one).
     *
     * @retval false Nothing recoverable: the file is missing, shorter
     *         than a header, or the header itself is damaged.
     */
    bool openRecovered(const std::string &path,
                       RecoveryReport *report = nullptr,
                       std::string *error = nullptr);

    void close();

    bool isOpen() const { return file_.isOpen(); }

    const CaptureInfo &info() const { return info_; }

    std::size_t chunkCount() const { return index_.size(); }

    const ChunkIndexEntry &chunk(std::size_t i) const
    {
        return index_[i];
    }

    /** Index of the chunk containing global sample @p sample. */
    std::size_t chunkContaining(uint64_t sample) const;

    /**
     * CRC-check and decode chunk @p i into @p out, which has room for
     * chunk(i).sampleCount samples.  The stored bytes are read into
     * @p stored, a buffer the caller owns and reuses across chunks.
     * Checks, in order: index/header agreement, CRC, the sample-count
     * bound (maxChunkSamples), then the decode itself.  Thread-safe
     * (one @p stored per thread).
     */
    bool decodeChunkInto(std::size_t i, dsp::Sample *out,
                         std::vector<uint8_t> &stored,
                         std::string *error = nullptr) const;

    /**
     * decodeChunkInto() into @p out, resized to the chunk's sample
     * count once every check before the decode has passed.
     * Thread-safe.
     */
    bool decodeChunk(std::size_t i, std::vector<dsp::Sample> &out,
                     std::string *error = nullptr) const;

    /**
     * Decode exactly samples [first, first + count) into @p out.
     * Thread-safe.  Fails if the range exceeds the capture or any
     * covering chunk is corrupt.
     */
    bool readRange(uint64_t first, uint64_t count,
                   std::vector<dsp::Sample> &out,
                   std::string *error = nullptr) const;

    /** Whole capture as a TimeSeries (sample rate attached). */
    bool readAll(dsp::TimeSeries &out,
                 std::string *error = nullptr) const;

    /** Outcome of a full-file integrity walk. */
    struct VerifyResult
    {
        bool ok = false;
        std::size_t chunksChecked = 0;
        std::vector<std::size_t> badChunks;
        std::string error; ///< non-chunk failure (header/footer/...)
    };

    /** Re-check every CRC in the file, payloads included. */
    VerifyResult verify() const;

    /** Cheap magic probe: does @p path start with an EMCAP header? */
    static bool isEmcap(const std::string &path);

  private:
    bool fail(std::string *error, const std::string &message) const;

    /** Read + fully validate the 72-byte file header. */
    bool loadHeader(FileHeader &header, std::string *error);

    /** decodeChunkInto()'s checks: read chunk @p i into @p stored and
     *  vet it up to (not including) the decode. */
    bool loadChunk(std::size_t i, std::vector<uint8_t> &stored,
                   std::string *error) const;

    /** decodeChunkInto()'s decode of a loadChunk()ed chunk. */
    bool decodeLoaded(std::size_t i, const std::vector<uint8_t> &stored,
                      dsp::Sample *out, std::string *error) const;

    /** Positioned read at @p offset; thread-safe. */
    bool preadAt(uint64_t offset, void *buf, std::size_t len,
                 const char *context, std::string *error) const;

    common::io::CheckedFile file_;
    uint64_t fileSize_ = 0;
    CaptureInfo info_;
    std::vector<ChunkIndexEntry> index_;
};

} // namespace emprof::store

#endif // EMPROF_STORE_CAPTURE_READER_HPP
