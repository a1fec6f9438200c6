/**
 * @file
 * The EMCAP verifier: the container's header, chunk and CRC rules, in
 * one place.
 *
 * CaptureReader::open() + decodeChunkInto() (a finalized file, through
 * its footer index), CaptureReader::openRecovered() (a torn file,
 * scanned from the front) and serve::EmcapStreamDecoder (an upload,
 * pushed in any slicing) differ in where the bytes come from, not in
 * what the bytes must satisfy.  Each runs these checks in this order,
 * so the same bytes get the same reason from every reader:
 *
 *     checkFileHeader, then per chunk: checkChunkHeader → read the
 *     payload → checkChunkCrc → decodeVerifiedChunk
 *
 * openRecovered stops at the CRC: it salvages chunks without decoding
 * them.  Rules only one reader can check stay with it: the footer index
 * (open), the declared total and the footer length (the stream).  Each
 * check returns false with one reason per rule in @p why; a chunk's
 * reason reads "chunk <index> refused: <rule>".
 */

#ifndef EMPROF_STORE_EMCAP_VERIFY_HPP
#define EMPROF_STORE_EMCAP_VERIFY_HPP

#include <cstddef>
#include <cstdint>
#include <string>

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

/** Magic, version, CRC, codec; on success fills @p info, with
 *  totalSamples as the header declares it. */
bool checkFileHeader(const FileHeader &header, CaptureInfo &info,
                     std::string *why);

/**
 * Chunk @p index's header alone, before its payload is read, buffered
 * or allocated for: a nonzero sample count, a known encoding, at most
 * maxChunkSamples() for the payload size, and at most 8 payload bytes
 * per sample + 64.
 */
bool checkChunkHeader(uint64_t index, const ChunkHeader &header,
                      SampleCodec codec, std::string *why);

/** The chunk CRC: CRC32C over its header bytes 0..15, then the @p n
 *  payload bytes the reader holds. */
bool checkChunkCrc(uint64_t index, const ChunkHeader &header,
                   const uint8_t *payload, std::size_t n,
                   std::string *why);

/** Decode payloadBytes at @p payload into exactly sampleCount samples
 *  at @p out. */
bool decodeVerifiedChunk(uint64_t index, const ChunkHeader &header,
                         const uint8_t *payload, SampleCodec codec,
                         dsp::Sample *out, std::string *why);

} // namespace emprof::store

#endif // EMPROF_STORE_EMCAP_VERIFY_HPP
