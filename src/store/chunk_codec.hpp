/**
 * @file
 * Per-chunk sample codec: quantisation + delta/zig-zag/bit-packing.
 *
 * A chunk's samples are first mapped to an integer stream — the raw
 * float bit patterns for the lossless F32 codec, or round(x / scale)
 * for QuantI16 with a per-chunk scale — then compressed as the
 * zig-zagged deltas of that stream, bit-packed in miniblocks of 128
 * values at each miniblock's maximum width.  EM magnitude traces are a
 * busy plateau plus noise, so consecutive deltas are small and the
 * packed form typically lands at 1-2 bytes per sample (i16) against
 * 4 bytes of raw f32.  Whenever packing does not beat the verbatim
 * integer array (pathological inputs, tiny chunks), the encoder falls
 * back to raw passthrough — decode speed is then a memcpy and the
 * container never loses to the format it replaces by more than the
 * chunk header.
 *
 * Decoding is defensive and works a miniblock at a time: each block's
 * width byte and byte count are checked against the payload before it
 * is unpacked, and its values' range test is folded into one check per
 * block, so a corrupted or hostile payload yields `false`, never
 * undefined behaviour.  A scalar loop or, where the build and the CPU
 * have AVX2, a four-values-per-step kernel unpacks each block; the
 * choice is made once per process (chunk_codec_detail.hpp).  The
 * verdict is exactly that of a bit-at-a-time reference decoder;
 * tests/store keeps that decoder as the oracle of a differential suite
 * that runs under ASan/UBSan.
 */

#ifndef EMPROF_STORE_CHUNK_CODEC_HPP
#define EMPROF_STORE_CHUNK_CODEC_HPP

#include <cstdint>
#include <vector>

#include "dsp/types.hpp"
#include "store/emcap_format.hpp"

namespace emprof::store {

/** Encoder knobs shared by the writer and the convert tool. */
struct EncoderOptions
{
    SampleCodec codec = SampleCodec::F32;

    /** Quantiser resolution (2..16) when codec == QuantI16. */
    unsigned quantBits = 16;

    /** false forces raw passthrough (still quantised for QuantI16). */
    bool compress = true;
};

/** One encoded chunk, ready to be framed by a ChunkHeader. */
struct EncodedChunk
{
    ChunkEncoding encoding = ChunkEncoding::Raw;
    float scale = 1.0f; ///< i16 dequantisation step (1.0 for F32)
    std::vector<uint8_t> payload;
};

/**
 * Encode @p count samples.  Never fails: the raw fallback always
 * applies.  For QuantI16 the scale is chosen per chunk as
 * maxAbs / (2^(quantBits-1) - 1) so the full quantiser range is used.
 */
EncodedChunk encodeChunk(const dsp::Sample *samples, std::size_t count,
                         const EncoderOptions &options);

/**
 * Decode a chunk payload into exactly @p count samples at @p out.
 *
 * @retval false Malformed payload (wrong size, impossible bit width,
 *         truncated miniblock); @p out contents are unspecified.
 */
bool decodeChunk(const uint8_t *payload, std::size_t payloadBytes,
                 ChunkEncoding encoding, SampleCodec codec, float scale,
                 std::size_t count, dsp::Sample *out);

/**
 * The most samples a @p payloadBytes payload can decode to: exactly
 * payloadBytes / width for Raw, 128 * (payloadBytes - 8) + 1 for
 * DeltaPacked (the first value, then a width-0 miniblock of 128 deltas
 * per remaining byte), 0 for an unknown encoding or codec.  Readers
 * reject a chunk header that declares more before they allocate its
 * samples.
 */
uint64_t maxChunkSamples(uint64_t payloadBytes, ChunkEncoding encoding,
                         SampleCodec codec);

/**
 * Quantise one sample the way the encoder does — exposed so tests can
 * assert the round-trip error bound (|x - q*scale| <= scale/2).
 */
int32_t quantize(dsp::Sample x, float scale, unsigned bits);

} // namespace emprof::store

#endif // EMPROF_STORE_CHUNK_CODEC_HPP
