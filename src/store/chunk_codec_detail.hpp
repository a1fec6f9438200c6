/**
 * @file
 * The two miniblock unpackers behind store::decodeChunk's DeltaPacked
 * path, exposed so tests can hold them against each other and against
 * the bit-at-a-time oracle.  Production code calls decodeChunk(), which
 * picks one once per process.
 */

#ifndef EMPROF_STORE_CHUNK_CODEC_DETAIL_HPP
#define EMPROF_STORE_CHUNK_CODEC_DETAIL_HPP

#include <cstddef>
#include <cstdint>

#include "dsp/types.hpp"
#include "store/emcap_format.hpp"

namespace emprof::store::detail {

/** Deltas per bit-packed miniblock. */
inline constexpr std::size_t kMiniblock = 128;

/**
 * Widest legal packed value: f32 bit patterns delta in (-2^32, 2^32),
 * zig-zag < 2^33.  Anything wider in a payload is corruption.
 */
inline constexpr unsigned kMaxWidth = 40;

/**
 * Readable bytes an unpacker may load past a block's ⌈n·width/8⌉
 * packed bytes: the AVX2 unpacker reads 32 bytes from each group of
 * four values' first byte.  decodeChunk unpacks a block with fewer
 * payload bytes after it from a zero-padded copy.
 */
inline constexpr std::size_t kUnpackSlack = 32;

/**
 * Unpack one miniblock of @p n (1..kMiniblock) zig-zag deltas at
 * @p width (0..kMaxWidth) bits from @p in, extend the running integer
 * @p prev (the codec's value as a two's-complement uint64_t) and write
 * @p n samples of @p codec to @p out.  @p in must have kUnpackSlack
 * readable bytes past the packed bytes.  Returns nonzero iff some value
 * fell outside the codec's range (an f32 bit pattern in [0, 2^32), an
 * i16 in [-32768, 32767]); @p prev and @p out are then unspecified.
 */
using UnpackFn = uint64_t (*)(const uint8_t *in, unsigned width,
                              std::size_t n, SampleCodec codec,
                              float scale, uint64_t &prev,
                              dsp::Sample *out);

/** One value per step: the fallback and the test reference. */
uint64_t unpackBlockScalar(const uint8_t *in, unsigned width,
                           std::size_t n, SampleCodec codec, float scale,
                           uint64_t &prev, dsp::Sample *out);

/** True when the AVX2 unpacker is compiled in and the CPU has AVX2. */
bool unpackAvx2Available();

#if !defined(EMPROF_DISABLE_SIMD)
/**
 * Four values per 32-byte load (chunk_codec_avx2.cpp, compiled with
 * -mavx2).  Call only when unpackAvx2Available().
 */
uint64_t unpackBlockAvx2(const uint8_t *in, unsigned width, std::size_t n,
                         SampleCodec codec, float scale, uint64_t &prev,
                         dsp::Sample *out);
#endif

} // namespace emprof::store::detail

#endif // EMPROF_STORE_CHUNK_CODEC_DETAIL_HPP
