/**
 * @file
 * The two CRC32C implementations behind store::crc32c(), exposed so
 * tests can hold them against each other.  Production code calls
 * crc32c(), which picks one once per process.
 */

#ifndef EMPROF_STORE_CRC32C_DETAIL_HPP
#define EMPROF_STORE_CRC32C_DETAIL_HPP

#include <cstddef>
#include <cstdint>

namespace emprof::store::detail {

/** The Castagnoli polynomial 0x1EDC6F41, bit-reflected. */
inline constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

/**
 * Bytes each of the SSE4.2 kernel's three interleaved streams covers
 * per round: an input of 3·kCrc32cLane bytes or more runs in rounds,
 * what is left after the last round in one chain.
 */
inline constexpr std::size_t kCrc32cLane = 1024;

/** Slicing-by-8 tables: the fallback and the test reference. */
uint32_t crc32cPortable(uint32_t crc, const void *data, std::size_t len);

/** True when the SSE4.2 kernel is compiled in and the CPU has it. */
bool crc32cSse42Available();

#if !defined(EMPROF_DISABLE_SIMD)
/**
 * The SSE4.2 `crc32` instruction path (crc32c_sse42.cpp, compiled with
 * -msse4.2): three streams per round, then one chain.  Call only when
 * crc32cSse42Available().
 */
uint32_t crc32cSse42(uint32_t crc, const void *data, std::size_t len);
#endif

} // namespace emprof::store::detail

#endif // EMPROF_STORE_CRC32C_DETAIL_HPP
