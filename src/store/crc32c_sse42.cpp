/**
 * @file
 * CRC32C with the SSE4.2 `crc32` instruction, eight bytes per step.
 *
 * This translation unit is compiled with -msse4.2.  It must contain no
 * code that runs before crc32c() has checked CPU support.
 */

#include <nmmintrin.h>

#include <cstring>

#include "store/crc32c_detail.hpp"

#if !defined(__SSE4_2__)
#error "crc32c_sse42.cpp must be compiled with -msse4.2"
#endif

namespace emprof::store::detail {

uint32_t
crc32cSse42(uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t c = ~crc;
    while (len >= 8) {
        uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        c = _mm_crc32_u64(c, word);
        p += 8;
        len -= 8;
    }
    auto tail = static_cast<uint32_t>(c);
    while (len != 0) {
        tail = _mm_crc32_u8(tail, *p++);
        --len;
    }
    return ~tail;
}

} // namespace emprof::store::detail
