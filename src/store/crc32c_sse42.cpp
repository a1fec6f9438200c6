/**
 * @file
 * CRC32C with the SSE4.2 `crc32` instruction, eight bytes per step.
 *
 * One `crc32` has three cycles of latency and issues every cycle, so a
 * single chain runs at a third of the unit's rate.  Inputs of three
 * lanes or more therefore run in rounds: three streams, each over its
 * own kCrc32cLane bytes, interleaved, then combined exactly.  What is
 * left after the last round runs in the single chain.
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

namespace {

/**
 * a·b mod P, both reflected (bit 31 is x^0), as zlib's multmodp: b
 * steps up by x per bit of a, reduced as it goes.
 */
constexpr uint32_t
multModP(uint32_t a, uint32_t b)
{
    uint32_t product = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if ((a & m) != 0)
            product ^= b;
        b = (b >> 1) ^ ((b & 1u) != 0 ? kCrc32cPoly : 0u);
    }
    return product;
}

/** x^(8·kCrc32cLane) mod P: what a lane of zero bytes multiplies a
 *  CRC register by. */
constexpr uint32_t
laneShiftConstant()
{
    uint32_t p = 1u << 31; // x^0
    for (std::size_t bit = 0; bit < 8 * kCrc32cLane; ++bit)
        p = (p >> 1) ^ ((p & 1u) != 0 ? kCrc32cPoly : 0u);
    return p;
}

/**
 * Multiplication by laneShiftConstant() as four byte tables, built at
 * compile time: the register a stream started from zero must be
 * combined with after the lanes that follow it.  A register c over A,
 * then over lane B, is shift(c) ^ crc(0, B).
 */
struct LaneShift
{
    uint32_t t[4][256];

    constexpr LaneShift() : t{}
    {
        const uint32_t k = laneShiftConstant();
        for (unsigned byte = 0; byte < 4; ++byte)
            for (uint32_t b = 0; b < 256; ++b)
                t[byte][b] = multModP(k, b << (8 * byte));
    }

    uint32_t
    operator()(uint32_t c) const
    {
        return t[0][c & 0xFFu] ^ t[1][(c >> 8) & 0xFFu] ^
               t[2][(c >> 16) & 0xFFu] ^ t[3][c >> 24];
    }
};

constexpr LaneShift kLaneShift{};

uint64_t
load64(const uint8_t *p)
{
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
}

} // namespace

uint32_t
crc32cSse42(uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t c = ~crc;
    while (len >= 3 * kCrc32cLane) {
        uint64_t c1 = 0;
        uint64_t c2 = 0;
        for (std::size_t i = 0; i < kCrc32cLane; i += 8) {
            c = _mm_crc32_u64(c, load64(p + i));
            c1 = _mm_crc32_u64(c1, load64(p + kCrc32cLane + i));
            c2 = _mm_crc32_u64(c2, load64(p + 2 * kCrc32cLane + i));
        }
        c = kLaneShift(kLaneShift(static_cast<uint32_t>(c)) ^
                       static_cast<uint32_t>(c1)) ^
            c2;
        p += 3 * kCrc32cLane;
        len -= 3 * kCrc32cLane;
    }
    while (len >= 8) {
        c = _mm_crc32_u64(c, load64(p));
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
