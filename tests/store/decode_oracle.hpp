/**
 * @file
 * The bit-at-a-time chunk decoder that store::decodeChunk replaced,
 * kept as the test oracle.  It refills one byte at a time and checks
 * bounds, range and codec for every sample: slow, but each check sits
 * next to the read it guards.  The differential suite asserts that the
 * production decoder returns the same verdict on every payload and
 * bit-identical samples on every payload both accept.
 */

#ifndef EMPROF_TESTS_STORE_DECODE_ORACLE_HPP
#define EMPROF_TESTS_STORE_DECODE_ORACLE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "dsp/types.hpp"
#include "store/emcap_format.hpp"

namespace emprof::store::oracle {

inline int64_t
unzigzag(uint64_t z)
{
    return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

inline dsp::Sample
intToSample(int64_t v, SampleCodec codec, float scale)
{
    if (codec == SampleCodec::F32) {
        const auto u = static_cast<uint32_t>(v);
        float x;
        std::memcpy(&x, &u, sizeof(x));
        return x;
    }
    return static_cast<float>(v) * scale;
}

inline bool
intInRange(int64_t v, SampleCodec codec)
{
    if (codec == SampleCodec::F32)
        return v >= 0 && v <= 0xFFFFFFFFll;
    return v >= -32768 && v <= 32767;
}

struct BitReader
{
    const uint8_t *p;
    const uint8_t *end;
    uint64_t acc = 0;
    unsigned bits = 0;

    bool
    get(unsigned width, uint64_t &v)
    {
        while (bits < width) {
            if (p == end)
                return false;
            acc |= static_cast<uint64_t>(*p++) << bits;
            bits += 8;
        }
        v = width == 0 ? 0 : acc & (~uint64_t{0} >> (64 - width));
        acc >>= width;
        bits -= width;
        return true;
    }

    void
    byteAlign()
    {
        acc = 0;
        bits = 0;
    }
};

/** Same contract as store::decodeChunk. */
inline bool
decodeChunk(const uint8_t *payload, std::size_t payloadBytes,
            ChunkEncoding encoding, SampleCodec codec, float scale,
            std::size_t count, dsp::Sample *out)
{
    constexpr std::size_t kMiniblock = 128;
    constexpr unsigned kMaxWidth = 40;

    if (codec != SampleCodec::F32 && codec != SampleCodec::QuantI16)
        return false;
    if (count == 0)
        return payloadBytes == 0;

    if (encoding == ChunkEncoding::Raw) {
        const std::size_t width = codec == SampleCodec::F32 ? 4 : 2;
        if (payloadBytes != count * width)
            return false;
        if (codec == SampleCodec::F32) {
            std::memcpy(out, payload, payloadBytes);
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                int16_t q;
                std::memcpy(&q, payload + 2 * i, 2);
                out[i] = static_cast<float>(q) * scale;
            }
        }
        return true;
    }

    if (encoding != ChunkEncoding::DeltaPacked || payloadBytes < 8)
        return false;

    uint64_t first;
    std::memcpy(&first, payload, 8);
    auto prev = static_cast<int64_t>(first);
    if (!intInRange(prev, codec))
        return false;
    out[0] = intToSample(prev, codec, scale);

    BitReader reader{payload + 8, payload + payloadBytes};
    for (std::size_t g = 1; g < count; g += kMiniblock) {
        const std::size_t n = std::min(kMiniblock, count - g);
        if (reader.p == reader.end)
            return false;
        const unsigned width = *reader.p++;
        if (width > kMaxWidth)
            return false;
        for (std::size_t i = g; i < g + n; ++i) {
            uint64_t z;
            if (!reader.get(width, z))
                return false;
            prev += unzigzag(z);
            if (!intInRange(prev, codec))
                return false;
            out[i] = intToSample(prev, codec, scale);
        }
        reader.byteAlign();
    }
    return reader.p == reader.end;
}

} // namespace emprof::store::oracle

#endif // EMPROF_TESTS_STORE_DECODE_ORACLE_HPP
