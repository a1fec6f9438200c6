/**
 * @file
 * AVX2 miniblock unpack for store::decodeChunk's DeltaPacked path.
 *
 * This translation unit is compiled with -mavx2.  decodeChunk() calls
 * it only after unpackAvx2Available() has checked the CPU, and it holds
 * no code that runs before that.
 *
 * Four values per step.  A group of four values at `width` bits spans
 * at most 4 + 4·40 bits from its first byte, so two 16-byte loads from
 * inside the 32 bytes there hold it: one at the group's first byte for
 * values 0 and 1, one at value 2's first byte for values 2 and 3.
 * `vpshufb` lays each value's 8-byte window into its own 64-bit lane,
 * and `vpsrlvq` plus a mask extract it, exactly as the scalar loop's
 * load, shift and mask do.  The deltas are un-zig-zagged and summed
 * into the running value in registers: an in-group prefix sum, plus a
 * carry from group to group that costs one add.  Each value's range
 * test is ORed into one register, tested once per block.  Only the last
 * n mod 4 values of a block take the scalar loop.
 *
 * Eight values fill exactly `width` bytes, so a group's first bit is
 * bit 0 of its first byte, or bit 4 for the second group of eight at an
 * odd width; the shuffle controls are compile-time tables per width and
 * first bit (kLayouts).
 */

#if !defined(__AVX2__)
#error "chunk_codec_avx2.cpp must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include <cstring>

#include "store/chunk_codec_detail.hpp"

namespace emprof::store::detail {

namespace {

/**
 * Where a group of four values lies, at one width and first bit 4·s:
 * value j starts at bit (4s + j·width) % 8 of byte (4s + j·width) / 8.
 * The high 16-byte load starts at value 2's byte; value 3 starts at most
 * 5 bytes later, so every lane's 8 bytes lie inside its half, and the
 * load ends by byte (4 + 2·40) / 8 + 16 = 26 of the group's 32.
 */
struct GroupLayout
{
    alignas(32) uint8_t bytes[32]; ///< vpshufb: each lane's 8 bytes
    alignas(32) uint64_t shift[4]; ///< vpsrlvq: each value's first bit
    unsigned high;                 ///< byte of the high half's load
};

struct Layouts
{
    GroupLayout at[kMaxWidth + 1][2];

    constexpr Layouts() : at{}
    {
        for (unsigned w = 0; w <= kMaxWidth; ++w) {
            for (unsigned s = 0; s < 2; ++s) {
                GroupLayout &g = at[w][s];
                g.high = (4 * s + 2 * w) / 8;
                for (unsigned j = 0; j < 4; ++j) {
                    const unsigned bit = 4 * s + j * w;
                    const unsigned from = bit / 8 - (j < 2 ? 0 : g.high);
                    g.shift[j] = bit % 8;
                    for (unsigned t = 0; t < 8; ++t)
                        g.bytes[8 * j + t] = static_cast<uint8_t>(from + t);
                }
            }
        }
    }
};

constexpr Layouts kLayouts{};

/** A GroupLayout in registers. */
struct Controls
{
    __m256i bytes, shift;
    unsigned high;

    explicit Controls(const GroupLayout &g)
        : bytes(_mm256_load_si256(reinterpret_cast<const __m256i *>(g.bytes))),
          shift(_mm256_load_si256(reinterpret_cast<const __m256i *>(g.shift))),
          high(g.high)
    {}
};

/**
 * The codecs, as in chunk_codec.cpp: a value is in range iff
 * (v + kBias) >> kRangeBits == 0, and store() writes eight samples
 * from eight values' low dwords (exact for in-range values).
 */
struct F32Ints
{
    static constexpr uint64_t kBias = 0;
    static constexpr int kRangeBits = 32;

    static void
    store(__m256i low, float, dsp::Sample *out)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out), low);
    }

    static dsp::Sample
    toSample(uint64_t v, float)
    {
        const auto u = static_cast<uint32_t>(v);
        float x = 0.0f;
        std::memcpy(&x, &u, sizeof(x));
        return x;
    }
};

struct I16Ints
{
    static constexpr uint64_t kBias = 32768;
    static constexpr int kRangeBits = 16;

    static void
    store(__m256i low, float scale, dsp::Sample *out)
    {
        _mm256_storeu_ps(out, _mm256_mul_ps(_mm256_cvtepi32_ps(low),
                                            _mm256_set1_ps(scale)));
    }

    static dsp::Sample
    toSample(uint64_t v, float scale)
    {
        return static_cast<float>(static_cast<int64_t>(v)) * scale;
    }
};

/** The running values of the four values at @p src: unpacked,
 *  un-zig-zagged and summed onto @p carry, which moves past them.
 *  Their biased values are ORed into @p seen. */
template <class Ints>
inline __m256i
group(const uint8_t *src, const Controls &c, __m256i mask, __m256i &carry,
      __m256i &seen)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i raw = _mm256_loadu2_m128i(
        reinterpret_cast<const __m128i *>(src + c.high),
        reinterpret_cast<const __m128i *>(src));
    __m256i z = _mm256_shuffle_epi8(raw, c.bytes);
    z = _mm256_and_si256(_mm256_srlv_epi64(z, c.shift), mask);
    // Un-zig-zag: (z >> 1) ^ -(z & 1).
    __m256i d = _mm256_xor_si256(
        _mm256_srli_epi64(z, 1),
        _mm256_sub_epi64(zero, _mm256_and_si256(z, _mm256_set1_epi64x(1))));
    // Prefix sum over the lanes: pairs within each half, then the low
    // half's total into the high half.
    d = _mm256_add_epi64(d, _mm256_slli_si256(d, 8));
    d = _mm256_add_epi64(
        d, _mm256_blend_epi32(
               zero, _mm256_permute4x64_epi64(d, _MM_SHUFFLE(1, 1, 1, 1)),
               0xF0));
    const __m256i v = _mm256_add_epi64(d, carry);
    carry = _mm256_add_epi64(
        carry, _mm256_permute4x64_epi64(d, _MM_SHUFFLE(3, 3, 3, 3)));
    if constexpr (Ints::kBias != 0)
        seen = _mm256_or_si256(
            seen, _mm256_add_epi64(v, _mm256_set1_epi64x(Ints::kBias)));
    else
        seen = _mm256_or_si256(seen, v);
    return v;
}

/** The low dwords of @p a's four lanes, then of @p b's. */
__m256i
lowDwords(__m256i a, __m256i b)
{
    const __m256 pairs =
        _mm256_shuffle_ps(_mm256_castsi256_ps(a), _mm256_castsi256_ps(b),
                          _MM_SHUFFLE(2, 0, 2, 0));
    return _mm256_permute4x64_epi64(_mm256_castps_si256(pairs),
                                    _MM_SHUFFLE(3, 1, 2, 0));
}

template <class Ints>
uint64_t
unpack(const uint8_t *in, unsigned width, std::size_t n, uint64_t &prev,
       float scale, dsp::Sample *out)
{
    const uint64_t mask = (uint64_t{1} << width) - 1;
    const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
    const Controls even(kLayouts.at[width][0]);
    const Controls odd(kLayouts.at[width][width % 2]);
    const std::size_t oddByte = 4 * width / 8;
    __m256i carry = _mm256_set1_epi64x(static_cast<long long>(prev));
    __m256i seen = _mm256_setzero_si256();

    std::size_t i = 0;
    const uint8_t *src = in;
    for (; i + 8 <= n; i += 8, src += width) {
        const __m256i a = group<Ints>(src, even, vmask, carry, seen);
        const __m256i b = group<Ints>(src + oddByte, odd, vmask, carry, seen);
        Ints::store(lowDwords(a, b), scale, out + i);
    }
    if (i + 4 <= n) {
        const __m256i a = group<Ints>(src, even, vmask, carry, seen);
        alignas(32) dsp::Sample four[8];
        Ints::store(lowDwords(a, a), scale, four);
        std::memcpy(out + i, four, 4 * sizeof(dsp::Sample));
        i += 4;
    }

    uint64_t v = static_cast<uint64_t>(
        _mm_cvtsi128_si64(_mm256_castsi256_si128(carry)));
    const __m256i high = _mm256_srli_epi64(seen, Ints::kRangeBits);
    uint64_t bad = _mm256_testz_si256(high, high) ? 0 : 1;
    for (std::size_t bit = i * width; i < n; ++i, bit += width) {
        uint64_t word = 0;
        std::memcpy(&word, in + bit / 8, sizeof(word));
        const uint64_t z = (word >> (bit % 8)) & mask;
        v += (z >> 1) ^ (0 - (z & 1));
        bad |= (v + Ints::kBias) >> Ints::kRangeBits;
        out[i] = Ints::toSample(v, scale);
    }
    prev = v;
    return bad;
}

} // namespace

uint64_t
unpackBlockAvx2(const uint8_t *in, unsigned width, std::size_t n,
                SampleCodec codec, float scale, uint64_t &prev,
                dsp::Sample *out)
{
    return codec == SampleCodec::F32
               ? unpack<F32Ints>(in, width, n, prev, scale, out)
               : unpack<I16Ints>(in, width, n, prev, scale, out);
}

} // namespace emprof::store::detail
