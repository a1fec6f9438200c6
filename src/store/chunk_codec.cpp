#include "store/chunk_codec.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "store/chunk_codec_detail.hpp"

namespace emprof::store {

namespace {

using detail::kMaxWidth;
using detail::kMiniblock;

uint64_t
zigzag(int64_t d)
{
    return (static_cast<uint64_t>(d) << 1) ^
           static_cast<uint64_t>(d >> 63);
}

/** Integer a chunk sample maps to before delta coding. */
int64_t
sampleToInt(dsp::Sample x, SampleCodec codec, float scale, unsigned bits)
{
    if (codec == SampleCodec::F32) {
        uint32_t u;
        std::memcpy(&u, &x, sizeof(u));
        return static_cast<int64_t>(u);
    }
    return quantize(x, scale, bits);
}

struct BitWriter
{
    std::vector<uint8_t> &out;
    uint64_t acc = 0;
    unsigned bits = 0;

    void
    put(uint64_t v, unsigned width)
    {
        if (width == 0)
            return;
        acc |= (v & (~uint64_t{0} >> (64 - width))) << bits;
        bits += width;
        while (bits >= 8) {
            out.push_back(static_cast<uint8_t>(acc));
            acc >>= 8;
            bits -= 8;
        }
    }

    void
    byteAlign()
    {
        if (bits != 0) {
            out.push_back(static_cast<uint8_t>(acc));
            acc = 0;
            bits = 0;
        }
    }
};

// The unpackers read the little-endian bit stream with plain unaligned
// loads, which is only the format's byte order on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "EMCAP decode assumes a little-endian host");

/** Bytes one miniblock can occupy: 128 deltas at the widest width. */
constexpr std::size_t kMaxBlockBytes = kMiniblock * kMaxWidth / 8;

uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/**
 * The two sample codecs' integer domains.  Integers travel as the
 * two's-complement bit pattern in a uint64_t so that a corrupt delta
 * can never overflow a signed add: within one miniblock a value drifts
 * at most 128 deltas of < 2^39 from an in-range start.  outOfRange()
 * is nonzero exactly when the value is not one the codec can hold:
 * an f32 bit pattern in [0, 2^32) or an i16 in [-32768, 32767].
 */
struct F32Ints
{
    static constexpr SampleCodec kCodec = SampleCodec::F32;

    static uint64_t outOfRange(uint64_t v) { return v >> 32; }

    static dsp::Sample
    toSample(uint64_t v, float)
    {
        return std::bit_cast<float>(static_cast<uint32_t>(v));
    }
};

struct I16Ints
{
    static constexpr SampleCodec kCodec = SampleCodec::QuantI16;

    static uint64_t outOfRange(uint64_t v) { return (v + 32768) >> 16; }

    static dsp::Sample
    toSample(uint64_t v, float scale)
    {
        return static_cast<float>(static_cast<int64_t>(v)) * scale;
    }
};

/**
 * Unpack one miniblock (detail::unpackBlockScalar's contract, one codec).
 * Every value's bits lie inside one unaligned 8-byte load (7 + 40 < 64),
 * so it reads at most 8 bytes past each value's first byte.  The range
 * test is checked once per block, not per sample.
 */
template <class Ints>
uint64_t
unpackBlock(const uint8_t *in, unsigned width, std::size_t n,
            uint64_t &prev, float scale, dsp::Sample *out)
{
    const uint64_t mask = (uint64_t{1} << width) - 1;
    uint64_t v = prev;
    uint64_t bad = 0;
    std::size_t bit = 0;
    for (std::size_t i = 0; i < n; ++i, bit += width) {
        const uint64_t z = (load64(in + (bit >> 3)) >> (bit & 7)) & mask;
        v += (z >> 1) ^ (0 - (z & 1)); // un-zig-zag, wrapping
        bad |= Ints::outOfRange(v);
        out[i] = Ints::toSample(v, scale);
    }
    prev = v;
    return bad;
}

/** The block unpacker this process uses, chosen from the build and the
 *  CPU. */
detail::UnpackFn
chooseUnpacker()
{
#if !defined(EMPROF_DISABLE_SIMD)
    if (detail::unpackAvx2Available())
        return detail::unpackBlockAvx2;
#endif
    return detail::unpackBlockScalar;
}

/** DeltaPacked decode for one codec; @p payloadBytes >= 8. */
template <class Ints>
bool
decodePacked(const uint8_t *payload, std::size_t payloadBytes,
             float scale, std::size_t count, dsp::Sample *out)
{
    static const detail::UnpackFn unpack = chooseUnpacker();

    uint64_t prev = load64(payload);
    if (Ints::outOfRange(prev) != 0)
        return false;
    out[0] = Ints::toSample(prev, scale);

    const uint8_t *p = payload + 8;
    const uint8_t *const end = payload + payloadBytes;
    uint8_t padded[kMaxBlockBytes + detail::kUnpackSlack] = {};
    for (std::size_t g = 1; g < count; g += kMiniblock) {
        const std::size_t n = std::min(kMiniblock, count - g);
        if (p == end)
            return false;
        const unsigned width = *p++;
        if (width > kMaxWidth)
            return false;
        const std::size_t bytes = (n * width + 7) / 8;
        const auto left = static_cast<std::size_t>(end - p);
        if (bytes > left)
            return false;
        // A block too close to the payload end for the unpacker's
        // loads (in practice only the last) is decoded from a padded
        // copy.
        const uint8_t *in = p;
        if (left - bytes < detail::kUnpackSlack) {
            std::memcpy(padded, p, bytes);
            std::memset(padded + bytes, 0, detail::kUnpackSlack);
            in = padded;
        }
        if (unpack(in, width, n, Ints::kCodec, scale, prev, out + g) != 0)
            return false;
        p += bytes;
    }
    // The encoder emits exactly this many bytes; anything trailing is
    // corruption the CRC may have missed only in adversarial settings.
    return p == end;
}

} // namespace

namespace detail {

uint64_t
unpackBlockScalar(const uint8_t *in, unsigned width, std::size_t n,
                  SampleCodec codec, float scale, uint64_t &prev,
                  dsp::Sample *out)
{
    return codec == SampleCodec::F32
               ? unpackBlock<F32Ints>(in, width, n, prev, scale, out)
               : unpackBlock<I16Ints>(in, width, n, prev, scale, out);
}

bool
unpackAvx2Available()
{
#if !defined(EMPROF_DISABLE_SIMD)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

} // namespace detail

int32_t
quantize(dsp::Sample x, float scale, unsigned bits)
{
    const auto qmax =
        static_cast<int32_t>((uint32_t{1} << (bits - 1)) - 1);
    if (!(scale > 0.0f) || !std::isfinite(x))
        return 0;
    const long q = std::lround(static_cast<double>(x) /
                               static_cast<double>(scale));
    if (q > qmax)
        return qmax;
    if (q < -qmax)
        return -qmax;
    return static_cast<int32_t>(q);
}

EncodedChunk
encodeChunk(const dsp::Sample *samples, std::size_t count,
            const EncoderOptions &options)
{
    EncodedChunk chunk;

    if (options.codec == SampleCodec::QuantI16) {
        float max_abs = 0.0f;
        for (std::size_t i = 0; i < count; ++i) {
            const float a = std::fabs(samples[i]);
            if (std::isfinite(a) && a > max_abs)
                max_abs = a;
        }
        const auto qmax = static_cast<float>(
            (uint32_t{1} << (options.quantBits - 1)) - 1);
        // Floor at the smallest normal float: an all-denormal chunk
        // would otherwise underflow the scale to 0, which quantize()
        // treats as invalid and the whole chunk would decode as zeros.
        chunk.scale = max_abs > 0.0f
                          ? std::max(max_abs / qmax, FLT_MIN)
                          : 1.0f;
    }

    if (count == 0)
        return chunk;

    // Integer stream, then zig-zagged deltas of it.
    std::vector<int64_t> values(count);
    for (std::size_t i = 0; i < count; ++i)
        values[i] = sampleToInt(samples[i], options.codec, chunk.scale,
                                options.quantBits);

    const std::size_t raw_bytes =
        count * (options.codec == SampleCodec::F32 ? 4 : 2);

    std::size_t packed_bytes = 0;
    std::vector<uint8_t> widths;
    if (options.compress) {
        packed_bytes = 8; // first value, stored verbatim
        for (std::size_t g = 1; g < count; g += kMiniblock) {
            const std::size_t n = std::min(kMiniblock, count - g);
            uint64_t worst = 0;
            for (std::size_t i = g; i < g + n; ++i)
                worst |= zigzag(values[i] - values[i - 1]);
            const auto width =
                static_cast<unsigned>(std::bit_width(worst));
            widths.push_back(static_cast<uint8_t>(width));
            packed_bytes += 1 + (n * width + 7) / 8;
        }
    }

    if (!options.compress || packed_bytes >= raw_bytes) {
        // Raw passthrough: verbatim little-endian integer array.
        chunk.encoding = ChunkEncoding::Raw;
        chunk.payload.resize(raw_bytes);
        if (options.codec == SampleCodec::F32) {
            std::memcpy(chunk.payload.data(), samples, raw_bytes);
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                const auto q = static_cast<int16_t>(values[i]);
                std::memcpy(chunk.payload.data() + 2 * i, &q, 2);
            }
        }
        return chunk;
    }

    chunk.encoding = ChunkEncoding::DeltaPacked;
    chunk.payload.reserve(packed_bytes);
    chunk.payload.resize(8);
    const auto first = static_cast<uint64_t>(values[0]);
    std::memcpy(chunk.payload.data(), &first, 8);

    BitWriter writer{chunk.payload};
    std::size_t block = 0;
    for (std::size_t g = 1; g < count; g += kMiniblock) {
        const std::size_t n = std::min(kMiniblock, count - g);
        const unsigned width = widths[block++];
        chunk.payload.push_back(static_cast<uint8_t>(width));
        for (std::size_t i = g; i < g + n; ++i)
            writer.put(zigzag(values[i] - values[i - 1]), width);
        writer.byteAlign();
    }
    return chunk;
}

bool
decodeChunk(const uint8_t *payload, std::size_t payloadBytes,
            ChunkEncoding encoding, SampleCodec codec, float scale,
            std::size_t count, dsp::Sample *out)
{
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
    return codec == SampleCodec::F32
               ? decodePacked<F32Ints>(payload, payloadBytes, scale, count,
                                       out)
               : decodePacked<I16Ints>(payload, payloadBytes, scale, count,
                                       out);
}

uint64_t
maxChunkSamples(uint64_t payloadBytes, ChunkEncoding encoding,
                SampleCodec codec)
{
    if (codec != SampleCodec::F32 && codec != SampleCodec::QuantI16)
        return 0;
    if (encoding == ChunkEncoding::Raw)
        return payloadBytes / (codec == SampleCodec::F32 ? 4 : 2);
    if (encoding != ChunkEncoding::DeltaPacked || payloadBytes < 8)
        return 0;
    // The verbatim first value, then at best one width-0 miniblock of
    // 128 deltas per remaining byte.
    return kMiniblock * (payloadBytes - 8) + 1;
}

} // namespace emprof::store
