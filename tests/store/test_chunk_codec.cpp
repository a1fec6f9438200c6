/**
 * @file
 * Chunk codec tests: the F32 path must be bit-exact, the QuantI16 path
 * must honour the scale/2 error bound, and decode must reject anything
 * that does not reproduce the declared sample count exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "dsp/rng.hpp"
#include "store/chunk_codec.hpp"

namespace emprof::store {
namespace {

std::vector<dsp::Sample>
plateauSignal(std::size_t n, uint64_t seed)
{
    std::vector<dsp::Sample> s(n, 1.0f);
    dsp::Rng rng(seed);
    for (auto &x : s)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    for (std::size_t i = n / 3; i < n / 3 + 40 && i < n; ++i)
        s[i] = 0.2f; // a dip, as the detector would see
    return s;
}

std::vector<dsp::Sample>
roundTrip(const std::vector<dsp::Sample> &in,
          const EncoderOptions &options)
{
    const auto enc = encodeChunk(in.data(), in.size(), options);
    std::vector<dsp::Sample> out(in.size());
    EXPECT_TRUE(decodeChunk(enc.payload.data(), enc.payload.size(),
                            enc.encoding, options.codec, enc.scale,
                            in.size(), out.data()));
    return out;
}

TEST(ChunkCodec, F32RoundTripIsBitExact)
{
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{127}, std::size_t{128},
                                std::size_t{129}, std::size_t{5000}}) {
        const auto in = plateauSignal(n, 11 + n);
        const auto out = roundTrip(in, EncoderOptions{});
        ASSERT_EQ(out.size(), in.size());
        // Bit patterns, not just values: NaN payloads and -0.0f must
        // survive, since "lossless" is what makes EMCAP-fed analysis
        // bit-identical to the raw path.
        if (n != 0) {
            EXPECT_EQ(std::memcmp(out.data(), in.data(),
                                  n * sizeof(dsp::Sample)),
                      0)
                << "n=" << n;
        }
    }
}

TEST(ChunkCodec, F32PreservesSpecialValues)
{
    std::vector<dsp::Sample> in = {
        0.0f,
        -0.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::max(),
        -1e-30f,
    };
    const auto out = roundTrip(in, EncoderOptions{});
    EXPECT_EQ(std::memcmp(out.data(), in.data(),
                          in.size() * sizeof(dsp::Sample)),
              0);
}

TEST(ChunkCodec, QuantI16ErrorBoundedByHalfScale)
{
    for (const unsigned bits : {2u, 8u, 12u, 16u}) {
        const auto in = plateauSignal(4000, bits);
        EncoderOptions opt;
        opt.codec = SampleCodec::QuantI16;
        opt.quantBits = bits;
        const auto enc = encodeChunk(in.data(), in.size(), opt);
        ASSERT_GT(enc.scale, 0.0f);
        std::vector<dsp::Sample> out(in.size());
        ASSERT_TRUE(decodeChunk(enc.payload.data(), enc.payload.size(),
                                enc.encoding, opt.codec, enc.scale,
                                in.size(), out.data()));
        for (std::size_t i = 0; i < in.size(); ++i) {
            ASSERT_LE(std::abs(out[i] - in[i]), enc.scale * 0.5f + 1e-7f)
                << "bits=" << bits << " i=" << i;
        }
    }
}

TEST(ChunkCodec, QuantizeClampsAndZeroesNaN)
{
    const float scale = 0.01f;
    EXPECT_EQ(quantize(1e9f, scale, 16), 32767);
    EXPECT_EQ(quantize(-1e9f, scale, 16), -32767);
    EXPECT_EQ(quantize(std::numeric_limits<float>::quiet_NaN(), scale,
                       16),
              0);
    EXPECT_EQ(quantize(0.0049f, scale, 16), 0);  // rounds down
    EXPECT_EQ(quantize(0.0051f, scale, 16), 1);  // rounds up
    EXPECT_EQ(quantize(-0.0051f, scale, 16), -1);
}

TEST(ChunkCodec, CompressibleSignalActuallyCompresses)
{
    const auto in = plateauSignal(65536, 99);
    EncoderOptions opt;
    opt.codec = SampleCodec::QuantI16;
    const auto enc = encodeChunk(in.data(), in.size(), opt);
    EXPECT_EQ(enc.encoding, ChunkEncoding::DeltaPacked);
    // The i16 acceptance bar: at least 2x smaller than raw f32.
    EXPECT_LT(enc.payload.size(), in.size() * sizeof(float) / 2);
}

TEST(ChunkCodec, IncompressibleSignalFallsBackToRaw)
{
    // White noise over the full float range defeats delta packing; the
    // encoder must fall back rather than inflate.
    std::vector<dsp::Sample> in(4096);
    dsp::Rng rng(7);
    for (auto &x : in)
        x = static_cast<float>((rng.uniform() - 0.5) * 2e30);
    const auto enc = encodeChunk(in.data(), in.size(), EncoderOptions{});
    EXPECT_EQ(enc.encoding, ChunkEncoding::Raw);
    EXPECT_EQ(enc.payload.size(), in.size() * sizeof(float));
}

TEST(ChunkCodec, NoCompressForcesRawEncoding)
{
    const auto in = plateauSignal(1000, 3);
    EncoderOptions opt;
    opt.compress = false;
    const auto enc = encodeChunk(in.data(), in.size(), opt);
    EXPECT_EQ(enc.encoding, ChunkEncoding::Raw);
    const auto out = roundTrip(in, opt);
    EXPECT_EQ(std::memcmp(out.data(), in.data(),
                          in.size() * sizeof(dsp::Sample)),
              0);
}

TEST(ChunkCodec, DecodeRejectsTruncatedOrPaddedPayloads)
{
    const auto in = plateauSignal(1000, 21);
    const auto enc = encodeChunk(in.data(), in.size(), EncoderOptions{});
    ASSERT_EQ(enc.encoding, ChunkEncoding::DeltaPacked);
    std::vector<dsp::Sample> out(in.size());

    // Truncated payload at several cut points.
    for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                  std::size_t{8},
                                  enc.payload.size() - 1}) {
        EXPECT_FALSE(decodeChunk(enc.payload.data(), cut, enc.encoding,
                                 SampleCodec::F32, enc.scale, in.size(),
                                 out.data()))
            << "cut=" << cut;
    }
    // Trailing garbage must be rejected too (exact consumption).
    auto padded = enc.payload;
    padded.push_back(0xAB);
    EXPECT_FALSE(decodeChunk(padded.data(), padded.size(), enc.encoding,
                             SampleCodec::F32, enc.scale, in.size(),
                             out.data()));
    // Wrong declared sample count.
    std::vector<dsp::Sample> big(in.size() + 1);
    EXPECT_FALSE(decodeChunk(enc.payload.data(), enc.payload.size(),
                             enc.encoding, SampleCodec::F32, enc.scale,
                             big.size(), big.data()));
    // Raw encoding with a size that is not count * 4.
    EXPECT_FALSE(decodeChunk(enc.payload.data(), enc.payload.size(),
                             ChunkEncoding::Raw, SampleCodec::F32,
                             enc.scale, in.size(), out.data()));
}

TEST(ChunkCodec, MaxChunkSamplesIsTheTightBound)
{
    using E = ChunkEncoding;
    using C = SampleCodec;
    EXPECT_EQ(maxChunkSamples(20, E::Raw, C::F32), 5u);
    EXPECT_EQ(maxChunkSamples(21, E::Raw, C::F32), 5u);
    EXPECT_EQ(maxChunkSamples(20, E::Raw, C::QuantI16), 10u);
    EXPECT_EQ(maxChunkSamples(7, E::DeltaPacked, C::F32), 0u);
    EXPECT_EQ(maxChunkSamples(8, E::DeltaPacked, C::F32), 1u);
    EXPECT_EQ(maxChunkSamples(20, E::DeltaPacked, C::QuantI16), 1537u);
    EXPECT_EQ(maxChunkSamples(0xFFFFFFFFu, E::DeltaPacked, C::F32),
              128 * (uint64_t{0xFFFFFFFF} - 8) + 1);
    EXPECT_EQ(maxChunkSamples(64, static_cast<E>(7), C::F32), 0u);
    EXPECT_EQ(maxChunkSamples(64, E::Raw, static_cast<C>(0)), 0u);

    // Reachable: a first value then only width-0 miniblocks decodes to
    // exactly the bound, and one sample more is malformed.
    for (const std::size_t payload_bytes : {8u, 9u, 20u}) {
        std::vector<uint8_t> payload(payload_bytes, 0);
        const auto bound = static_cast<std::size_t>(maxChunkSamples(
            payload_bytes, E::DeltaPacked, C::F32));
        std::vector<dsp::Sample> out(bound + 1);
        EXPECT_TRUE(decodeChunk(payload.data(), payload.size(),
                                E::DeltaPacked, C::F32, 1.0f, bound,
                                out.data()))
            << payload_bytes;
        EXPECT_FALSE(decodeChunk(payload.data(), payload.size(),
                                 E::DeltaPacked, C::F32, 1.0f, bound + 1,
                                 out.data()))
            << payload_bytes;
    }

    // Every encoder output respects it.
    for (const std::size_t n : {1u, 2u, 129u, 5000u}) {
        const auto in = plateauSignal(n, n);
        for (const C codec : {C::F32, C::QuantI16}) {
            for (const bool compress : {true, false}) {
                EncoderOptions opt;
                opt.codec = codec;
                opt.compress = compress;
                const auto enc = encodeChunk(in.data(), n, opt);
                EXPECT_LE(n, maxChunkSamples(enc.payload.size(),
                                             enc.encoding, codec));
            }
        }
    }
}

} // namespace
} // namespace emprof::store
