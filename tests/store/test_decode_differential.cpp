/**
 * @file
 * Differential suite for the chunk decoder, below the CRC.
 *
 * Whole-file fuzzing (test_store_fuzz.cpp) mostly dies at the chunk
 * CRC before decodeChunk sees a byte, so here payloads are built and
 * mutated directly.  On every payload, store::decodeChunk must give the
 * verdict of the bit-at-a-time oracle (decode_oracle.hpp) and, when
 * both accept, bit-identical samples.  Payloads and outputs live in
 * exact-size heap buffers, so under ASan/UBSan any read past the
 * payload or write past the declared count is caught as well.
 *
 * The UnpackKernels cases go one layer down, to the miniblock
 * unpackers behind decodeChunk (chunk_codec_detail.hpp): the scalar
 * loop and, where the build and CPU have it, the AVX2 kernel, each
 * held to the oracle block by block.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "decode_oracle.hpp"
#include "dsp/rng.hpp"
#include "store/chunk_codec.hpp"
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

int64_t
lowest(SampleCodec codec)
{
    return codec == SampleCodec::F32 ? 0 : -32768;
}

int64_t
highest(SampleCodec codec)
{
    return codec == SampleCodec::F32 ? 0xFFFFFFFFll : 32767;
}

/**
 * Decode @p payload with both decoders and compare.  @p accepted (if
 * given) receives the shared verdict.
 */
::testing::AssertionResult
agree(const std::vector<uint8_t> &payload, ChunkEncoding encoding,
      SampleCodec codec, float scale, std::size_t count,
      bool *accepted = nullptr)
{
    const auto bytes = std::make_unique<uint8_t[]>(payload.size());
    if (!payload.empty())
        std::memcpy(bytes.get(), payload.data(), payload.size());
    std::vector<dsp::Sample> got(count);
    std::vector<dsp::Sample> want(count);
    const bool g = decodeChunk(bytes.get(), payload.size(), encoding,
                               codec, scale, count, got.data());
    const bool w = oracle::decodeChunk(bytes.get(), payload.size(),
                                       encoding, codec, scale, count,
                                       want.data());
    if (g != w)
        return ::testing::AssertionFailure()
               << "verdict differs: decodeChunk " << g << ", oracle "
               << w << " (payload " << payload.size() << " B, count "
               << count << ")";
    if (g && count != 0 &&
        std::memcmp(got.data(), want.data(),
                    count * sizeof(dsp::Sample)) != 0)
        return ::testing::AssertionFailure()
               << "samples differ (payload " << payload.size()
               << " B, count " << count << ")";
    if (accepted != nullptr)
        *accepted = g;
    return ::testing::AssertionSuccess();
}

/**
 * Lay @p values out as a DeltaPacked payload: the first value verbatim,
 * then each miniblock's zig-zag deltas at @p width bits, or at the
 * block's minimal width when @p width is negative.  Block b takes
 * @p widths[b] instead when given.  Values need not be in range: that
 * is how the out-of-range cases are made.
 */
std::vector<uint8_t>
packValues(const std::vector<int64_t> &values, int width = -1,
           const std::vector<unsigned> &widths = {})
{
    std::vector<uint8_t> out(8);
    const auto first = static_cast<uint64_t>(values.at(0));
    std::memcpy(out.data(), &first, 8);
    for (std::size_t g = 1; g < values.size(); g += kMiniblock) {
        const std::size_t n = std::min(kMiniblock, values.size() - g);
        uint64_t worst = 0;
        for (std::size_t i = g; i < g + n; ++i)
            worst |= zigzag(values[i] - values[i - 1]);
        const std::size_t block = g / kMiniblock;
        const auto w = block < widths.size() ? widths[block]
                       : width >= 0
                           ? static_cast<unsigned>(width)
                           : static_cast<unsigned>(std::bit_width(worst));
        out.push_back(static_cast<uint8_t>(w));
        uint64_t acc = 0;
        unsigned bits = 0;
        for (std::size_t i = g; i < g + n; ++i) {
            const uint64_t z = zigzag(values[i] - values[i - 1]);
            // Bit by bit: slow, and independent of the encoder's packer.
            for (unsigned b = 0; b < w; ++b) {
                acc |= ((z >> b) & 1u) << bits;
                if (++bits == 8) {
                    out.push_back(static_cast<uint8_t>(acc));
                    acc = 0;
                    bits = 0;
                }
            }
        }
        if (bits != 0)
            out.push_back(static_cast<uint8_t>(acc));
    }
    return out;
}

/**
 * @p count in-range values whose every delta zig-zags into @p width
 * bits: a random walk that stays inside the codec's range.
 */
std::vector<int64_t>
walk(SampleCodec codec, std::size_t count, unsigned width, dsp::Rng &rng)
{
    const int64_t lo = lowest(codec);
    const int64_t hi = highest(codec);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    const uint64_t zmax = (uint64_t{1} << width) - 1;
    std::vector<int64_t> values(count);
    values[0] = lo + static_cast<int64_t>(rng.below(span));
    for (std::size_t i = 1; i < count; ++i) {
        const int64_t prev = values[i - 1];
        int64_t next = prev;
        bool found = false;
        for (int attempt = 0; attempt < 8 && !found; ++attempt) {
            // The widest delta a block allows, now and then.
            const uint64_t z = attempt == 0 && rng.chance(0.1)
                                   ? zmax
                                   : rng() & zmax;
            const int64_t step =
                static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
            if (prev + step >= lo && prev + step <= hi) {
                next = prev + step;
                found = true;
            }
        }
        if (!found) {
            // Wide widths: any in-range step fits, so aim anywhere.
            const int64_t target =
                lo + static_cast<int64_t>(rng.below(span));
            if (zigzag(target - prev) <= zmax)
                next = target;
        }
        values[i] = next;
    }
    return values;
}

/**
 * Chunk sizes ≡ 0, 1, 2 and 127 (mod 128): the last miniblock holds
 * 127, all 128 (or, for one sample, no block at all), 1 and 126 deltas.
 */
std::vector<std::size_t>
residueCounts()
{
    std::vector<std::size_t> counts;
    for (std::size_t k = 0; k < 3; ++k)
        for (const std::size_t r : {0u, 1u, 2u, 127u})
            if (k * kMiniblock + r != 0)
                counts.push_back(k * kMiniblock + r);
    return counts;
}

constexpr SampleCodec kCodecs[] = {SampleCodec::F32,
                                   SampleCodec::QuantI16};

TEST(DecodeDifferential, EveryWidthCountResidueAndCodec)
{
    dsp::Rng rng(2024);
    for (const SampleCodec codec : kCodecs) {
        const float scale = codec == SampleCodec::F32 ? 1.0f : 0.003f;
        for (unsigned width = 0; width <= kMaxWidth; ++width) {
            for (const std::size_t count : residueCounts()) {
                const auto values = walk(codec, count, width, rng);
                const auto payload =
                    packValues(values, static_cast<int>(width));
                bool accepted = false;
                ASSERT_TRUE(agree(payload, ChunkEncoding::DeltaPacked,
                                  codec, scale, count, &accepted))
                    << "width " << width << " count " << count;
                EXPECT_TRUE(accepted)
                    << "valid payload rejected: width " << width
                    << " count " << count;
            }
        }
        // Raw chunks of the same sizes, built from real samples.
        for (const std::size_t count : residueCounts()) {
            std::vector<dsp::Sample> samples(count);
            for (auto &x : samples)
                x = static_cast<float>(rng.uniform(-2.0, 2.0));
            EncoderOptions opt;
            opt.codec = codec;
            opt.compress = false;
            const auto enc = encodeChunk(samples.data(), count, opt);
            bool accepted = false;
            ASSERT_TRUE(agree(enc.payload, ChunkEncoding::Raw, codec,
                              enc.scale, count, &accepted));
            EXPECT_TRUE(accepted) << "raw count " << count;
        }
    }
    // The empty chunk: only an empty payload decodes to it.
    EXPECT_TRUE(agree({}, ChunkEncoding::DeltaPacked, SampleCodec::F32,
                      1.0f, 0));
    EXPECT_TRUE(agree({0x00}, ChunkEncoding::Raw, SampleCodec::F32, 1.0f,
                      0));
}

TEST(DecodeDifferential, TruncationBadWidthBytesAndTrailingBytes)
{
    dsp::Rng rng(77);
    for (const SampleCodec codec : kCodecs) {
        for (const unsigned width : {0u, 1u, 7u, 13u, 33u, 40u}) {
            const std::size_t count = 2 * kMiniblock + 45;
            const auto good = packValues(
                walk(codec, count, width, rng), static_cast<int>(width));

            // Truncated at every byte: all rejected, by both.
            for (std::size_t cut = 0; cut < good.size(); ++cut) {
                const std::vector<uint8_t> head(
                    good.begin(),
                    good.begin() + static_cast<std::ptrdiff_t>(cut));
                bool accepted = true;
                ASSERT_TRUE(agree(head, ChunkEncoding::DeltaPacked, codec,
                                  1.0f, count, &accepted))
                    << "width " << width << " cut " << cut;
                EXPECT_FALSE(accepted) << "width " << width << " cut "
                                       << cut;
            }

            // Width bytes past the widest legal width, in the first,
            // middle and last miniblock.
            const std::size_t block_bytes =
                1 + (kMiniblock * width + 7) / 8;
            for (const std::size_t block : {0u, 1u, 2u}) {
                for (const uint8_t bad_width : {uint8_t{41}, uint8_t{255}}) {
                    auto bad = good;
                    bad[8 + block * block_bytes] = bad_width;
                    bool accepted = true;
                    ASSERT_TRUE(agree(bad, ChunkEncoding::DeltaPacked,
                                      codec, 1.0f, count, &accepted));
                    EXPECT_FALSE(accepted)
                        << "width byte " << int(bad_width) << " in block "
                        << block;
                }
            }

            // One trailing byte of any value.
            for (const uint8_t extra : {uint8_t{0x00}, uint8_t{0xAB}}) {
                auto padded = good;
                padded.push_back(extra);
                bool accepted = true;
                ASSERT_TRUE(agree(padded, ChunkEncoding::DeltaPacked,
                                  codec, 1.0f, count, &accepted));
                EXPECT_FALSE(accepted) << "trailing " << int(extra);
            }
        }
    }

    // Raw payloads: every wrong size, on either side.
    for (const SampleCodec codec : kCodecs) {
        const std::size_t count = 37;
        const std::size_t bytes = count * (codec == SampleCodec::F32 ? 4 : 2);
        for (std::size_t size = 0; size <= bytes + 5; ++size) {
            std::vector<uint8_t> payload(size);
            for (auto &b : payload)
                b = static_cast<uint8_t>(rng.below(256));
            bool accepted = false;
            ASSERT_TRUE(agree(payload, ChunkEncoding::Raw, codec, 0.5f,
                              count, &accepted));
            EXPECT_EQ(accepted, size == bytes) << "raw size " << size;
        }
    }
}

TEST(DecodeDifferential, OutOfRangeValuesInFirstMiddleAndLastLane)
{
    dsp::Rng rng(5);
    for (const SampleCodec codec : kCodecs) {
        const int64_t lo = lowest(codec);
        const int64_t hi = highest(codec);
        const std::size_t count = 3 * kMiniblock + 60; // last block: 59

        // The range's own edges are legal anywhere.
        for (const int64_t edge : {lo, hi}) {
            auto values = walk(codec, count, 40, rng);
            values[0] = edge;
            values[kMiniblock + 64] = edge;
            values[count - 1] = edge;
            bool accepted = false;
            ASSERT_TRUE(agree(packValues(values),
                              ChunkEncoding::DeltaPacked, codec, 1.0f,
                              count, &accepted));
            EXPECT_TRUE(accepted) << "edge " << edge;
        }

        // One step outside it, in each lane of each kind of block.
        const int64_t beyond[] = {lo - 1, hi + 1,
                                  codec == SampleCodec::F32
                                      ? int64_t{1} << 33
                                      : int64_t{-100000}};
        for (const int64_t bad_value : beyond) {
            for (const std::size_t block_start :
                 {std::size_t{1}, kMiniblock + 1, 3 * kMiniblock + 1}) {
                const std::size_t n =
                    std::min(kMiniblock, count - block_start);
                for (const std::size_t lane :
                     {std::size_t{0}, n / 2, n - 1}) {
                    auto values = walk(codec, count, 40, rng);
                    values[block_start + lane] = bad_value;
                    bool accepted = true;
                    ASSERT_TRUE(agree(packValues(values),
                                      ChunkEncoding::DeltaPacked, codec,
                                      1.0f, count, &accepted))
                        << "value " << bad_value << " block "
                        << block_start << " lane " << lane;
                    EXPECT_FALSE(accepted);
                }
            }
            // The verbatim first value.
            auto values = walk(codec, count, 40, rng);
            values[0] = bad_value;
            bool accepted = true;
            ASSERT_TRUE(agree(packValues(values),
                              ChunkEncoding::DeltaPacked, codec, 1.0f,
                              count, &accepted));
            EXPECT_FALSE(accepted);
        }

        // First values far outside either range, signed and unsigned.
        for (const uint64_t first :
             {uint64_t{0x7FFFFFFFFFFFFFFF}, uint64_t{0x8000000000000000},
              uint64_t{0xFFFFFFFFFFFF0000}, uint64_t{1} << 32}) {
            std::vector<uint8_t> payload(8);
            std::memcpy(payload.data(), &first, 8);
            bool accepted = true;
            ASSERT_TRUE(agree(payload, ChunkEncoding::DeltaPacked, codec,
                              1.0f, 1, &accepted));
            EXPECT_FALSE(accepted);
        }
    }
}

TEST(DecodeDifferential, MiniblocksEndingNearThePayloadEnd)
{
    // The unpacker loads eight bytes at a time and decodes from a
    // zero-padded copy any block with fewer than eight payload bytes
    // after it.  Sweep the last block's size across that line, and
    // stack width-0 blocks (no bytes at all) at the end.
    dsp::Rng rng(31);
    for (const SampleCodec codec : kCodecs) {
        for (std::size_t last = 1; last <= 20; ++last) {
            for (unsigned width = 0; width <= kMaxWidth; ++width) {
                const std::size_t count = 1 + kMiniblock + last;
                const auto payload = packValues(
                    walk(codec, count, width, rng), static_cast<int>(width));
                bool accepted = false;
                ASSERT_TRUE(agree(payload, ChunkEncoding::DeltaPacked,
                                  codec, 1.0f, count, &accepted))
                    << "last " << last << " width " << width;
                EXPECT_TRUE(accepted);
            }
        }
        for (std::size_t flat = 1; flat <= 10; ++flat) {
            // One wide block, then `flat` constant blocks.
            const std::size_t count = 1 + kMiniblock * (1 + flat);
            auto values = walk(codec, count, 24, rng);
            std::fill(values.begin() + 1 + kMiniblock, values.end(),
                      values[kMiniblock]);
            bool accepted = false;
            ASSERT_TRUE(agree(packValues(values),
                              ChunkEncoding::DeltaPacked, codec, 1.0f,
                              count, &accepted))
                << "flat blocks " << flat;
            EXPECT_TRUE(accepted);
        }
    }
}

TEST(DecodeDifferential, SeededPayloadMutationsAgree)
{
    // Seeds: encoder output on a noisy plateau (both codecs, packed
    // and raw) plus random-width walks.
    dsp::Rng rng(90210);
    struct Seed
    {
        std::vector<uint8_t> payload;
        ChunkEncoding encoding;
        SampleCodec codec;
        float scale;
        std::size_t count;
    };
    std::vector<Seed> seeds;
    for (const SampleCodec codec : kCodecs) {
        for (const bool compress : {true, false}) {
            for (const std::size_t count : {1u, 2u, 129u, 700u}) {
                std::vector<dsp::Sample> samples(count, 1.0f);
                for (auto &x : samples)
                    x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
                EncoderOptions opt;
                opt.codec = codec;
                opt.compress = compress;
                auto enc = encodeChunk(samples.data(), count, opt);
                seeds.push_back({std::move(enc.payload), enc.encoding,
                                 codec, enc.scale, count});
            }
        }
        for (const unsigned width : {0u, 3u, 16u, 40u}) {
            const std::size_t count = 300;
            seeds.push_back({packValues(walk(codec, count, width, rng),
                                        static_cast<int>(width)),
                             ChunkEncoding::DeltaPacked, codec, 1.0f,
                             count});
        }
    }

    std::size_t accepted_count = 0;
    std::size_t rejected_count = 0;
    constexpr int kMutations = 12000;
    for (int round = 0; round < kMutations; ++round) {
        const Seed &seed = seeds[rng.below(seeds.size())];
        auto payload = seed.payload;
        ChunkEncoding encoding = seed.encoding;
        SampleCodec codec = seed.codec;
        std::size_t count = seed.count;

        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            switch (rng.below(8)) {
            case 0: // overwrite a byte
            case 1:
                if (!payload.empty())
                    payload[rng.below(payload.size())] =
                        static_cast<uint8_t>(rng.below(256));
                break;
            case 2: // flip one bit
            case 3:
                if (!payload.empty())
                    payload[rng.below(payload.size())] ^=
                        static_cast<uint8_t>(1u << rng.below(8));
                break;
            case 4: // truncate
                payload.resize(rng.below(payload.size() + 1));
                break;
            case 5: // extend
                for (std::size_t k = 1 + rng.below(9); k > 0; --k)
                    payload.push_back(static_cast<uint8_t>(rng.below(256)));
                break;
            case 6: { // misdeclare the count
                const std::size_t deltas[] = {1, 2, 127, 128, 129};
                const std::size_t d = deltas[rng.below(5)];
                count = rng.chance(0.5) ? count + d
                                        : (count > d ? count - d : 0);
                break;
            }
            default: // misdeclare encoding or codec
                if (rng.chance(0.5))
                    encoding = static_cast<ChunkEncoding>(rng.below(3));
                else
                    codec = static_cast<SampleCodec>(rng.below(4));
                break;
            }
        }
        bool accepted = false;
        ASSERT_TRUE(agree(payload, encoding, codec, seed.scale, count,
                          &accepted))
            << "round " << round;
        ++(accepted ? accepted_count : rejected_count);
    }
    // Both verdicts must actually be exercised.
    EXPECT_GT(accepted_count, std::size_t{kMutations / 50});
    EXPECT_GT(rejected_count, std::size_t{kMutations / 2});
}

// ------------------------------------------------------ the block kernels

/** The unpackers this build and CPU have. */
std::vector<std::pair<const char *, detail::UnpackFn>>
unpackers()
{
    std::vector<std::pair<const char *, detail::UnpackFn>> out = {
        {"scalar", detail::unpackBlockScalar}};
#if !defined(EMPROF_DISABLE_SIMD)
    if (detail::unpackAvx2Available())
        out.emplace_back("avx2", detail::unpackBlockAvx2);
#endif
    return out;
}

/**
 * Unpack the one miniblock of packValues(@p values) with every
 * unpacker, each from an exact-size copy of its packed bytes plus
 * kUnpackSlack bytes of 0xFF (which must not leak into a value), and
 * hold each to the oracle: the same verdict and, when it accepts, the
 * same samples and final running value.
 */
::testing::AssertionResult
unpackersAgree(const std::vector<int64_t> &values, unsigned width,
               SampleCodec codec, float scale, bool *accepted = nullptr)
{
    const std::size_t n = values.size() - 1;
    const auto payload = packValues(values, static_cast<int>(width));
    std::vector<dsp::Sample> want(values.size());
    const bool w = oracle::decodeChunk(payload.data(), payload.size(),
                                       ChunkEncoding::DeltaPacked, codec,
                                       scale, values.size(), want.data());
    const std::size_t bytes = payload.size() - 9;
    for (const auto &[name, unpack] : unpackers()) {
        const auto block =
            std::make_unique<uint8_t[]>(bytes + detail::kUnpackSlack);
        std::memcpy(block.get(), payload.data() + 9, bytes);
        std::memset(block.get() + bytes, 0xFF, detail::kUnpackSlack);
        auto prev = static_cast<uint64_t>(values[0]);
        std::vector<dsp::Sample> got(n);
        const bool g =
            unpack(block.get(), width, n, codec, scale, prev, got.data()) ==
            0;
        if (g != w)
            return ::testing::AssertionFailure()
                   << name << " verdict " << g << ", oracle " << w
                   << " (width " << width << ", n " << n << ")";
        if (g && (std::memcmp(got.data(), want.data() + 1,
                              n * sizeof(dsp::Sample)) != 0 ||
                  prev != static_cast<uint64_t>(values.back())))
            return ::testing::AssertionFailure()
                   << name << " samples differ (width " << width << ", n "
                   << n << ")";
    }
    if (accepted != nullptr)
        *accepted = w;
    return ::testing::AssertionSuccess();
}

/** Block sizes ≡ 0-3 (mod 4), twice, and the last four below a full
 *  block: a vector pair, a lone group and every scalar tail. */
constexpr std::size_t kBlockSizes[] = {1, 2, 3, 4, 5, 6, 7, 8,
                                       125, 126, 127, 128};

TEST(UnpackKernels, EveryWidthAndBlockSizeMatchTheOracle)
{
    dsp::Rng rng(4096);
    for (const SampleCodec codec : kCodecs) {
        const float scale = codec == SampleCodec::F32 ? 1.0f : 0.003f;
        for (unsigned width = 0; width <= kMaxWidth; ++width) {
            for (const std::size_t n : kBlockSizes) {
                bool accepted = false;
                ASSERT_TRUE(unpackersAgree(walk(codec, n + 1, width, rng),
                                           width, codec, scale, &accepted));
                EXPECT_TRUE(accepted) << "width " << width << " n " << n;
            }
            // Whole chunks whose last block holds each of those sizes.
            for (const std::size_t n : kBlockSizes) {
                const std::size_t count = 1 + kMiniblock + n;
                bool accepted = false;
                ASSERT_TRUE(agree(packValues(walk(codec, count, width, rng),
                                             static_cast<int>(width)),
                                  ChunkEncoding::DeltaPacked, codec, scale,
                                  count, &accepted))
                    << "width " << width << " count " << count;
                EXPECT_TRUE(accepted);
            }
        }
    }
}

TEST(UnpackKernels, OutOfRangeInEachLaneAndTheScalarTail)
{
    // 127 values: 15 vector pairs, a lone group at 120-123 and a scalar
    // tail at 124-126.  One value steps out of range and the next steps
    // back in, so only a test of every value sees it.  Width 35 starts
    // each pair's second group at bit 4; 40 is the widest.
    dsp::Rng rng(11);
    constexpr std::size_t kPositions[] = {0,   1,   2,   3,   4,   5,
                                          6,   7,   60,  61,  62,  63,
                                          120, 121, 122, 123, 124, 125,
                                          126};
    for (const SampleCodec codec : kCodecs) {
        for (const unsigned width : {35u, 40u}) {
            for (const int64_t bad :
                 {lowest(codec) - 1, highest(codec) + 1}) {
                for (const std::size_t at : kPositions) {
                    auto values = walk(codec, 128, width, rng);
                    values[1 + at] = bad;
                    bool accepted = true;
                    ASSERT_TRUE(unpackersAgree(values, width, codec, 1.0f,
                                               &accepted))
                        << "value " << bad << " at " << at;
                    EXPECT_FALSE(accepted) << "value " << bad << " at " << at;
                }
            }
        }
    }
}

TEST(UnpackKernels, BlocksEndingUpTo40BytesBeforeThePayloadEnd)
{
    // A full block at `width`, then a last block of `gap` bytes (a width
    // byte and gap - 1 packed bytes at width 8; a width-0 block for a
    // gap of 1), so the full block ends `gap` bytes before the end.
    // decodeChunk must switch to its padded copy below 32; the payloads
    // sit in exact-size buffers, so under ASan a load past one fails.
    dsp::Rng rng(40);
    for (const SampleCodec codec : kCodecs) {
        for (const unsigned width : {1u, 7u, 20u, 33u, 40u}) {
            for (std::size_t gap = 0; gap <= 40; ++gap) {
                const std::size_t last =
                    gap == 0 ? 0 : gap == 1 ? 5 : gap - 1;
                const unsigned last_width = gap == 1 ? 0 : 8;
                const std::size_t count = 1 + kMiniblock + last;
                auto values = walk(codec, count, width, rng);
                // The last block steps by one towards the middle of the
                // range and back (by zero at width 0).
                const int64_t base = values[kMiniblock];
                const int64_t step =
                    last_width == 0
                        ? 0
                        : base > (lowest(codec) + highest(codec)) / 2 ? -1
                                                                      : 1;
                for (std::size_t i = 0; i < last; ++i)
                    values[1 + kMiniblock + i] = base + (i % 2 == 0 ? step : 0);
                const auto payload =
                    packValues(values, -1, {width, last_width});
                ASSERT_EQ(payload.size(),
                          8 + 1 + (kMiniblock * width + 7) / 8 + gap);
                bool accepted = false;
                ASSERT_TRUE(agree(payload, ChunkEncoding::DeltaPacked,
                                  codec, 1.0f, count, &accepted))
                    << "width " << width << " gap " << gap;
                EXPECT_TRUE(accepted) << "width " << width << " gap " << gap;
            }
        }
    }
}

} // namespace
} // namespace emprof::store
