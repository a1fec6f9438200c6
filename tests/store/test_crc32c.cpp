/**
 * @file
 * CRC32C unit tests: known-answer vectors, incremental equivalence,
 * the error-detection property the container leans on (any
 * single-byte change flips the CRC), and agreement between the
 * portable and SSE4.2 implementations behind crc32c(), across the
 * SSE4.2 kernel's three-stream rounds.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "store/crc32c.hpp"
#include "store/crc32c_detail.hpp"

namespace emprof::store {
namespace {

uint32_t
oneShot(const void *data, std::size_t len)
{
    return crc32c(0, data, len);
}

using Crc32cFn = uint32_t (*)(uint32_t, const void *, std::size_t);

/** RFC 3720 appendix B.4 test vectors (iSCSI uses CRC32C). */
void
expectKnownAnswers(Crc32cFn crc, const char *name)
{
    EXPECT_EQ(crc(0, "", 0), 0u) << name;
    EXPECT_EQ(crc(0, "123456789", 9), 0xE3069283u) << name;

    const std::vector<uint8_t> zeros(32, 0x00);
    EXPECT_EQ(crc(0, zeros.data(), zeros.size()), 0x8A9136AAu) << name;

    const std::vector<uint8_t> ones(32, 0xFF);
    EXPECT_EQ(crc(0, ones.data(), ones.size()), 0x62A8AB43u) << name;

    std::vector<uint8_t> ascending(32);
    for (std::size_t i = 0; i < ascending.size(); ++i)
        ascending[i] = static_cast<uint8_t>(i);
    EXPECT_EQ(crc(0, ascending.data(), ascending.size()), 0x46DD794Eu)
        << name;
}

TEST(Crc32c, KnownAnswerVectors)
{
    expectKnownAnswers(crc32c, "crc32c");
    expectKnownAnswers(detail::crc32cPortable, "portable");
#if !defined(EMPROF_DISABLE_SIMD)
    if (detail::crc32cSse42Available())
        expectKnownAnswers(detail::crc32cSse42, "sse4.2");
#endif
}

TEST(Crc32c, PortableAndSse42PathsAgree)
{
#if defined(EMPROF_DISABLE_SIMD)
    GTEST_SKIP() << "SSE4.2 CRC32C compiled out (EMPROF_DISABLE_SIMD); "
                    "only the portable path is built";
#else
    if (!detail::crc32cSse42Available())
        GTEST_SKIP() << "this CPU lacks SSE4.2; crc32c() uses the "
                        "portable path";

    std::vector<uint8_t> arena(1024 + 8);
    for (std::size_t i = 0; i < arena.size(); ++i)
        arena[i] = static_cast<uint8_t>(i * 131 + (i >> 3) * 7 + 1);

    // Every length at every alignment, from zero and from a running
    // CRC (the second half of a split call starts from one).
    for (std::size_t shift = 0; shift < 8; ++shift) {
        const uint8_t *p = arena.data() + shift;
        for (std::size_t len = 0; len <= 1024; ++len) {
            ASSERT_EQ(detail::crc32cSse42(0, p, len),
                      detail::crc32cPortable(0, p, len))
                << "len " << len << " shift " << shift;
            ASSERT_EQ(detail::crc32cSse42(0xDEADBEEFu, p, len),
                      detail::crc32cPortable(0xDEADBEEFu, p, len))
                << "len " << len << " shift " << shift;
        }
    }

    // Across the three-stream round boundaries: every length from one
    // below to eight above one and two rounds, at every alignment.
    constexpr std::size_t kRound = 3 * detail::kCrc32cLane;
    std::vector<uint8_t> rounds(2 * kRound + 16);
    for (std::size_t i = 0; i < rounds.size(); ++i)
        rounds[i] = static_cast<uint8_t>((i * 2654435761u) >> 13);
    for (std::size_t shift = 0; shift < 8; ++shift) {
        const uint8_t *p = rounds.data() + shift;
        for (const std::size_t k : {1u, 2u}) {
            for (std::size_t len = k * kRound - 1; len <= k * kRound + 8;
                 ++len) {
                ASSERT_EQ(detail::crc32cSse42(0, p, len),
                          detail::crc32cPortable(0, p, len))
                    << "len " << len << " shift " << shift;
                ASSERT_EQ(detail::crc32cSse42(0xDEADBEEFu, p, len),
                          detail::crc32cPortable(0xDEADBEEFu, p, len))
                    << "len " << len << " shift " << shift;
            }
        }
    }

    // Every split point of 1 KiB, and of two rounds and a tail (so
    // either half may hold a round, a partial round or none), each half
    // on either path.
    for (const std::size_t n : {std::size_t{1024}, 2 * kRound + 8}) {
        const uint8_t *p = rounds.data() + 3;
        const uint32_t whole = detail::crc32cPortable(0, p, n);
        for (std::size_t split = 0; split <= n; ++split) {
            const uint32_t hw_head = detail::crc32cSse42(0, p, split);
            const uint32_t sw_head = detail::crc32cPortable(0, p, split);
            ASSERT_EQ(detail::crc32cSse42(hw_head, p + split, n - split),
                      whole)
                << "n " << n << " split " << split;
            ASSERT_EQ(
                detail::crc32cPortable(hw_head, p + split, n - split),
                whole)
                << "n " << n << " split " << split;
            ASSERT_EQ(detail::crc32cSse42(sw_head, p + split, n - split),
                      whole)
                << "n " << n << " split " << split;
        }
    }
#endif
}

TEST(Crc32c, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> data(301);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31 + 7);

    const uint32_t whole = oneShot(data.data(), data.size());
    // Split at every position, including 0 and size().
    for (std::size_t split = 0; split <= data.size(); split += 17) {
        uint32_t crc = crc32c(0, data.data(), split);
        crc = crc32c(crc, data.data() + split, data.size() - split);
        EXPECT_EQ(crc, whole) << "split at " << split;
    }
}

TEST(Crc32c, DetectsEverySingleByteChange)
{
    std::string data = "EMCAP chunk payload exercising the table slices";
    const uint32_t good = oneShot(data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        for (const uint8_t delta : {0x01, 0x80, 0xFF}) {
            std::string bad = data;
            bad[i] = static_cast<char>(bad[i] ^ delta);
            EXPECT_NE(oneShot(bad.data(), bad.size()), good)
                << "byte " << i << " xor " << int(delta);
        }
    }
}

TEST(Crc32c, AlignmentIndependent)
{
    // The slicing-by-8 loop has a byte-at-a-time head; starting at any
    // misalignment must give the same digest for the same bytes.
    std::vector<uint8_t> arena(128 + 8);
    for (std::size_t i = 0; i < arena.size(); ++i)
        arena[i] = static_cast<uint8_t>(i ^ 0x5A);
    const uint32_t ref = oneShot(arena.data(), 64);
    for (std::size_t shift = 1; shift < 8; ++shift) {
        std::memmove(arena.data() + shift, arena.data(), 64);
        EXPECT_EQ(oneShot(arena.data() + shift, 64), ref)
            << "shift " << shift;
        std::memmove(arena.data(), arena.data() + shift, 64);
    }
}

} // namespace
} // namespace emprof::store
