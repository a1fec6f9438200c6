/**
 * @file
 * ResultSpool unit tests: append/fetch/list round-trips, the typed
 * double-ack and unknown-session failures, crash recovery as an
 * every-byte truncation sweep (longest-valid-prefix, like the store's
 * recovery tests), the retention cap, segment GC, and at-rest damage
 * detection on fetch.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/spool.hpp"
#include "serve_support.hpp"

using namespace emprof;
using namespace emprof::serve;
using namespace emprof::serve::support;

namespace fs = std::filesystem;

namespace {

SessionId
makeId(uint8_t seed)
{
    SessionId id{};
    for (std::size_t i = 0; i < id.size(); ++i)
        id[i] = static_cast<uint8_t>(seed + i * 13);
    return id;
}

std::vector<uint8_t>
makePayload(std::size_t bytes, uint8_t seed)
{
    std::vector<uint8_t> payload(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
        payload[i] = static_cast<uint8_t>(seed ^ (i * 31 + 7));
    return payload;
}

void
writeFileBytes(const std::string &path,
               const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

/** The one segment file in @p dir (fails the test on 0 or many). */
std::string
onlySegment(const std::string &dir)
{
    std::string found;
    int count = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        ++count;
        found = entry.path().string();
    }
    EXPECT_EQ(count, 1) << dir;
    return found;
}

} // namespace

TEST(Spool, AppendFetchListRoundTrip)
{
    ResultSpool spool;
    ResultSpool::Options options;
    options.dir = freshDir("roundtrip");
    std::string error;
    ASSERT_TRUE(spool.open(options, &error)) << error;

    const SessionId a = makeId(1), b = makeId(2), c = makeId(3);
    const auto pa = makePayload(100, 0x11);
    const auto pb = makePayload(1, 0x22);
    const auto pc = makePayload(4096, 0x33);
    ASSERT_TRUE(spool.append(a, 0, pa, &error)) << error;
    ASSERT_TRUE(spool.append(b, 3, pb, &error)) << error;
    ASSERT_TRUE(spool.append(c, 0, pc, &error)) << error;
    EXPECT_EQ(spool.resultCount(), 3u);
    EXPECT_TRUE(spool.has(b));
    EXPECT_FALSE(spool.has(makeId(9)));

    uint32_t status = 99;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(spool.fetch(b, status, payload, &error)) << error;
    EXPECT_EQ(status, 3u);
    EXPECT_EQ(payload, pb);
    ASSERT_TRUE(spool.fetch(c, status, payload, &error)) << error;
    EXPECT_EQ(status, 0u);
    EXPECT_EQ(payload, pc);

    const auto entries = spool.list();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].id, a); // oldest first
    EXPECT_EQ(entries[1].id, b);
    EXPECT_EQ(entries[2].id, c);
    EXPECT_EQ(entries[1].status, 3u);
    EXPECT_EQ(entries[2].payloadBytes, 4096u);
    EXPECT_FALSE(entries[0].acked);

    EXPECT_FALSE(spool.fetch(makeId(9), status, payload, &error));
    EXPECT_NE(error.find("no spooled result"), std::string::npos)
        << error;
}

TEST(Spool, AckIsTypedAndSurvivesReopen)
{
    ResultSpool::Options options;
    options.dir = freshDir("ack");
    std::string error;
    {
        ResultSpool spool;
        ASSERT_TRUE(spool.open(options, &error)) << error;
        ASSERT_TRUE(
            spool.append(makeId(1), 0, makePayload(32, 1), &error))
            << error;
        ASSERT_TRUE(
            spool.append(makeId(2), 0, makePayload(32, 2), &error))
            << error;

        EXPECT_FALSE(spool.ack(makeId(7), &error));
        EXPECT_NE(error.find("no spooled result"), std::string::npos)
            << error;

        ASSERT_TRUE(spool.ack(makeId(1), &error)) << error;
        EXPECT_FALSE(spool.ack(makeId(1), &error));
        EXPECT_NE(error.find("already acknowledged"),
                  std::string::npos)
            << error;
        spool.close();
    }

    // The ack is a record too: a reopened spool must remember it.
    ResultSpool reopened;
    ASSERT_TRUE(reopened.open(options, &error)) << error;
    EXPECT_EQ(reopened.recovery().results, 2u);
    EXPECT_EQ(reopened.recovery().acked, 1u);
    const auto entries = reopened.list();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_TRUE(entries[0].acked);
    EXPECT_FALSE(entries[1].acked);
    EXPECT_FALSE(reopened.ack(makeId(1), &error));
    EXPECT_NE(error.find("already acknowledged"), std::string::npos)
        << error;
}

TEST(Spool, EveryByteTruncationRecoversLongestValidPrefix)
{
    // Build a reference segment of two records, then replay recovery
    // against every possible crash point (file truncated at byte N).
    const auto p1 = makePayload(40, 0x44);
    const auto p2 = makePayload(60, 0x55);
    const std::string refDir = freshDir("truncref");
    std::string error;
    {
        ResultSpool spool;
        ResultSpool::Options options;
        options.dir = refDir;
        ASSERT_TRUE(spool.open(options, &error)) << error;
        ASSERT_TRUE(spool.append(makeId(1), 0, p1, &error)) << error;
        ASSERT_TRUE(spool.append(makeId(2), 3, p2, &error)) << error;
        spool.close();
    }
    const auto segment = readFileBytes(onlySegment(refDir));
    const std::size_t r1End = sizeof(SpoolRecordHeader) + p1.size();
    const std::size_t r2End =
        r1End + sizeof(SpoolRecordHeader) + p2.size();
    ASSERT_EQ(segment.size(), r2End);

    const std::string sweepDir = freshDir("truncsweep");
    const std::string sweepSegment = sweepDir + "/spool-0.emspool";
    for (std::size_t cut = 0; cut <= segment.size(); ++cut) {
        writeFileBytes(sweepSegment,
                       std::vector<uint8_t>(segment.begin(),
                                            segment.begin() + cut));
        ResultSpool spool;
        ResultSpool::Options options;
        options.dir = sweepDir;
        ASSERT_TRUE(spool.open(options, &error))
            << "cut=" << cut << ": " << error;
        const uint64_t expectRecovered =
            cut >= r2End ? 2 : (cut >= r1End ? 1 : 0);
        EXPECT_EQ(spool.recovery().results, expectRecovered)
            << "cut=" << cut;
        const bool torn = cut != 0 && cut != r1End && cut != r2End;
        EXPECT_EQ(spool.recovery().tornRecords > 0, torn)
            << "cut=" << cut;
        if (expectRecovered >= 1) {
            uint32_t status = 99;
            std::vector<uint8_t> payload;
            ASSERT_TRUE(spool.fetch(makeId(1), status, payload,
                                    &error))
                << "cut=" << cut << ": " << error;
            EXPECT_EQ(status, 0u) << "cut=" << cut;
            EXPECT_EQ(payload, p1) << "cut=" << cut;
        }
        if (expectRecovered == 2) {
            uint32_t status = 99;
            std::vector<uint8_t> payload;
            ASSERT_TRUE(spool.fetch(makeId(2), status, payload,
                                    &error))
                << "cut=" << cut << ": " << error;
            EXPECT_EQ(status, 3u) << "cut=" << cut;
            EXPECT_EQ(payload, p2) << "cut=" << cut;
        }
        spool.close();
    }
}

TEST(Spool, ReopenNeverExtendsATornTail)
{
    ResultSpool::Options options;
    options.dir = freshDir("torntail");
    std::string error;
    {
        ResultSpool spool;
        ASSERT_TRUE(spool.open(options, &error)) << error;
        ASSERT_TRUE(
            spool.append(makeId(1), 0, makePayload(64, 1), &error))
            << error;
        spool.close();
    }
    // Tear the tail: chop 5 bytes off the only record.
    const std::string segment = onlySegment(options.dir);
    auto bytes = readFileBytes(segment);
    ASSERT_GT(bytes.size(), 5u);
    bytes.resize(bytes.size() - 5);
    writeFileBytes(segment, bytes);

    ResultSpool spool;
    ASSERT_TRUE(spool.open(options, &error)) << error;
    EXPECT_EQ(spool.recovery().results, 0u);
    EXPECT_EQ(spool.recovery().tornRecords, 1u);

    // A new append must land in a NEW segment, leaving the torn file
    // byte-identical (dead bytes for GC, never extended).
    ASSERT_TRUE(spool.append(makeId(2), 0, makePayload(32, 2), &error))
        << error;
    EXPECT_EQ(readFileBytes(segment), bytes);

    ResultSpool reopened;
    ASSERT_TRUE(reopened.open(options, &error)) << error;
    EXPECT_EQ(reopened.recovery().segments, 2u);
    EXPECT_EQ(reopened.recovery().results, 1u);
    uint32_t status = 0;
    std::vector<uint8_t> payload;
    EXPECT_TRUE(reopened.fetch(makeId(2), status, payload, &error))
        << error;
}

TEST(Spool, RetentionExpiresOldestUnacked)
{
    ResultSpool spool;
    ResultSpool::Options options;
    options.dir = freshDir("retention");
    options.maxResults = 2;
    std::string error;
    ASSERT_TRUE(spool.open(options, &error)) << error;

    ASSERT_TRUE(spool.append(makeId(1), 0, makePayload(16, 1), &error))
        << error;
    ASSERT_TRUE(spool.append(makeId(2), 0, makePayload(16, 2), &error))
        << error;
    ASSERT_TRUE(spool.append(makeId(3), 0, makePayload(16, 3), &error))
        << error;

    EXPECT_EQ(spool.resultCount(), 2u);
    EXPECT_EQ(spool.expiredByRetention(), 1u);
    EXPECT_FALSE(spool.has(makeId(1))); // oldest paid for the cap
    uint32_t status = 0;
    std::vector<uint8_t> payload;
    EXPECT_TRUE(spool.fetch(makeId(2), status, payload, &error))
        << error;
    EXPECT_TRUE(spool.fetch(makeId(3), status, payload, &error))
        << error;
}

TEST(Spool, GcReclaimsFullyAckedSegments)
{
    ResultSpool spool;
    ResultSpool::Options options;
    options.dir = freshDir("gc");
    options.segmentBytes = 1; // every record rotates to its own file
    std::string error;
    ASSERT_TRUE(spool.open(options, &error)) << error;

    ASSERT_TRUE(spool.append(makeId(1), 0, makePayload(16, 1), &error))
        << error;
    ASSERT_TRUE(spool.append(makeId(2), 0, makePayload(16, 2), &error))
        << error;
    ASSERT_TRUE(spool.ack(makeId(1), &error)) << error;

    // Segment of result 1 has no live record left; result 2's and the
    // active (ack) segment must survive.
    EXPECT_EQ(spool.gc(&error), 1u) << error;
    EXPECT_FALSE(spool.has(makeId(1)));
    uint32_t status = 0;
    std::vector<uint8_t> payload;
    EXPECT_TRUE(spool.fetch(makeId(2), status, payload, &error))
        << error;

    ASSERT_TRUE(spool.ack(makeId(2), &error)) << error;
    EXPECT_GE(spool.gc(&error), 1u) << error;
    EXPECT_FALSE(spool.fetch(makeId(2), status, payload, &error));
}

TEST(Spool, FetchDetectsDamageAtRest)
{
    ResultSpool spool;
    ResultSpool::Options options;
    options.dir = freshDir("damage");
    std::string error;
    ASSERT_TRUE(spool.open(options, &error)) << error;
    const auto payload = makePayload(128, 0x66);
    ASSERT_TRUE(spool.append(makeId(1), 0, payload, &error)) << error;

    // Flip one payload byte on disk; the index still points there.
    const std::string segment = onlySegment(options.dir);
    auto bytes = readFileBytes(segment);
    ASSERT_GT(bytes.size(), sizeof(SpoolRecordHeader) + 10);
    bytes[sizeof(SpoolRecordHeader) + 10] ^= 0x01;
    writeFileBytes(segment, bytes);

    uint32_t status = 0;
    std::vector<uint8_t> out;
    EXPECT_FALSE(spool.fetch(makeId(1), status, out, &error));
    EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(Spool, SessionIdHexRoundTrip)
{
    const SessionId id = makeId(0xC7);
    const std::string hex = sessionIdToHex(id);
    EXPECT_EQ(hex.size(), 32u);
    SessionId back{};
    ASSERT_TRUE(sessionIdFromHex(hex, back));
    EXPECT_EQ(back, id);
    EXPECT_FALSE(sessionIdFromHex("not-hex", back));
    EXPECT_FALSE(sessionIdFromHex(hex.substr(1), back));
}
