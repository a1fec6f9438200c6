/**
 * @file
 * Disconnect-safety tests for the served path: a connection that dies
 * mid-upload parks the session and a reconnecting client resumes it
 * bit-identically (classic and resilient); wrong resume offsets and
 * unknown session ids draw typed BadResume errors; a finished report
 * survives a daemon restart in the durable spool and is replayed
 * verbatim; and the reconnecting client (pushResumable) rides through
 * an injected mid-upload drop end to end.  Runs under TSan in CI.
 */

#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "serve_support.hpp"

using namespace emprof;
using namespace emprof::serve;
using namespace emprof::serve::support;

namespace {

void
expectReportsBitExact(const DecodedReport &expected,
                      const DecodedReport &actual,
                      const std::string &label)
{
    EXPECT_EQ(expected.status, actual.status) << label;
    EXPECT_EQ(expected.totalSamples, actual.totalSamples) << label;
    EXPECT_EQ(golden::doubleBits(expected.coverageFraction),
              golden::doubleBits(actual.coverageFraction))
        << label;
    EXPECT_EQ(parity::eventsDiff(expected.events, actual.events), "")
        << label;
    EXPECT_EQ(expected.reportText, actual.reportText) << label;
}

} // namespace

TEST(Resume, DroppedUploadParksAndResumesBitIdentically)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    ServerFixture fixture;
    const SessionId id =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 2, false);
    const PushResult result =
        resumeAndFinish(fixture, bytes, id, false);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.report.status, 0u);
    EXPECT_EQ(result.report.totalSamples, golden::kSamples);
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
        << "resumed";

    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsParked, 1u);
    EXPECT_EQ(stats.sessionsResumed, 1u);
    EXPECT_EQ(stats.sessionsCompleted, 1u);
}

TEST(Resume, ResilientSessionResumesBitIdentically)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerFixture fixture;

    // Uninterrupted resilient run: the reference this test compares
    // the resumed run against, bit for bit.
    const PushResult uninterrupted =
        pushOnce(fixture.endpoint(), bytes, bytes.size(), true);
    ASSERT_TRUE(uninterrupted.ok) << uninterrupted.error;

    const SessionId id =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 3, true);
    const PushResult resumed = resumeAndFinish(fixture, bytes, id, true);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    expectReportsBitExact(uninterrupted.report, resumed.report,
                          "resilient-resume");
}

TEST(Resume, EveryDropPointResumesBitIdentically)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    ServerFixture fixture;
    // Drop points chosen to straddle interesting boundaries: inside
    // the EMCAP header, mid-chunk, and one byte short of the end.
    const std::size_t cuts[] = {1, 7, bytes.size() / 4,
                                bytes.size() - 1};
    for (const std::size_t cut : cuts) {
        const SessionId id = uploadHeadAndDrop(fixture, bytes, cut,
                                               false);
        const PushResult result =
            resumeAndFinish(fixture, bytes, id, false);
        ASSERT_TRUE(result.ok)
            << "cut=" << cut << ": " << result.error;
        EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
            << "cut=" + std::to_string(cut);
    }
}

TEST(Resume, WrongOffsetIsRejectedThenCorrectResumeStillWorks)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerFixture fixture;
    const std::size_t head = bytes.size() / 2;
    const SessionId id = uploadHeadAndDrop(fixture, bytes, head, false);

    // An offset past anything the server received cannot match its
    // durable offset; the reject must name both numbers.
    {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(fixture.endpoint(), &error))
            << error;
        OpenRequest open{};
        open.flags = kOpenResume;
        std::memcpy(open.sessionId, id.data(), id.size());
        open.resumeFrom = head + 1;
        SessionId echoed{};
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        ErrorCode code = ErrorCode::Internal;
        EXPECT_FALSE(client.openSession(open, echoed, offset, state,
                                        &code, &error));
        EXPECT_EQ(static_cast<uint32_t>(code),
                  static_cast<uint32_t>(ErrorCode::BadResume))
            << error;
        EXPECT_NE(error.find("does not match"), std::string::npos)
            << error;
    }

    // The mismatch must not have consumed the parked session.
    const PushResult result =
        resumeAndFinish(fixture, bytes, id, false);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
        << "resume-after-bad-offset";
}

TEST(Resume, ResilienceModeMismatchIsBadResume)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerFixture fixture;
    const SessionId id =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 2, false);

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    OpenRequest open{};
    open.flags = kOpenResume | kOpenResilient; // parked classic
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ErrorCode code = ErrorCode::Internal;
    EXPECT_FALSE(client.openSession(open, echoed, offset, state, &code,
                                    &error));
    EXPECT_EQ(static_cast<uint32_t>(code),
              static_cast<uint32_t>(ErrorCode::BadResume))
        << error;
    EXPECT_NE(error.find("resilience"), std::string::npos) << error;
}

TEST(Resume, UnknownSessionWithExplicitOffsetIsBadResume)
{
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;

    OpenRequest open{};
    open.flags = kOpenResume;
    for (std::size_t i = 0; i < sizeof(open.sessionId); ++i)
        open.sessionId[i] = static_cast<uint8_t>(0xA0 + i);
    open.resumeFrom = 4096; // a concrete claim the server can't honour
    SessionId echoed{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ErrorCode code = ErrorCode::Internal;
    EXPECT_FALSE(client.openSession(open, echoed, offset, state, &code,
                                    &error));
    EXPECT_EQ(static_cast<uint32_t>(code),
              static_cast<uint32_t>(ErrorCode::BadResume))
        << error;
    EXPECT_NE(error.find("unknown session"), std::string::npos)
        << error;
}

TEST(Resume, UnknownSessionWithQueryOffsetStartsFresh)
{
    // A client whose server restarted (parked state gone) queries with
    // its old id: the answer is Fresh-from-zero, not an error, so the
    // client can simply re-upload.
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;

    OpenRequest open{};
    open.flags = kOpenResume;
    for (std::size_t i = 0; i < sizeof(open.sessionId); ++i)
        open.sessionId[i] = static_cast<uint8_t>(1 + i);
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 1;
    SessionState state = SessionState::Resumed;
    EXPECT_TRUE(client.openSession(open, echoed, offset, state,
                                   nullptr, &error))
        << error;
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(SessionState::Fresh));
    EXPECT_EQ(offset, 0u);
    EXPECT_EQ(std::memcmp(echoed.data(), open.sessionId,
                          echoed.size()),
              0);
}

TEST(Resume, SpooledReportSurvivesDaemonRestartBitIdentically)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    const std::string spoolDir = freshDir("spool");
    DecodedReport original;
    SessionId id{};
    {
        ServerConfig config;
        config.spoolDir = spoolDir;
        ServerFixture fixture(config);
        const PushResult result = pushOnce(fixture.endpoint(), bytes);
        ASSERT_TRUE(result.ok) << result.error;
        original = result.report;
        id = result.sessionId;
        ASSERT_FALSE(sessionIdIsZero(id));
        fixture.server().stop();
    }

    // A fresh daemon on the same spool dir recovers the result...
    ServerConfig config;
    config.spoolDir = spoolDir;
    ServerFixture restarted(config);
    EXPECT_EQ(restarted.server().spool().recovery().results, 1u);

    // ...serves it to a resuming client as Complete + verbatim Report,
    {
        RawConnection conn(restarted.endpoint().unixPath);
        ASSERT_TRUE(conn.ok());
        OpenRequest open{};
        open.flags = kOpenResume;
        std::memcpy(open.sessionId, id.data(), id.size());
        open.resumeFrom = kResumeQuery;
        std::string error;
        ASSERT_TRUE(writeFrame(conn.fd(), FrameType::Open, &open,
                               sizeof(open), &error))
            << error;
        Frame ack;
        ASSERT_TRUE(readFrame(conn.fd(), ack, &error)) << error;
        ASSERT_EQ(static_cast<uint16_t>(ack.type),
                  static_cast<uint16_t>(FrameType::OpenAck));
        SessionId echoed{};
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        ASSERT_TRUE(decodeOpenAckPayload(ack.payload, echoed, offset,
                                         state, &error))
            << error;
        EXPECT_EQ(static_cast<uint32_t>(state),
                  static_cast<uint32_t>(SessionState::Complete));
        Frame report;
        ASSERT_TRUE(readFrame(conn.fd(), report, &error)) << error;
        ASSERT_EQ(static_cast<uint16_t>(report.type),
                  static_cast<uint16_t>(FrameType::Report));
        DecodedReport served;
        ASSERT_TRUE(decodeReportPayload(report.payload, served,
                                        &error))
            << error;
        expectReportsBitExact(original, served, "spool-replay");
        EXPECT_EQ(parity::eventsDiff(expected, served.events), "")
            << "spool-replay";
    }
    EXPECT_EQ(restarted.server().stats().resultsServedFromSpool, 1u);

    // ...and the same bytes are fetchable straight from the spool.
    uint32_t status = 99;
    std::vector<uint8_t> payload;
    std::string error;
    ASSERT_TRUE(
        restarted.server().spool().fetch(id, status, payload, &error))
        << error;
    EXPECT_EQ(status, original.status);
    DecodedReport fetched;
    ASSERT_TRUE(decodeReportPayload(payload, fetched, &error)) << error;
    expectReportsBitExact(original, fetched, "spool-fetch");
}

TEST(Resume, RestartMidUploadFallsBackToFreshAndStaysBitIdentical)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    const std::string spoolDir = freshDir("midrestart");
    SessionId id{};
    {
        ServerConfig config;
        config.spoolDir = spoolDir;
        ServerFixture fixture(config);
        id = uploadHeadAndDrop(fixture, bytes, bytes.size() / 2,
                               false);
        fixture.server().stop(); // parked state dies with the daemon
    }

    ServerConfig config;
    config.spoolDir = spoolDir;
    ServerFixture restarted(config);
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(restarted.endpoint(), &error)) << error;
    OpenRequest open{};
    open.flags = kOpenResume;
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 1;
    SessionState state = SessionState::Resumed;
    ASSERT_TRUE(client.openSession(open, echoed, offset, state,
                                   nullptr, &error))
        << error;
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(SessionState::Fresh));
    EXPECT_EQ(offset, 0u);
    ASSERT_TRUE(client.sendData(bytes.data(), bytes.size(), &error))
        << error;
    const PushResult result = client.finish();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
        << "fresh-after-restart";
}

TEST(Resume, PushResumableRidesThroughInjectedDrop)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerConfig config;
    config.spoolDir = freshDir("pushdrop");
    ServerFixture fixture(config);

    Client client;
    PushOptions options;
    options.uploadChunkBytes = 997;
    options.maxAttempts = 5;
    options.jitterSeed = 42;
    options.simulateDropAfterBytes = bytes.size() / 2;
    const PushResult result = client.pushResumable(
        fixture.endpoint(), bytes.data(), bytes.size(), options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.attempts, 2u);
    EXPECT_FALSE(result.connectionLost);
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
        << "push-resumable";
    EXPECT_EQ(fixture.server().stats().sessionsCompleted, 1u);
}

TEST(Resume, PushResumableFailsTypedWhenRetriesExhausted)
{
    // No listener at this path: every attempt is a transport failure,
    // so the result must be the typed retryable class (exit code 7 in
    // the tools), not a generic error.
    Endpoint ep;
    ep.tcp = false;
    ep.unixPath = testing::TempDir() + "emprof_resume_nowhere_" +
                  std::to_string(::getpid()) + ".sock";
    Client client;
    PushOptions options;
    options.maxAttempts = 2;
    options.backoffBaseMs = 1;
    options.jitterSeed = 7;
    const uint8_t junk[4] = {0, 1, 2, 3};
    const PushResult result =
        client.pushResumable(ep, junk, sizeof(junk), options);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.connectionLost);
    EXPECT_EQ(result.attempts, 2u);
}
