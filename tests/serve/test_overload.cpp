/**
 * @file
 * Overload- and hostile-client-hardening tests for the ingest service
 * (DESIGN.md §17): the LoadGovernor's watermark arithmetic; idle /
 * deadline / rate-floor shedding with typed errors and resumable
 * parking; soft-watermark RetryAfter admission control (and the
 * reconnecting client honouring the hint); hard-watermark shedding of
 * the most-stalled session while well-behaved neighbours finish
 * bit-identically; the EMFILE accept path's emergency-fd answer; the
 * parked-TTL-vs-resume race and maxParked churn eviction; spool
 * ENOSPC degrading to non-durable serving; the one-byte healthz
 * probe; and the strict-no-op guarantee that a default-configured
 * server stays exactly as defenseless as before.  Runs under TSan in
 * CI alongside the rest of test_serve.
 */

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "serve/chaos.hpp"
#include "serve/governor.hpp"
#include "serve_support.hpp"

using namespace emprof;
using namespace emprof::serve;
using namespace emprof::serve::support;

namespace {

/** Open a fresh session and keep the raw connection alive — a load
 *  anchor that holds an active-session slot without sending data. */
class HeldSession
{
  public:
    explicit HeldSession(const Endpoint &endpoint)
    {
        Client client;
        std::string error;
        if (!client.connect(endpoint, &error))
            return;
        fd_ = client.releaseFd();
        OpenRequest open{};
        if (!writeFrame(fd_, FrameType::Open, &open, sizeof(open)))
            return;
        Frame ack;
        if (!readFrame(fd_, ack) || ack.type != FrameType::OpenAck)
            return;
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        opened_ = decodeOpenAckPayload(ack.payload, id_, offset, state);
    }

    bool opened() const { return opened_; }
    const SessionId &id() const { return id_; }

    void
    drop()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    ~HeldSession() { drop(); }

  private:
    int fd_ = -1;
    bool opened_ = false;
    SessionId id_{};
};

} // namespace

// ---------------------------------------------------------------------
// LoadGovernor arithmetic (pure, no server)
// ---------------------------------------------------------------------

TEST(Governor, DisabledWatermarksNeverLeaveNormal)
{
    LoadGovernor governor; // all watermarks 0
    LoadSnapshot snap;
    snap.queueBytes = uint64_t{1} << 40;
    snap.activeSessions = 1u << 20;
    snap.connections = 1u << 20;
    EXPECT_FALSE(governor.watermarks().anyEnabled());
    EXPECT_EQ(governor.classify(snap), LoadGovernor::Level::Normal);
    EXPECT_EQ(governor.shedTarget(snap), 0u);
}

TEST(Governor, SoftThenHardAsTheSessionCountClimbs)
{
    LoadWatermarks marks;
    marks.softSessions = 4;
    marks.hardSessions = 8;
    LoadGovernor governor(marks);

    LoadSnapshot snap;
    snap.activeSessions = 3;
    EXPECT_EQ(governor.classify(snap), LoadGovernor::Level::Normal);
    snap.activeSessions = 4; // at the soft line = breached
    EXPECT_EQ(governor.classify(snap), LoadGovernor::Level::Soft);
    snap.activeSessions = 7;
    EXPECT_EQ(governor.classify(snap), LoadGovernor::Level::Soft);
    snap.activeSessions = 8;
    EXPECT_EQ(governor.classify(snap), LoadGovernor::Level::Hard);
    // Shed just enough to get back under the hard line.
    EXPECT_EQ(governor.shedTarget(snap), 1u);
    snap.activeSessions = 12;
    EXPECT_EQ(governor.shedTarget(snap), 5u);
}

TEST(Governor, FdBudgetBreachIsHard)
{
    LoadWatermarks marks;
    marks.fdBudget = 100;
    LoadGovernor governor(marks);
    LoadSnapshot snap;
    snap.connections = 99;
    EXPECT_EQ(governor.classify(snap), LoadGovernor::Level::Normal);
    snap.connections = 100;
    EXPECT_EQ(governor.classify(snap), LoadGovernor::Level::Hard);
    // fd overload sheds one per tick (each closed fd re-evaluates).
    EXPECT_EQ(governor.shedTarget(snap), 1u);
}

TEST(Governor, BackoffHintScalesFromBaseToMax)
{
    LoadWatermarks marks;
    marks.softQueueBytes = 1000;
    marks.retryAfterBaseMs = 100;
    marks.retryAfterMaxMs = 900;
    LoadGovernor governor(marks);

    LoadSnapshot snap;
    snap.queueBytes = 1000; // exactly at the line
    EXPECT_EQ(governor.suggestedBackoffMs(snap), 100u);
    snap.queueBytes = 1500; // halfway to 2x
    EXPECT_EQ(governor.suggestedBackoffMs(snap), 500u);
    snap.queueBytes = 2000; // at 2x: the cap
    EXPECT_EQ(governor.suggestedBackoffMs(snap), 900u);
    snap.queueBytes = 20000; // far past 2x: still the cap
    EXPECT_EQ(governor.suggestedBackoffMs(snap), 900u);
}

// ---------------------------------------------------------------------
// Time-domain protection: idle, deadline, rate floor
// ---------------------------------------------------------------------

TEST(Overload, IdleStallIsShedTypedAndResumesBitIdentically)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerConfig config;
    config.idleTimeoutSeconds = 0.3;
    ServerFixture fixture(config);

    StallOptions stall;
    stall.headBytes = bytes.size() / 2;
    stall.giveUpAfterMs = 8000; // full stall after the head
    const HostileOutcome outcome = runHostileSession(
        fixture.endpoint(), bytes.data(), bytes.size(), stall);

    ASSERT_TRUE(outcome.opened);
    ASSERT_TRUE(outcome.typedError)
        << "idle stall must draw a typed error, not a silent drop";
    EXPECT_EQ(static_cast<uint32_t>(outcome.code),
              static_cast<uint32_t>(ErrorCode::IdleTimeout))
        << outcome.message;
    EXPECT_NE(outcome.message.find("progress"), std::string::npos)
        << outcome.message;
    EXPECT_GE(fixture.server().stats().sessionsTimedOut, 1u);

    // The shed parked the pipeline: a resume finishes the upload and
    // the report is bit-identical to an uninterrupted run.
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.sessionsParked >= 1;
    }));
    const PushResult result =
        resumeAndFinish(fixture, bytes, outcome.id, false);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
        << "resume-after-idle-shed";
}

TEST(Overload, TornFrameStallIsShedTyped)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerConfig config;
    config.idleTimeoutSeconds = 0.3;
    ServerFixture fixture(config);

    StallOptions stall;
    stall.tornFrame = true; // header + half the payload, then nothing
    stall.giveUpAfterMs = 8000;
    const HostileOutcome outcome = runHostileSession(
        fixture.endpoint(), bytes.data(), bytes.size(), stall);
    ASSERT_TRUE(outcome.opened);
    ASSERT_TRUE(outcome.typedError);
    EXPECT_EQ(static_cast<uint32_t>(outcome.code),
              static_cast<uint32_t>(ErrorCode::IdleTimeout))
        << outcome.message;
}

TEST(Overload, DeadlineBindsEvenWhileProgressIsBeingMade)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerConfig config;
    config.sessionDeadlineSeconds = 0.4; // no idle/rate floor: the
    ServerFixture fixture(config);       // trickle IS progress

    StallOptions trickle;
    trickle.trickleBytes = 16;
    trickle.trickleIntervalMs = 50;
    trickle.giveUpAfterMs = 8000;
    const HostileOutcome outcome = runHostileSession(
        fixture.endpoint(), bytes.data(), bytes.size(), trickle);
    ASSERT_TRUE(outcome.opened);
    ASSERT_TRUE(outcome.typedError);
    EXPECT_EQ(static_cast<uint32_t>(outcome.code),
              static_cast<uint32_t>(ErrorCode::IdleTimeout))
        << outcome.message;
    EXPECT_NE(outcome.message.find("deadline"), std::string::npos)
        << outcome.message;
    EXPECT_GE(fixture.server().stats().sessionsTimedOut, 1u);
}

TEST(Overload, SlowLorisTrickleIsShedByTheRateFloor)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerConfig config;
    config.minRateBytesPerSec = 64 * 1024; // trickle is ~320 B/s
    config.minRateWindowSeconds = 0.4;
    ServerFixture fixture(config);

    StallOptions loris;
    loris.trickleBytes = 16;
    loris.trickleIntervalMs = 50;
    loris.giveUpAfterMs = 8000;
    const HostileOutcome outcome = runHostileSession(
        fixture.endpoint(), bytes.data(), bytes.size(), loris);
    ASSERT_TRUE(outcome.opened);
    ASSERT_TRUE(outcome.typedError)
        << "a trickler below the floor must be shed";
    EXPECT_EQ(static_cast<uint32_t>(outcome.code),
              static_cast<uint32_t>(ErrorCode::IdleTimeout))
        << outcome.message;
    EXPECT_NE(outcome.message.find("rate"), std::string::npos)
        << outcome.message;
}

// ---------------------------------------------------------------------
// Admission control and load shedding
// ---------------------------------------------------------------------

TEST(Overload, SoftWatermarkAnswersFreshOpensWithRetryAfter)
{
    ServerConfig config;
    config.watermarks.softSessions = 1;
    config.watermarks.retryAfterBaseMs = 100;
    config.watermarks.retryAfterMaxMs = 400;
    ServerFixture fixture(config);

    HeldSession holder(fixture.endpoint());
    ASSERT_TRUE(holder.opened());

    // The healthz probe flips to Backoff within a tick or two — and
    // answering it must not itself open a session.
    bool backoff = false;
    for (int i = 0; i < 2000 && !backoff; ++i) {
        HealthState state = HealthState::Live;
        std::string error;
        ASSERT_TRUE(
            Client::health(fixture.endpoint(), state, &error))
            << error;
        backoff = state == HealthState::Backoff;
        if (!backoff)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(backoff);

    // A fresh Open is told RetryAfter with a server-sized hint.
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    OpenRequest open{};
    SessionId id{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ErrorCode code = ErrorCode::Internal;
    uint32_t hintMs = 0;
    EXPECT_FALSE(client.openSession(open, id, offset, state, &code,
                                    &error, nullptr, &hintMs));
    EXPECT_EQ(static_cast<uint32_t>(code),
              static_cast<uint32_t>(ErrorCode::RetryAfter))
        << error;
    EXPECT_GE(hintMs, 100u);
    EXPECT_LE(hintMs, 400u);
    EXPECT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.retryAfterSent >= 1;
    }));
    EXPECT_EQ(fixture.server().stats().sessionsAborted, 0u);
}

TEST(Overload, PushResumableHonorsTheRetryAfterHint)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerConfig config;
    config.watermarks.softSessions = 1;
    config.watermarks.retryAfterBaseMs = 50;
    config.watermarks.retryAfterMaxMs = 100;
    ServerFixture fixture(config);

    auto holder = std::make_unique<HeldSession>(fixture.endpoint());
    ASSERT_TRUE(holder->opened());

    // Free the slot while the client is sitting out its hinted
    // backoff: the retry after that must be admitted.
    std::thread release([&holder] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        holder->drop();
    });

    Client client;
    PushOptions options;
    options.maxAttempts = 20;
    options.backoffBaseMs = 1;
    options.jitterSeed = 11;
    const PushResult result = client.pushResumable(
        fixture.endpoint(), bytes.data(), bytes.size(), options);
    release.join();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GE(result.attempts, 2u)
        << "the first attempt should have been told RetryAfter";
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
        << "push-through-retry-after";
}

TEST(Overload, HardWatermarkShedsTheMostStalledSessionFirst)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerConfig config;
    config.watermarks.hardSessions = 2;
    config.watermarks.retryAfterBaseMs = 100;
    ServerFixture fixture(config);

    // Session A: opens first, then stalls — the shed candidate.
    HostileOutcome outcomeA;
    std::thread hostile([&] {
        StallOptions stall;
        stall.giveUpAfterMs = 8000;
        outcomeA = runHostileSession(fixture.endpoint(), bytes.data(),
                                     bytes.size(), stall);
    });
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.sessionsAccepted >= 1;
    }));

    // Session B: opens second but keeps sending — over the hard line
    // the governor must shed A (older last-progress), not B.
    Client clientB;
    std::string error;
    ASSERT_TRUE(clientB.connect(fixture.endpoint(), &error)) << error;
    OpenRequest open{};
    SessionId idB{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ASSERT_TRUE(clientB.openSession(open, idB, offset, state, nullptr,
                                    &error))
        << error;
    const std::size_t step = bytes.size() / 8 + 1;
    for (std::size_t off = 0; off < bytes.size(); off += step) {
        const std::size_t take = std::min(step, bytes.size() - off);
        ASSERT_TRUE(clientB.sendData(bytes.data() + off, take, &error))
            << error;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    const PushResult resultB = clientB.finish();
    hostile.join();

    ASSERT_TRUE(outcomeA.opened);
    ASSERT_TRUE(outcomeA.typedError)
        << "the stalled session must be the one shed";
    EXPECT_EQ(static_cast<uint32_t>(outcomeA.code),
              static_cast<uint32_t>(ErrorCode::RetryAfter))
        << outcomeA.message;
    EXPECT_GE(outcomeA.retryAfterMs, 1u);
    ASSERT_TRUE(resultB.ok)
        << "the well-behaved session must be untouched: "
        << resultB.error;
    EXPECT_EQ(parity::eventsDiff(expected, resultB.report.events), "")
        << "survivor-of-hard-shed";
    EXPECT_GE(fixture.server().stats().sessionsShed, 1u);
}

TEST(Overload, FdExhaustionOnAcceptAnswersTypedRetryAfter)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerFixture fixture;
    {
        ChaosPlan plan;
        plan.failAccepts = 1; // EMFILE by default
        ScopedChaosPlan scoped(plan);

        // Our connection sits in the backlog while accept() "fails";
        // the emergency fd must still pick it up and answer with a
        // typed RetryAfter instead of letting it starve silently.
        Client probe;
        std::string error;
        ASSERT_TRUE(probe.connect(fixture.endpoint(), &error))
            << error;
        const int fd = probe.releaseFd();
        Frame reply;
        ASSERT_TRUE(readFrame(fd, reply, &error)) << error;
        ASSERT_EQ(static_cast<uint16_t>(reply.type),
                  static_cast<uint16_t>(FrameType::Error));
        ErrorCode code{};
        std::string message;
        uint32_t hintMs = 0;
        ASSERT_TRUE(
            decodeErrorPayload(reply.payload, code, message, &hintMs));
        EXPECT_EQ(static_cast<uint32_t>(code),
                  static_cast<uint32_t>(ErrorCode::RetryAfter))
            << message;
        EXPECT_GE(hintMs, 1u);
        EXPECT_NE(message.find("descriptor"), std::string::npos)
            << message;
        ::close(fd);
        EXPECT_EQ(ChaosInjector::acceptsStolen(), 1u);
    }
    // The reply frame is written before the counters are bumped, so
    // the client can get here first: poll rather than snapshot.
    EXPECT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.acceptFdExhausted >= 1 && s.retryAfterSent >= 1;
    }));

    // Recovery: once descriptors are back (chaos disarmed) and the
    // listener mute lapses, a normal push goes straight through.
    const PushResult result = pushOnce(fixture.endpoint(), bytes);
    ASSERT_TRUE(result.ok) << result.error;
}

// ---------------------------------------------------------------------
// Parked-session lifecycle under churn
// ---------------------------------------------------------------------

TEST(Overload, ExpiredParkTtlRaceLosesToTheClockAndStartsFresh)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerConfig config;
    config.resumeTtlSeconds = 0.25; // sub-second: the race is real
    ServerFixture fixture(config);

    const SessionId id =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 2);
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.parkedExpired >= 1;
    })) << "the parked session never expired";

    // The resume arrives after the TTL ran out: the answer must be a
    // clean Fresh-from-zero, never a dangling half-session.
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    OpenRequest open{};
    open.flags = kOpenResume;
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 77;
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
        << "fresh-after-ttl-expiry";
}

TEST(Overload, MaxParkedChurnEvictsTheOldestPark)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerConfig config;
    config.maxParked = 1;
    ServerFixture fixture(config);

    const SessionId first =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 3);
    const SessionId second =
        uploadHeadAndDrop(fixture, bytes, bytes.size() / 2);
    EXPECT_GE(fixture.server().stats().parkedEvicted, 1u);

    // The survivor resumes from its durable offset first (probing the
    // evicted id would itself open-and-park a fresh session, evicting
    // the survivor in turn under maxParked = 1)...
    const PushResult resumed =
        resumeAndFinish(fixture, bytes, second, false);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(parity::eventsDiff(expected, resumed.report.events), "")
        << "survivor-of-park-eviction";

    // ...then the evicted (older) session is answered Fresh-from-zero.
    {
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(fixture.endpoint(), &error))
            << error;
        OpenRequest open{};
        open.flags = kOpenResume;
        std::memcpy(open.sessionId, first.data(), first.size());
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
    }
}

// ---------------------------------------------------------------------
// Spool degradation, RST accounting, scrape, healthz, strict no-op
// ---------------------------------------------------------------------

TEST(Overload, SpoolEnospcDegradesToNonDurableServing)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerConfig config;
    config.spoolDir = freshDir("enospc");
    ServerFixture fixture(config);

    {
        ChaosPlan plan;
        plan.failSpoolAppends = 1; // the next append sees ENOSPC
        ScopedChaosPlan scoped(plan);
        const PushResult result = pushOnce(fixture.endpoint(), bytes);
        // Durability is lost; the REPLY is not.
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
            << "served-despite-enospc";
        EXPECT_EQ(ChaosInjector::spoolAppendsStolen(), 1u);
    }
    ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.resultsSpoolFailed, 1u);
    EXPECT_EQ(stats.resultsSpooled, 0u);

    // With space back, the next session is durable again.
    const PushResult result = pushOnce(fixture.endpoint(), bytes);
    ASSERT_TRUE(result.ok) << result.error;
    stats = fixture.server().stats();
    EXPECT_EQ(stats.resultsSpoolFailed, 1u);
    EXPECT_EQ(stats.resultsSpooled, 1u);
}

TEST(Overload, DisconnectTaxonomyParksUploadsAndCountsTornHandshakes)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerFixture fixture; // default config: no reaction expected

    // A mid-upload RST is NOT an abort: the session parks so the
    // client can resume — the whole point of disconnect safety.
    StallOptions rst;
    rst.headBytes = bytes.size() / 4;
    rst.giveUpAfterMs = 300; // give up fast, then slam the door
    rst.resetOnExit = true;
    const HostileOutcome outcome = runHostileSession(
        fixture.endpoint(), bytes.data(), bytes.size(), rst);
    ASSERT_TRUE(outcome.opened);
    EXPECT_FALSE(outcome.typedError);
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.sessionsParked >= 1;
    }));
    EXPECT_EQ(fixture.server().stats().sessionsAborted, 0u);

    // A handshake torn mid-Open (the reconnect herd's signature) IS
    // an abort — counted apart from the typed-Error rejections.
    {
        Client probe;
        std::string error;
        ASSERT_TRUE(probe.connect(fixture.endpoint(), &error))
            << error;
        const int fd = probe.releaseFd();
        std::vector<uint8_t> frame;
        OpenRequest open{};
        appendFrame(frame, FrameType::Open, &open, sizeof(open));
        ASSERT_GT(::send(fd, frame.data(), frame.size() / 2,
                         MSG_NOSIGNAL),
                  0);
        linger lg{};
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        ::close(fd);
    }
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.sessionsAborted >= 1;
    }));
    EXPECT_EQ(fixture.server().stats().sessionsRejected, 0u);
}

TEST(Overload, ScrapeExposesTheOverloadCounters)
{
    ServerFixture fixture;
    std::string text;
    std::string error;
    ASSERT_TRUE(Client::scrape(fixture.endpoint(), text, &error))
        << error;
    for (const char *name :
         {"emprof.serve.sessions_aborted",
          "emprof.serve.sessions_timed_out",
          "emprof.serve.sessions_shed", "emprof.serve.retry_after_sent",
          "emprof.serve.accept_fd_exhausted",
          "emprof.serve.results_spool_failed",
          "emprof.serve.parked_evicted", "emprof.serve.parked_expired"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
}

TEST(Overload, HealthProbeAnswersLiveWithoutOpeningASession)
{
    ServerFixture fixture;
    HealthState state = HealthState::Draining;
    std::string error;
    ASSERT_TRUE(Client::health(fixture.endpoint(), state, &error))
        << error;
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(HealthState::Live));
    EXPECT_EQ(fixture.server().stats().sessionsAccepted, 0u);
}

TEST(Overload, DefaultConfigIsAStrictNoOp)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();

    ServerFixture fixture; // every overload knob at its 0 default

    // A full stall draws NO reaction: no typed error, no disconnect —
    // exactly the pre-hardening behaviour, bit for bit.
    StallOptions stall;
    stall.headBytes = bytes.size() / 2;
    stall.giveUpAfterMs = 700; // > 3 poll ticks: plenty to react in
    const HostileOutcome outcome = runHostileSession(
        fixture.endpoint(), bytes.data(), bytes.size(), stall);
    ASSERT_TRUE(outcome.opened);
    EXPECT_FALSE(outcome.typedError)
        << "a default-configured server must not shed";
    EXPECT_FALSE(outcome.connectionDied);
    EXPECT_EQ(fixture.server().stats().sessionsTimedOut, 0u);
    EXPECT_EQ(fixture.server().stats().sessionsShed, 0u);
    EXPECT_EQ(fixture.server().stats().retryAfterSent, 0u);

    // And normal service is untouched.
    const PushResult result = pushOnce(fixture.endpoint(), bytes);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
        << "no-op-baseline";
}
