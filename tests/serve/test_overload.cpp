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
 * CI alongside the rest of test_serve.  The sheds that only a timing
 * reaches are seeded schedules in test_schedule.cpp.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/io/fault_injection.hpp"
#include "hostile_client.hpp"
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

/** Fill this process's descriptor table: lower the RLIMIT_NOFILE soft
 *  limit just above the highest open fd and open /dev/null until
 *  EMFILE.  Undoes both on scope exit. */
class ScopedFdExhaustion
{
  public:
    ScopedFdExhaustion()
    {
        ::getrlimit(RLIMIT_NOFILE, &saved_);
        int highest = 0;
        for (const auto &entry :
             std::filesystem::directory_iterator("/proc/self/fd"))
            highest = std::max(highest,
                               std::stoi(entry.path().filename().string()));
        rlimit lowered = saved_;
        lowered.rlim_cur = static_cast<rlim_t>(highest) + 8;
        ::setrlimit(RLIMIT_NOFILE, &lowered);
        for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;)
            fillers_.push_back(fd);
    }

    ~ScopedFdExhaustion()
    {
        for (const int fd : fillers_)
            ::close(fd);
        ::setrlimit(RLIMIT_NOFILE, &saved_);
    }

    ScopedFdExhaustion(const ScopedFdExhaustion &) = delete;
    ScopedFdExhaustion &operator=(const ScopedFdExhaustion &) = delete;

    /** Give one descriptor back (for the probe's own socket). */
    void
    freeOne()
    {
        ::close(fillers_.back());
        fillers_.pop_back();
    }

    bool full() const { return !fillers_.empty(); }

  private:
    rlimit saved_{};
    std::vector<int> fillers_;
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
// Time-domain protection: one idle shed end to end (the deadline,
// rate-floor and torn-frame sheds are schedules in test_schedule.cpp)
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

// ---------------------------------------------------------------------
// Admission control and fd exhaustion (the watermark sheds are
// schedules in test_schedule.cpp)
// ---------------------------------------------------------------------

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

TEST(Overload, FdExhaustionOnAcceptAnswersTypedRetryAfter)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());

    ServerFixture fixture;
    {
        // The table fills first, so the server cannot accept the probe
        // before accept() runs out of descriptors; the probe's socket
        // takes the one slot given back.  accept() then fails with a
        // real EMFILE, and the emergency fd must still pick the probe
        // up and answer it with a typed RetryAfter instead of letting
        // it starve silently.
        ScopedFdExhaustion exhausted;
        ASSERT_TRUE(exhausted.full());
        exhausted.freeOne();
        Client probe;
        std::string error;
        ASSERT_TRUE(probe.connect(fixture.endpoint(), &error)) << error;
        const int fd = probe.releaseFd();
        timeval give_up{5, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &give_up,
                     sizeof(give_up));
        Frame reply;
        ASSERT_TRUE(readFrame(fd, reply, &error)) << error;
        ::close(fd);
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
    }
    EXPECT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.acceptFdExhausted >= 1 && s.retryAfterSent >= 1;
    }));
    EXPECT_EQ(fixture.server().stats().acceptFdExhausted, 1u);

    // Recovery: once descriptors are back and the listener mute
    // lapses, a normal push goes straight through.
    const PushResult result = pushOnce(fixture.endpoint(), bytes);
    ASSERT_TRUE(result.ok) << result.error;
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
        // The spool's own CheckedFile write is the next file write in
        // this process: it sees ENOSPC at its first byte.
        common::io::FaultPlan plan;
        plan.kind = common::io::FaultPlan::Kind::NoSpace;
        plan.triggerByte = 0;
        common::io::ScopedFaultPlan scoped(plan);
        const PushResult result = pushOnce(fixture.endpoint(), bytes);
        // Durability is lost; the REPLY is not.
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
            << "served-despite-enospc";
        EXPECT_TRUE(common::io::FaultInjector::fired());
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
