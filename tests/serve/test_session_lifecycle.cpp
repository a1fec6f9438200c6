/**
 * @file
 * The served session lifecycle (serve/session_state.hpp).
 *
 * SessionLifecycle.* drives the pure transition function with 10k
 * seeded random event sequences against a model of the pump (queue,
 * Finish entry, stop order, completion) and checks the invariants the
 * server's correctness rests on: exactly one terminal outcome per
 * session, nothing after Parked or Done, no reply while the pump runs,
 * parking only once the pump has stopped, and socket events never
 * reaching a session that is not polled (Draining above all).
 *
 * The socket tests upload 16 Mi samples to a one-worker server, so the
 * pump still owns most of them when the client hangs up: the I/O
 * thread must not spin while that session drains, and a client that
 * reconnects at once must be answered Resumed at the durable offset
 * once the session parks — not Fresh at 0 while the old pipeline
 * parks behind it.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "serve/session_state.hpp"
#include "serve_support.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;
using namespace emprof::serve;

namespace {

namespace lc = lifecycle;
using E = lc::SessionEvent;
using S = lc::SessionState;

// ---------------------------------------------------------------------
// The model: the transition function plus a pump that behaves like
// ServerCore::pump (feeds queued Data, takes the Finish entry, obeys stop
// orders, posts one completion or goes idle).
// ---------------------------------------------------------------------

struct ModelSession
{
    S state = S::Handshake;
    E deferred = E::PeerEof;
    bool opened = false;   ///< a pipeline exists
    bool stopping = false; ///< Stop was delivered

    bool pumpRunning = false;
    int queued = 0;
    bool finishQueued = false;
    bool inFinish = false;
    lc::PumpOrder stop = lc::PumpOrder::None;

    int terminal = 0; ///< steps that parked or ended the session
    int openAcks = 0;
    std::string failure; ///< first invariant violation
};

bool
isCompletion(E event)
{
    return event == E::PumpReport || event == E::PumpFailed ||
           event == E::PumpStopped;
}

bool
fromSocket(E event)
{
    return event == E::OpenAccepted || event == E::OpenRefused ||
           event == E::Answered || event == E::ProtocolError ||
           event == E::Data || event == E::Finish || event == E::PeerEof;
}

void
violate(ModelSession &m, const std::string &what, S from, E event)
{
    if (m.failure.empty())
        m.failure = what + " (state " +
                    std::to_string(static_cast<int>(from)) + ", event " +
                    std::to_string(static_cast<int>(event)) + ")";
}

/** Transitions taken, as (from, event, next), for the coverage check. */
using Visits = std::map<std::tuple<S, E, S>, int>;

/** Deliver @p event, check the invariants, apply the step's orders. */
void
deliver(ModelSession &m, E event, Visits &visits)
{
    if (isCompletion(event)) {
        // The pump clears its queue and posts; the I/O thread marks it
        // stopped as it takes the completion.
        m.pumpRunning = false;
        m.queued = 0;
        m.finishQueued = false;
        m.inFinish = false;
        m.stop = lc::PumpOrder::None;
    }
    lc::SessionFacts facts;
    facts.pumpRunning = m.pumpRunning;
    facts.parkable = m.opened && !m.stopping;
    facts.deferred = m.deferred;
    const S from = m.state;
    const lc::Step step = lc::advance(from, event, facts);

    if (step.reply != lc::Reply::None && facts.pumpRunning)
        violate(m, "reply while the pump runs", from, event);
    if ((step.next == S::Parked || step.next == S::Done) &&
        facts.pumpRunning)
        violate(m, "parked or ended while the pump runs", from, event);
    if ((from == S::Parked || from == S::Done) &&
        (step.next != from || step.reply != lc::Reply::None ||
         step.pump != lc::PumpOrder::None))
        violate(m, "a parked or ended session acted", from, event);
    if (fromSocket(event) && !lc::polled(from) &&
        (step.next != from || step.reply != lc::Reply::None ||
         step.pump != lc::PumpOrder::None))
        violate(m, "a socket event moved an unpolled session", from,
                event);
    const bool ends = from != S::Parked && from != S::Done &&
                      (step.next == S::Parked || step.next == S::Done);
    if (ends)
        ++m.terminal;
    else if (step.reply != lc::Reply::None &&
             step.reply != lc::Reply::OpenAck)
        violate(m, "a final reply without an outcome", from, event);
    if (step.reply == lc::Reply::OpenAck)
        ++m.openAcks;
    if (step.pump == lc::PumpOrder::Feed) {
        if (event == E::Data)
            ++m.queued;
        else
            m.finishQueued = true;
        m.pumpRunning = true;
    } else if (step.pump != lc::PumpOrder::None) {
        if (!m.pumpRunning)
            violate(m, "a stop order to an idle pump", from, event);
        m.stop = std::max(m.stop, step.pump);
    }
    if (step.next == S::Draining && from != S::Draining)
        m.deferred = event;
    if (from == S::Handshake && step.next == S::Uploading)
        m.opened = true;
    if (event == E::Stop)
        m.stopping = true;
    ++visits[{from, event, step.next}];
    m.state = step.next;
}

/** One move of the modelled pump: feed an item, take the Finish
 *  entry, go idle, or post a completion. */
void
pumpStep(ModelSession &m, dsp::Rng &rng, Visits &visits)
{
    std::optional<E> completion;
    if (m.inFinish)
        completion = rng.below(4) == 0 ? E::PumpFailed : E::PumpReport;
    else if (m.stop == lc::PumpOrder::Abandon)
        completion = E::PumpStopped;
    else if (m.queued > 0 && rng.below(20) == 0)
        completion = E::PumpFailed; // a malformed chunk
    else if (m.queued > 0)
        --m.queued;
    else if (m.finishQueued) {
        m.finishQueued = false;
        m.inFinish = true;
    } else if (m.stop == lc::PumpOrder::Drain)
        completion = E::PumpStopped;
    else
        m.pumpRunning = false; // idle until the next Feed
    if (completion)
        deliver(m, *completion, visits);
}

/** The next I/O-thread event: half the time the likely one for the
 *  state (an Open, then Data), otherwise any event at all — socket
 *  events included where the session is not polled. */
E
ioEvent(const ModelSession &m, dsp::Rng &rng)
{
    constexpr E kAny[] = {
        E::OpenAccepted, E::OpenRefused,   E::Answered, E::ProtocolError,
        E::Data,         E::Finish,        E::PeerEof,  E::TickShed,
        E::HardShed,
    };
    if (rng.below(2) == 0 && m.state == S::Handshake)
        return E::OpenAccepted;
    if (rng.below(2) == 0 && m.state == S::Uploading)
        return rng.below(6) == 0 ? E::Finish : E::Data;
    return kAny[rng.below(std::size(kAny))];
}

/** Run the modelled pump until it stops or goes idle. */
void
runPump(ModelSession &m, dsp::Rng &rng, Visits &visits)
{
    while (m.pumpRunning && m.failure.empty())
        pumpStep(m, rng, visits);
}

} // namespace

TEST(SessionLifecycle, RandomEventSequencesKeepTheInvariants)
{
    Visits visits;
    for (uint64_t seed = 1; seed <= 10000; ++seed) {
        dsp::Rng rng(seed);
        ModelSession m;
        const int steps = 1 + static_cast<int>(rng.below(40));
        for (int i = 0; i < steps && !m.stopping && m.failure.empty();
             ++i) {
            if (m.pumpRunning && rng.below(2) == 0)
                pumpStep(m, rng, visits);
            else
                deliver(m, rng.below(40) == 0 ? E::Stop : ioEvent(m, rng),
                        visits);
        }
        // Half the runs let the pump settle first; then the server
        // stops and its pool drains.
        if (rng.below(2) == 0)
            runPump(m, rng, visits);
        if (!m.stopping)
            deliver(m, E::Stop, visits);
        runPump(m, rng, visits);

        ASSERT_TRUE(m.failure.empty())
            << "seed " << seed << ": " << m.failure;
        EXPECT_TRUE(m.state == S::Parked || m.state == S::Done)
            << "seed " << seed;
        EXPECT_EQ(m.terminal, 1) << "seed " << seed;
        EXPECT_LE(m.openAcks, 1) << "seed " << seed;
    }
    EXPECT_FALSE(lc::polled(S::Finishing));
    EXPECT_FALSE(lc::polled(S::Draining));
    EXPECT_FALSE(lc::polled(S::Parked));

    // The generator reached the interleavings that matter.
    const std::tuple<S, E, S> wanted[] = {
        {S::Uploading, E::PeerEof, S::Draining},
        {S::Draining, E::PumpStopped, S::Parked}, // drained, then parked
        {S::Uploading, E::PeerEof, S::Parked},
        {S::Uploading, E::TickShed, S::Parked},   // shed: Error + park
        {S::Uploading, E::HardShed, S::Draining},
        {S::Finishing, E::Stop, S::Draining},
        {S::Draining, E::PumpReport, S::Done},    // the report won
        {S::Draining, E::PumpFailed, S::Done},
        {S::Finishing, E::PumpReport, S::Done},
        {S::Uploading, E::PumpFailed, S::Done},
    };
    for (const auto &t : wanted)
        EXPECT_GE(visits[t], 20)
            << "transition " << static_cast<int>(std::get<0>(t)) << " -"
            << static_cast<int>(std::get<1>(t)) << "-> "
            << static_cast<int>(std::get<2>(t));
}

namespace {

// ---------------------------------------------------------------------
// Socket tests on a 16 Mi-sample upload.
// ---------------------------------------------------------------------

constexpr std::size_t kBigSamples = std::size_t{16} << 20;

/** Busy at ~1.0 with short dips to ~0.2, as one EMCAP file's bytes. */
const std::vector<uint8_t> &
bigCapture()
{
    static const std::vector<uint8_t> bytes = [] {
        dsp::TimeSeries s;
        s.sampleRateHz = 40e6;
        s.samples.assign(kBigSamples, 1.0f);
        dsp::Rng rng(16);
        for (std::size_t pos = 1000; pos + 200 < kBigSamples;
             pos += 3000 + rng.below(5000)) {
            const std::size_t len = 20 + rng.below(80);
            std::fill_n(s.samples.begin() + static_cast<long>(pos), len,
                        0.2f);
        }
        for (auto &x : s.samples)
            x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
        store::WriterOptions options;
        options.sampleRateHz = s.sampleRateHz;
        options.codec = store::SampleCodec::QuantI16;
        const std::string path = testing::TempDir() +
                                 "emprof_lifecycle_" +
                                 std::to_string(::getpid()) + ".emcap";
        EXPECT_TRUE(store::writeCapture(path, s, options));
        std::ifstream in(path, std::ios::binary);
        std::vector<uint8_t> out((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
        std::remove(path.c_str());
        return out;
    }();
    return bytes;
}

std::set<long>
taskIds()
{
    std::set<long> ids;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ids.insert(std::stol(entry.path().filename().string()));
    return ids;
}

/** utime + stime of thread @p tid, in seconds. */
double
threadCpuSeconds(long tid)
{
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
    std::string line;
    std::getline(in, line);
    // Fields after the ")" that closes the command name start at 3;
    // utime and stime are fields 14 and 15.
    std::istringstream rest(line.substr(line.rfind(')') + 2));
    std::string field;
    unsigned long ticks = 0;
    for (int f = 3; f <= 15 && rest >> field; ++f)
        if (f >= 14)
            ticks += std::stoul(field);
    return static_cast<double>(ticks) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/** One worker, and a queue budget that holds the whole upload. */
ServerConfig
bigUploadConfig()
{
    ServerConfig config;
    config.threads = 1;
    config.sessionBufferBytes = std::size_t{1} << 30;
    return config;
}

constexpr std::chrono::seconds kBigUploadWait{60};

/** Open a fresh session, queue the whole capture, and return the
 *  socket (still open) and the session id. */
int
queueWholeUpload(support::ServerFixture &fixture, SessionId &id,
                 bool resilient = false)
{
    const auto &bytes = bigCapture();
    const uint64_t ingested = fixture.server().stats().bytesIngested;
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    OpenRequest open{};
    open.flags = resilient ? kOpenResilient : 0u;
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    EXPECT_TRUE(
        client.openSession(open, id, offset, state, nullptr, &error))
        << error;
    EXPECT_TRUE(client.sendData(bytes.data(), bytes.size(), &error))
        << error;
    EXPECT_TRUE(fixture.waitFor(
        [&](const ServerStats &s) {
            return s.bytesIngested - ingested == bytes.size();
        },
        kBigUploadWait));
    return client.releaseFd();
}

} // namespace

TEST(Server, HangUpWhileAnalysingDoesNotSpinTheIoThread)
{
    const std::set<long> before = taskIds();
    support::ServerFixture fixture(bigUploadConfig());
    // The I/O thread is the last thread start() creates.
    long ioTid = 0;
    for (const long tid : taskIds())
        if (before.count(tid) == 0)
            ioTid = std::max(ioTid, tid);
    ASSERT_GT(ioTid, 0);
    // A first upload keeps the only worker busy, so the hung-up
    // session's pump waits behind it and the drain lasts long enough
    // for the 10 ms ticks of /proc/<pid>/task/<tid>/stat to resolve 10%.
    SessionId busy_id{};
    const int busy = queueWholeUpload(fixture, busy_id, true);
    SessionId id{};
    const int fd = queueWholeUpload(fixture, id, true);

    const auto t0 = std::chrono::steady_clock::now();
    const double cpu0 = threadCpuSeconds(ioTid);
    ::close(fd);
    ASSERT_TRUE(fixture.waitFor(
        [](const ServerStats &s) { return s.sessionsParked >= 1; },
        kBigUploadWait));
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const double cpu = threadCpuSeconds(ioTid) - cpu0;
    EXPECT_LT(cpu, 0.1 * wall)
        << "I/O thread used " << cpu << " s of CPU in the " << wall
        << " s from hang-up to park";
    ::close(busy);
}

TEST(Resume, ImmediateReconnectResumesTheDrainingSession)
{
    const auto &bytes = bigCapture();
    support::ServerFixture fixture(bigUploadConfig());

    // The uninterrupted upload's report is the reference.
    const PushResult uninterrupted = support::pushOnce(fixture.endpoint(),
                                                       bytes);
    ASSERT_TRUE(uninterrupted.ok) << uninterrupted.error;
    ASSERT_GT(uninterrupted.report.events.size(), 100u);

    SessionId id{};
    ::close(queueWholeUpload(fixture, id));

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    OpenRequest open{};
    open.flags = kOpenResume;
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ASSERT_TRUE(client.openSession(open, echoed, offset, state, nullptr,
                                   &error))
        << error;
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(SessionState::Resumed));
    EXPECT_EQ(echoed, id);
    ASSERT_LE(offset, bytes.size());
    EXPECT_GT(offset, bytes.size() / 2) << "the drain kept the queue";
    ASSERT_TRUE(client.sendData(bytes.data() + offset,
                                bytes.size() - offset, &error))
        << error;
    const PushResult resumed = client.finish();
    ASSERT_TRUE(resumed.ok) << resumed.error;

    const DecodedReport &want = uninterrupted.report;
    const DecodedReport &got = resumed.report;
    EXPECT_EQ(want.status, got.status);
    EXPECT_EQ(want.totalSamples, got.totalSamples);
    EXPECT_EQ(parity::eventsDiff(want.events, got.events), "");
    EXPECT_EQ(want.reportText, got.reportText);

    // Every park was resumed, and nothing expired or was evicted, so
    // nothing is left parked behind the report.
    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsParked, 1u);
    EXPECT_EQ(stats.sessionsParked, stats.sessionsResumed);
    EXPECT_EQ(stats.parkedExpired + stats.parkedEvicted, 0u);
    EXPECT_EQ(stats.sessionsCompleted, 2u);
}
