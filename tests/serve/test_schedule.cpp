/**
 * @file
 * The seeded schedule harness for the ingest server's core
 * (serve/server_core.hpp, DESIGN.md §17).
 *
 * A Sim drives one ServerCore on this thread the way the socket shell
 * does, with the shell's sockets, clock and pool replaced by a model:
 * scripted connections that write bytes which the core reads at any
 * slicing, and only while it polls them, then hang up; a virtual clock
 * advanced by the schedule; and a pump executor that runs queued pump
 * tasks, in any order, when the schedule says so.  A schedule may also
 * fail accept() with EMFILE, fail one spool append with ENOSPC
 * (common::io::FaultInjector armed around exactly that pump), and stop
 * the core and start a new one over the same spool directory.
 *
 * After every step the Sim checks that
 *  - each connection is closed exactly once and gets at most one final
 *    frame: a typed Error, a Report, a Stats or Health answer; one that
 *    gets none parked, hung up, or was stopped before its Open;
 *  - no frame reaches a connection after its Close or while its
 *    session's pump runs;
 *  - every Report, spool replays included, equals local analysis of
 *    its upload under parity::eventsDiff;
 *  - a shed (IdleTimeout or RetryAfter) of an admitted session whose
 *    stream is healthy parks it;
 *  - a resume is never answered while another connection holds the
 *    id; a resume of an id that is parked, or parks in that step, is
 *    answered Resumed at the parked offset; one of a spooled id is
 *    answered Complete;
 *  - a Resumed offset sits on an EMCAP element boundary and not past
 *    the capture bytes the server read for that id;
 *  - the poll list holds only Handshake and Uploading sessions that
 *    are neither backpressured nor holding a resume;
 *  - ServerStats agrees with the outcomes observed, and every park is
 *    resumed, still parked, expired, evicted or dropped at stop.
 *
 * Session ids come from the seed, so a failing seed replays exactly;
 * its schedule is printed.  Schedules.RandomSchedulesKeepTheInvariants
 * runs 10k seeds (EMPROF_SCHEDULE_SEEDS overrides: the nightly
 * test_schedule_long runs 1M).  The Overload.* tests here are named
 * schedules for sheds, expiry and eviction that socket tests could
 * only reach by sleeping.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/io/fault_injection.hpp"
#include "dsp/rng.hpp"
#include "serve/server_core.hpp"
#include "serve_support.hpp"
#include "store/emcap_format.hpp"

#ifndef EMPROF_SCHEDULE_SEEDS
#define EMPROF_SCHEDULE_SEEDS 10000
#endif

using namespace emprof;
using namespace emprof::serve;

namespace {

using TimePoint = ServerCore::TimePoint;
using Ev = CoreEvent::Kind;
using Do = CoreAction::Kind;
using S = lifecycle::SessionState;

/** An upload the clients send, with its local analysis. */
struct Upload
{
    std::vector<uint8_t> bytes;
    std::vector<profiler::StallEvent> expected;
    bool reportable = false; ///< a Finish can end in a Report
    std::set<uint64_t> boundaries; ///< EMCAP element boundaries
};

/** Offsets where an EMCAP element starts or ends: the header, each
 *  chunk header and payload, and each footer byte (the stream decoder
 *  takes the footer a byte at a time). */
std::set<uint64_t>
elementBoundaries(const std::vector<uint8_t> &bytes)
{
    std::set<uint64_t> out{0, bytes.size()};
    store::FileHeader header{};
    uint64_t at = sizeof(header);
    if (at > bytes.size())
        return out;
    std::memcpy(&header, bytes.data(), sizeof(header));
    out.insert(at);
    for (uint64_t samples = 0; samples < header.totalSamples &&
                               at + sizeof(store::ChunkHeader) <= bytes.size();) {
        store::ChunkHeader chunk{};
        std::memcpy(&chunk, bytes.data() + at, sizeof(chunk));
        out.insert(at + sizeof(chunk));
        at += sizeof(chunk) + chunk.payloadBytes;
        samples += chunk.sampleCount;
        out.insert(at);
    }
    for (; at < bytes.size(); ++at)
        out.insert(at);
    return out;
}

const Upload &
goldenUpload()
{
    static const Upload u = [] {
        Upload v;
        v.bytes = support::goldenCapture();
        v.expected = support::loadExpected();
        v.reportable = true;
        v.boundaries = elementBoundaries(v.bytes);
        return v;
    }();
    return u;
}

/** Ends mid-chunk: every Finish of it is a typed Malformed. */
const Upload &
truncatedUpload()
{
    static const Upload u = [] {
        Upload v;
        v.bytes = support::readFileBytes(
            support::goldenPath(golden::kTruncatedFile));
        v.boundaries = elementBoundaries(v.bytes);
        return v;
    }();
    return u;
}

/** The client end of one connection, and what the server told it. */
struct Conn
{
    const Upload *upload = nullptr; ///< null: probes, garbage, idle
    bool resume = false;  ///< its Open asks to resume `id`
    bool sendRest = true; ///< after a resume's OpenAck: the rest + Finish
    bool healthy = true;  ///< every byte written is well formed
    std::vector<uint8_t> wire; ///< written, not yet read by the server
    uint64_t written = 0;      ///< wire bytes ever written
    uint64_t read = 0;         ///< wire bytes the server read
    /** Data frames written: (wire end, capture end). */
    std::vector<std::pair<uint64_t, uint64_t>> dataEnds;
    uint64_t captureRead = 0; ///< capture bytes in Data frames read whole
    bool hungUp = false;
    bool eofRead = false; ///< the server read the hang-up
    bool closed = false;
    bool parked = false;
    int finals = 0; ///< Error, Report, Stats and Health frames

    bool acked = false; ///< OpenAck Fresh or Resumed
    SessionState ack = SessionState::Fresh;
    uint64_t ackOffset = 0;
    SessionId id{};
    bool reported = false;
    std::optional<ErrorCode> error;
    std::string message;
    uint32_t retryAfterMs = 0;
    std::vector<uint8_t> answer; ///< Stats or Health payload
};

/** What a sweep of schedules reached, summed over its cores. */
struct Coverage
{
    ServerStats stats;
    uint64_t heldAnswers = 0; ///< resumes answered once a holder let go
    uint64_t restarts = 0;
};

/** What the Sim saw, field for field against ServerStats. */
struct Seen
{
    uint64_t accepted = 0, completed = 0, rejected = 0, aborted = 0,
             resumed = 0, fromSpool = 0, parked = 0, timedOut = 0,
             shed = 0, retryAfter = 0, fdExhausted = 0, dropped = 0;
};

std::string
describe(S s)
{
    static const char *const kNames[] = {"Handshake", "Uploading",
                                         "Finishing", "Draining",
                                         "Parked",    "Done"};
    return kNames[static_cast<int>(s)];
}

class Sim
{
  public:
    Sim(ServerConfig config, uint64_t seed, bool spool,
        Coverage *coverage = nullptr)
        : config_(std::move(config)), seed_(seed), rng_(seed ^ 0x5c4ed),
          coverage_(coverage)
    {
        if (spool)
            spoolDir_ = support::freshDir("schedule");
        startCore();
    }

    ~Sim()
    {
        core_.reset();
        if (!spoolDir_.empty()) {
            std::error_code ignored;
            std::filesystem::remove_all(spoolDir_, ignored);
        }
    }

    Sim(const Sim &) = delete;
    Sim &operator=(const Sim &) = delete;

    bool ok() const { return failure_.empty(); }
    const std::string &failure() const { return failure_; }
    std::string schedule() const { return log_; }
    const Conn &conn(int c) const { return conns_.at(c); }
    ServerStats stats() const { return core_->stats(); }
    std::size_t pendingPumps() const { return pumps_.size(); }
    std::size_t parkedCount() const { return core_->parked().size(); }
    dsp::Rng &rng() { return rng_; }

    /** Known session ids, oldest first. */
    const std::vector<SessionId> &ids() const { return idOrder_; }

    bool
    polls(int c) const
    {
        const std::vector<int> p = core_->polled();
        return std::find(p.begin(), p.end(), c) != p.end();
    }

    std::vector<int>
    openConns() const
    {
        std::vector<int> out;
        for (const auto &[c, conn] : conns_)
            if (!conn.closed)
                out.push_back(c);
        return out;
    }

    int
    connect()
    {
        const int c = nextConn_++;
        conns_[c];
        note("connect c" + std::to_string(c));
        step({Ev::Accepted, c});
        return c;
    }

    /** Write a frame into @p c's socket. */
    void
    write(int c, FrameType type, const void *payload, std::size_t n)
    {
        std::vector<uint8_t> frame;
        appendFrame(frame, type, payload, n);
        writeRaw(c, frame);
    }

    void
    writeRaw(int c, const std::vector<uint8_t> &bytes)
    {
        Conn &conn = conns_.at(c);
        conn.wire.insert(conn.wire.end(), bytes.begin(), bytes.end());
        conn.written += bytes.size();
    }

    /** Data frames of @p upload's bytes [from, to), cut at @p cut bytes
     *  (0: random cuts), then a Finish when @p finish. */
    void
    writeUpload(int c, uint64_t from, uint64_t to, bool finish,
                std::size_t cut = 0)
    {
        Conn &conn = conns_.at(c);
        const std::vector<uint8_t> &bytes = conn.upload->bytes;
        while (from < to) {
            const uint64_t n = std::min<uint64_t>(
                to - from, cut > 0 ? cut : 1 + rng_.below(9000));
            write(c, FrameType::Data, bytes.data() + from, n);
            from += n;
            conn.dataEnds.push_back({conn.written, from});
        }
        if (finish)
            write(c, FrameType::Finish, nullptr, 0);
        note("c" + std::to_string(c) + " writes upload to " +
             std::to_string(to) + (finish ? " + Finish" : ""));
    }

    /** A fresh Open for @p upload, then bytes [0, stopAt) of it. */
    void
    openFresh(int c, const Upload &upload, uint64_t stopAt, bool finish,
              std::size_t cut = 0, const SessionId *proposed = nullptr)
    {
        Conn &conn = conns_.at(c);
        conn.upload = &upload;
        OpenRequest open{};
        if (proposed != nullptr)
            std::memcpy(open.sessionId, proposed->data(), proposed->size());
        write(c, FrameType::Open, &open, sizeof(open));
        writeUpload(c, 0, stopAt, finish, cut);
    }

    /** A resume Open for a known @p id; after the OpenAck the client
     *  sends the rest and Finish when @p sendRest. */
    void
    openResume(int c, const SessionId &id, bool sendRest = true)
    {
        Conn &conn = conns_.at(c);
        conn.upload = uploads_.at(sessionIdToHex(id));
        conn.resume = true;
        conn.sendRest = sendRest;
        conn.id = id;
        OpenRequest open{};
        open.flags = kOpenResume;
        std::memcpy(open.sessionId, id.data(), id.size());
        open.resumeFrom = kResumeQuery;
        write(c, FrameType::Open, &open, sizeof(open));
        note("c" + std::to_string(c) + " resumes " +
             sessionIdToHex(id).substr(0, 8));
    }

    void
    markUnhealthy(int c)
    {
        conns_.at(c).healthy = false;
    }

    /** The server reads up to @p n written bytes of @p c (all when 0),
     *  or its EOF once the written bytes are gone.  Only while polled,
     *  like the shell. */
    void
    deliver(int c, std::size_t n = 0)
    {
        Conn &conn = conns_.at(c);
        if (!ok() || !polls(c))
            return;
        if (conn.wire.empty()) {
            if (conn.hungUp && !conn.eofRead) {
                note("c" + std::to_string(c) + " EOF read");
                conn.eofRead = true;
                step({Ev::Hangup, c});
            }
            return;
        }
        n = n == 0 ? conn.wire.size() : std::min(n, conn.wire.size());
        const std::vector<uint8_t> bytes(conn.wire.begin(),
                                         conn.wire.begin() + n);
        conn.wire.erase(conn.wire.begin(), conn.wire.begin() + n);
        conn.read += n;
        for (const auto &[wire_end, capture_end] : conn.dataEnds)
            if (wire_end <= conn.read)
                conn.captureRead = std::max(conn.captureRead, capture_end);
        note("c" + std::to_string(c) + " read " + std::to_string(n));
        step({Ev::Bytes, c, 0, bytes.data(), bytes.size()});
    }

    /** The client hangs up: an orderly EOF after its bytes, or an RST
     *  that discards them. */
    void
    hangup(int c, bool rst = false)
    {
        Conn &conn = conns_.at(c);
        if (conn.hungUp || conn.closed)
            return;
        conn.hungUp = true;
        if (rst)
            conn.wire.clear();
        note("c" + std::to_string(c) + (rst ? " RST" : " FIN"));
        if (conn.wire.empty())
            deliver(c);
    }

    /** Run queued pump task @p i, with ENOSPC armed for its spool
     *  append when @p enospc. */
    void
    runPump(std::size_t i, bool enospc = false)
    {
        if (i >= pumps_.size())
            return;
        const ServerCore::SessionPtr s = pumps_[i];
        pumps_.erase(pumps_.begin() + static_cast<long>(i));
        note(std::string(enospc ? "pump (ENOSPC) " : "pump ") +
             std::to_string(i));
        if (!enospc) {
            core_->pump(s);
            return;
        }
        common::io::FaultPlan plan;
        plan.kind = common::io::FaultPlan::Kind::NoSpace;
        plan.triggerByte = 0;
        common::io::ScopedFaultPlan armed(plan);
        core_->pump(s);
    }

    void
    runPumps()
    {
        while (!pumps_.empty())
            runPump(0);
    }

    void
    advance(double seconds)
    {
        now_ += std::chrono::duration_cast<TimePoint::duration>(
            std::chrono::duration<double>(seconds));
        note("advance " + std::to_string(seconds));
        step({Ev::Tick});
    }

    void
    tick()
    {
        note("tick");
        step({Ev::Tick});
    }

    /** accept() fails with EMFILE while one connection waits. */
    void
    emfile()
    {
        note("EMFILE");
        ++seen_.fdExhausted;
        step({Ev::AcceptFailed, -1, EMFILE});
    }

    /** Stop, drain the pumps in any order, and start a new core over
     *  the same spool directory. */
    void
    restart()
    {
        note("restart");
        stopCore();
        startCore();
    }

    /** Stop for good and check every connection's ending. */
    void
    finish()
    {
        stopCore();
        for (const auto &[c, conn] : conns_)
            if (!conn.closed)
                fail("connection c" + std::to_string(c) +
                     " was never closed");
    }

  private:
    void
    note(const std::string &line)
    {
        if (ok()) // the schedule up to the failing step
            log_ += "  " + line + "\n";
    }

    void
    fail(const std::string &what)
    {
        if (failure_.empty())
            failure_ = what;
    }

    void
    startCore()
    {
        core_ = std::make_unique<ServerCore>(config_, seed_ + restarts_++,
                                             [] {});
        seen_ = {};
        if (spoolDir_.empty())
            return;
        ResultSpool::Options options;
        options.dir = spoolDir_;
        std::string why;
        if (!core_->spool().open(options, &why))
            fail("cannot open the spool: " + why);
    }

    void
    stopCore()
    {
        note("stop");
        step({Ev::Stop});
        while (!pumps_.empty())
            runPump(rng_.below(pumps_.size()));
        seen_.dropped += core_->parked().size();
        step({Ev::Drained});
        core_->spool().close();
        if (coverage_ == nullptr)
            return;
        ++coverage_->restarts;
        const ServerStats st = core_->stats();
        ServerStats &sum = coverage_->stats;
        for (uint64_t ServerStats::*field :
             {&ServerStats::sessionsCompleted, &ServerStats::sessionsParked,
              &ServerStats::sessionsResumed,
              &ServerStats::resultsServedFromSpool,
              &ServerStats::sessionsTimedOut, &ServerStats::sessionsShed,
              &ServerStats::retryAfterSent, &ServerStats::sessionsAborted,
              &ServerStats::resultsSpoolFailed, &ServerStats::parkedEvicted,
              &ServerStats::parkedExpired, &ServerStats::acceptFdExhausted})
            sum.*field += st.*field;
    }

    void step(const CoreEvent &event);
    void onFrame(int c, const Frame &frame);
    void checkResumeAck(int c, const SessionId &id, uint64_t offset,
                        SessionState state);
    void checkAfter(const CoreEvent &event);

    const ServerConfig config_;
    const uint64_t seed_;
    dsp::Rng rng_;
    Coverage *const coverage_;
    std::string spoolDir_;
    std::unique_ptr<ServerCore> core_;
    uint64_t restarts_ = 0;
    TimePoint now_{std::chrono::hours(1)};
    std::map<int, Conn> conns_;
    int nextConn_ = 3;
    std::vector<ServerCore::SessionPtr> pumps_; ///< submitted, not run
    std::map<std::string, const Upload *> uploads_; ///< by id hex
    std::vector<SessionId> idOrder_;
    Seen seen_;
    std::string log_;
    std::string failure_;

    // ---- the step being checked ----
    struct Before
    {
        ServerCore::SessionPtr session;
        S state;
        int conn;
    };
    std::vector<Before> before_;
    const CoreEvent *event_ = nullptr;
    std::map<std::string, uint64_t> parkedBefore_; ///< id hex -> offset
    std::set<const CoreSession *> owned_; ///< pump tasks own these
    std::vector<int> shedHealthy_;        ///< shed this step
    std::set<int> acked_;                 ///< OpenAck'd this step
    std::set<int> closedSoFar_;           ///< Closed this step, so far
};

void
Sim::step(const CoreEvent &event)
{
    if (!ok())
        return;
    event_ = &event;
    const bool settles = event.kind == Ev::Tick || event.kind == Ev::Drained;
    before_.clear();
    owned_.clear();
    parkedBefore_.clear();
    shedHealthy_.clear();
    acked_.clear();
    closedSoFar_.clear();
    for (const ServerCore::SessionPtr &s : core_->sessions()) {
        before_.push_back({s, s->state, s->conn});
        std::lock_guard<std::mutex> lock(s->mutex);
        // A posted completion is settled by this step if it ticks.
        if (s->work.running && !(settles && s->work.completion))
            owned_.insert(s.get());
    }
    for (const auto &[hex, s] : core_->parked())
        parkedBefore_[hex] = s->resumeOffset;

    const auto sessionOf = [&](int c) -> const CoreSession * {
        for (const Before &b : before_)
            if (b.conn == c)
                return b.session.get();
        return nullptr;
    };
    bool spend = false;
    std::vector<int> closed;
    for (CoreAction &a : core_->step(event, now_)) {
        const std::string cname = "c" + std::to_string(a.conn);
        switch (a.kind) {
        case Do::Submit:
            if (!owned_.insert(a.session.get()).second)
                fail("a second pump task for one session");
            pumps_.push_back(a.session);
            break;
        case Do::Write: {
            if (conns_.count(a.conn) == 0) {
                fail("a write to unknown connection " + cname);
                break;
            }
            if (conns_[a.conn].closed)
                fail("a frame reached " + cname + " after its Close");
            if (owned_.count(sessionOf(a.conn)) != 0)
                fail("a frame reached " + cname + " while its pump runs");
            for (const Frame &f : a.frames)
                onFrame(a.conn, f);
            break;
        }
        case Do::Close:
            if (conns_.count(a.conn) == 0 || conns_[a.conn].closed)
                fail("a second Close of " + cname);
            conns_[a.conn].closed = true;
            closed.push_back(a.conn);
            closedSoFar_.insert(a.conn);
            break;
        case Do::MuteListeners:
            if (event.kind != Ev::AcceptFailed ||
                a.until != now_ + std::chrono::milliseconds(200))
                fail("listeners muted other than for 200 ms after a "
                     "failed accept");
            break;
        case Do::SpendEmergencyFd:
            spend = true;
            break;
        }
    }

    // Parks, and the endings of the connections closed this step.
    for (const Before &b : before_)
        if (b.state != S::Parked && b.session->state == S::Parked) {
            ++seen_.parked;
            conns_[b.conn].parked = true;
        }
    const bool stopping = event.kind == Ev::Stop || event.kind == Ev::Drained;
    for (const int c : closed) {
        const Conn &conn = conns_[c];
        if (conn.finals > 0 || conn.parked)
            continue;
        if (conn.eofRead && conn.read > 0)
            ++seen_.aborted;
        if (!conn.eofRead && !stopping)
            fail("c" + std::to_string(c) +
                 " was closed with no answer, no park and no hang-up");
    }
    for (const int c : shedHealthy_)
        if (!conns_[c].parked && !stopping)
            fail("a shed of healthy c" + std::to_string(c) +
                 " did not park it");
    if (spend) {
        const int c = nextConn_++;
        conns_[c];
        note("emergency accept c" + std::to_string(c));
        step({Ev::EmergencyAccepted, c});
        const Conn &conn = conns_[c];
        if (!conn.closed || conn.error != ErrorCode::RetryAfter ||
            conn.retryAfterMs !=
                config_.watermarks.retryAfterBaseMs)
            fail("the emergency connection was not told RetryAfter");
    }
    checkAfter(event);
}

void
Sim::onFrame(int c, const Frame &frame)
{
    Conn &conn = conns_[c];
    const std::string cname = "c" + std::to_string(c);
    if (frame.type != FrameType::OpenAck && ++conn.finals > 1)
        fail(cname + " got a second final frame");
    switch (frame.type) {
    case FrameType::OpenAck: {
        SessionId id{};
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        if (!decodeOpenAckPayload(frame.payload, id, offset, state) ||
            conn.acked || conn.ack == SessionState::Complete) {
            fail(cname + " got a bad or second OpenAck");
            return;
        }
        if (conn.resume)
            checkResumeAck(c, id, offset, state);
        else if (state != SessionState::Fresh || offset != 0)
            fail(cname + "'s fresh Open was not answered Fresh at 0");
        conn.id = id;
        conn.ack = state;
        conn.ackOffset = offset;
        acked_.insert(c);
        if (state == SessionState::Complete) {
            ++seen_.fromSpool;
            return;
        }
        conn.acked = true;
        ++seen_.accepted;
        seen_.resumed += state == SessionState::Resumed ? 1 : 0;
        const std::string hex = sessionIdToHex(id);
        if (uploads_.emplace(hex, conn.upload).second)
            idOrder_.push_back(id);
        if (conn.resume && conn.sendRest)
            writeUpload(c, offset, conn.upload->bytes.size(), true);
        else if (conn.resume)
            writeUpload(c, offset,
                        offset + rng_.below(conn.upload->bytes.size() -
                                            offset + 1),
                        false);
        return;
    }
    case FrameType::Report: {
        DecodedReport report;
        if (!decodeReportPayload(frame.payload, report)) {
            fail(cname + " got an undecodable Report");
            return;
        }
        if (conn.upload == nullptr || !conn.upload->reportable) {
            fail(cname + " got a Report for an upload that cannot end "
                         "in one");
            return;
        }
        const std::string diff =
            parity::eventsDiff(conn.upload->expected, report.events);
        if (!diff.empty() ||
            report.totalSamples != golden::kSamples)
            fail(cname + "'s Report differs from local analysis: " + diff);
        conn.reported = true;
        seen_.completed += conn.ack == SessionState::Complete ? 0 : 1;
        return;
    }
    case FrameType::Error: {
        ErrorCode code{};
        if (!decodeErrorPayload(frame.payload, code, conn.message,
                                &conn.retryAfterMs)) {
            fail(cname + " got an undecodable Error");
            return;
        }
        conn.error = code;
        ++seen_.rejected;
        seen_.retryAfter += code == ErrorCode::RetryAfter ? 1 : 0;
        seen_.timedOut += code == ErrorCode::IdleTimeout ? 1 : 0;
        const bool shed = code == ErrorCode::IdleTimeout ||
                          code == ErrorCode::RetryAfter;
        seen_.shed += shed && conn.acked && code == ErrorCode::RetryAfter;
        if (shed && conn.acked && conn.healthy)
            shedHealthy_.push_back(c);
        return;
    }
    case FrameType::Stats:
    case FrameType::Health:
        conn.answer = frame.payload;
        return;
    default:
        fail(cname + " got a frame of a client type");
    }
}

void
Sim::checkResumeAck(int c, const SessionId &id, uint64_t offset,
                    SessionState state)
{
    const Conn &conn = conns_[c];
    const std::string cname = "c" + std::to_string(c);
    const std::string hex = sessionIdToHex(id);
    if (id != conn.id)
        fail(cname + "'s resume was answered for another id");
    // Nobody may hold the id when the answer goes out: not a holder from
    // before this step that still holds it, nor one answered earlier in
    // this step.
    for (const ServerCore::SessionPtr &s : core_->sessions()) {
        if (s->id != id || !lifecycle::holdsId(s->state) || s->conn == c)
            continue;
        const bool held_before = std::any_of(
            before_.begin(), before_.end(), [&](const Before &b) {
                return b.session == s && lifecycle::holdsId(b.state);
            });
        if (held_before || acked_.count(s->conn) != 0)
            fail(cname + "'s resume of " + hex.substr(0, 8) +
                 " was answered while c" + std::to_string(s->conn) +
                 " holds it in " + describe(s->state));
    }

    // Parked before this step, or by another connection earlier in it
    // (a held resume is answered when its holder parks, and a park
    // closes its connection first).
    std::optional<uint64_t> parked_at;
    if (const auto it = parkedBefore_.find(hex); it != parkedBefore_.end())
        parked_at = it->second;
    for (const Before &b : before_)
        if (b.session->id == id && b.state != S::Parked &&
            b.session->state == S::Parked && closedSoFar_.count(b.conn))
            parked_at = b.session->resumeOffset;
    if (parked_at &&
        (state != SessionState::Resumed || offset != *parked_at))
        fail(cname + "'s resume of parked " + hex.substr(0, 8) +
             " was answered state " +
             std::to_string(static_cast<int>(state)) + " at " +
             std::to_string(offset) + ", not Resumed at " +
             std::to_string(*parked_at));
    if (!parked_at && core_->spool().has(id) &&
        state != SessionState::Complete)
        fail(cname + "'s resume of spooled " + hex.substr(0, 8) +
             " was not answered Complete");
    if (coverage_ != nullptr &&
        (event_->kind != Ev::Bytes || event_->conn != c))
        ++coverage_->heldAnswers;
    if (state != SessionState::Resumed)
        return;
    uint64_t received = 0;
    for (const auto &[other, oc] : conns_)
        if (oc.id == id && other != c)
            received = std::max(received, oc.captureRead);
    if (conn.upload->boundaries.count(offset) == 0 || offset > received)
        fail(cname + " resumed at " + std::to_string(offset) +
             ": not an element boundary at or below the " +
             std::to_string(received) + " capture bytes read");
}

void
Sim::checkAfter(const CoreEvent &event)
{
    for (const int c : core_->polled()) {
        const CoreSession *s = nullptr;
        for (const ServerCore::SessionPtr &p : core_->sessions())
            if (p->conn == c)
                s = p.get();
        if (s == nullptr || conns_[c].closed) {
            fail("the poll list holds closed c" + std::to_string(c));
            continue;
        }
        if ((s->state != S::Handshake && s->state != S::Uploading) ||
            s->suspended || s->heldOpen)
            fail("the poll list holds c" + std::to_string(c) + " in " +
                 describe(s->state) + (s->suspended ? ", suspended" : "") +
                 (s->heldOpen ? ", holding a resume" : ""));
    }

    const ServerStats st = core_->stats();
    const std::tuple<const char *, uint64_t, uint64_t> exact[] = {
        {"accepted", st.sessionsAccepted, seen_.accepted},
        {"completed", st.sessionsCompleted, seen_.completed},
        {"rejected", st.sessionsRejected, seen_.rejected},
        {"aborted", st.sessionsAborted, seen_.aborted},
        {"resumed", st.sessionsResumed, seen_.resumed},
        {"served from spool", st.resultsServedFromSpool, seen_.fromSpool},
        {"parked", st.sessionsParked, seen_.parked},
        {"retry-after", st.retryAfterSent, seen_.retryAfter},
        {"fd exhausted", st.acceptFdExhausted, seen_.fdExhausted},
        {"parks accounted",
         st.sessionsResumed + core_->parked().size() + st.parkedExpired +
             st.parkedEvicted + seen_.dropped,
         st.sessionsParked},
    };
    for (const auto &[name, counted, observed] : exact)
        if (counted != observed)
            fail(std::string("ServerStats ") + name + " reads " +
                 std::to_string(counted) + ", observed " +
                 std::to_string(observed));
    // A shed is counted when decided; its Error can wait on the pump,
    // and a report that comes first replaces it.
    if (seen_.timedOut > st.sessionsTimedOut || seen_.shed > st.sessionsShed)
        fail("more shed Errors observed than sheds counted");
    if (event.kind == Ev::Tick) {
        const auto active = static_cast<uint64_t>(std::count_if(
            core_->sessions().begin(), core_->sessions().end(),
            [](const auto &s) { return lifecycle::holdsId(s->state); }));
        if (st.sessionsActive != active)
            fail("ServerStats active reads " +
                 std::to_string(st.sessionsActive) + ", holding " +
                 std::to_string(active));
    }
}

SessionId
randomId(dsp::Rng &rng)
{
    SessionId id;
    for (std::size_t i = 0; i < id.size(); i += 8) {
        const uint64_t word = rng();
        std::memcpy(id.data() + i, &word, 8);
    }
    return id;
}

ServerConfig
baseConfig()
{
    ServerConfig config;
    config.analysis = support::servedConfig();
    config.spanSamples = 1024; // several spans per upload
    return config;
}

ServerConfig
randomConfig(dsp::Rng &rng)
{
    ServerConfig config = baseConfig();
    config.maxSessions = 1 + rng.below(6);
    config.sessionBufferBytes = rng.below(2) ? 4096 : std::size_t{1} << 20;
    config.maxParked = rng.below(2) ? 1 + rng.below(3) : 256;
    config.resumeTtlSeconds = rng.below(2) ? 0.2 + rng.uniform() : 300;
    if (rng.below(2))
        config.idleTimeoutSeconds = 0.2 + 0.5 * rng.uniform();
    if (rng.below(3) == 0)
        config.sessionDeadlineSeconds = 0.5 + rng.uniform();
    if (rng.below(3) == 0) {
        config.minRateBytesPerSec = 2000.0 + rng.below(100000);
        config.minRateWindowSeconds = 0.2 + 0.5 * rng.uniform();
    }
    if (rng.below(3) == 0) {
        config.watermarks.softSessions = rng.below(4);
        config.watermarks.hardSessions = rng.below(5);
        config.watermarks.softQueueBytes = rng.below(2) ? 0 : 20000;
        config.watermarks.retryAfterBaseMs = 50;
        config.watermarks.retryAfterMaxMs = 400;
    }
    return config;
}

/** A new connection with a random purpose. */
void
connectRandom(Sim &sim)
{
    dsp::Rng &rng = sim.rng();
    const int c = sim.connect();
    const Upload &golden = goldenUpload();
    const uint64_t r = rng.below(20);
    if (r < 10) {
        const bool whole = rng.below(2) == 0;
        const SessionId proposed = randomId(rng);
        sim.openFresh(c, golden,
                      whole ? golden.bytes.size()
                            : rng.below(golden.bytes.size() + 1),
                      whole, 0, rng.below(3) == 0 ? &proposed : nullptr);
    } else if (r < 12) {
        const Upload &cut = truncatedUpload();
        sim.openFresh(c, cut, cut.bytes.size(), true);
    } else if (r < 15) {
        sim.write(c, rng.below(2) ? FrameType::StatsRequest
                                  : FrameType::HealthRequest,
                  nullptr, 0);
    } else if (r < 17) {
        sim.markUnhealthy(c);
        std::vector<uint8_t> junk(1 + rng.below(40));
        for (uint8_t &b : junk)
            b = static_cast<uint8_t>(rng());
        sim.writeRaw(c, junk);
    } else if (r < 18) {
        sim.markUnhealthy(c);
        sim.write(c, FrameType::Data, golden.bytes.data(), 64);
    }
    // else: connected, silent
}

void
runRandomSchedule(Sim &sim)
{
    dsp::Rng &rng = sim.rng();
    const int ops = 10 + static_cast<int>(rng.below(60));
    for (int i = 0; i < ops && sim.ok(); ++i) {
        const uint64_t r = rng.below(100);
        const std::vector<int> open = sim.openConns();
        if (r < 14) {
            connectRandom(sim);
        } else if (r < 44 && !open.empty()) {
            const int c = open[rng.below(open.size())];
            sim.deliver(c, rng.below(2) ? 0 : 1 + rng.below(4000));
        } else if (r < 50 && !open.empty()) {
            sim.hangup(open[rng.below(open.size())], rng.below(2) == 0);
        } else if (r < 66) {
            sim.runPump(rng.below(sim.pendingPumps() + 1));
        } else if (r < 78) {
            sim.advance(0.5 * rng.uniform());
        } else if (r < 83) {
            sim.tick();
        } else if (r < 93 && !sim.ids().empty()) {
            const int c = sim.connect();
            sim.openResume(c, sim.ids()[rng.below(sim.ids().size())],
                           rng.below(4) != 0);
        } else if (r < 95) {
            sim.emfile();
        } else if (r < 98) {
            sim.runPump(rng.below(sim.pendingPumps() + 1), true);
        } else if (r < 99) {
            sim.restart();
        }
    }
    sim.finish();
}

} // namespace

TEST(Schedules, RandomSchedulesKeepTheInvariants)
{
    const uint64_t seeds = EMPROF_SCHEDULE_SEEDS;
    Coverage coverage;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        dsp::Rng pick(seed);
        Sim sim(randomConfig(pick), seed, pick.below(8) == 0, &coverage);
        runRandomSchedule(sim);
        ASSERT_TRUE(sim.ok()) << "seed " << seed << ": " << sim.failure()
                              << "\nschedule:\n"
                              << sim.schedule();
    }

    // The schedules reached every outcome the invariants are about.
    const ServerStats &st = coverage.stats;
    const std::pair<const char *, uint64_t> reached[] = {
        {"reports", st.sessionsCompleted},
        {"parks", st.sessionsParked},
        {"resumes", st.sessionsResumed},
        {"spool replays", st.resultsServedFromSpool},
        {"held resumes answered", coverage.heldAnswers},
        {"idle/deadline/rate sheds", st.sessionsTimedOut},
        {"hard sheds", st.sessionsShed},
        {"RetryAfter answers", st.retryAfterSent},
        {"aborts", st.sessionsAborted},
        {"spool ENOSPC", st.resultsSpoolFailed},
        {"evictions", st.parkedEvicted},
        {"expiries", st.parkedExpired},
        {"EMFILE", st.acceptFdExhausted},
        {"core lives", coverage.restarts},
    };
    for (const auto &[what, n] : reached) {
        std::printf("[ schedules ] %-26s %llu\n", what,
                    static_cast<unsigned long long>(n));
        EXPECT_GE(n, seeds / 1000) << what;
    }
}

// ---------------------------------------------------------------------
// Named schedules: the sheds, expiry and eviction that socket tests
// reached only by sleeping.
// ---------------------------------------------------------------------

namespace {

/** Run @p sim's queued pumps and tick until nothing is queued. */
void
settle(Sim &sim)
{
    sim.runPumps();
    sim.tick();
}

/** Upload the first @p head bytes of the golden capture, hang up, and
 *  settle until the session parks; returns its id. */
SessionId
uploadHeadAndDrop(Sim &sim, uint64_t head)
{
    const int c = sim.connect();
    sim.openFresh(c, goldenUpload(), head, false);
    sim.deliver(c);
    sim.hangup(c);
    settle(sim);
    EXPECT_TRUE(sim.conn(c).parked) << sim.failure();
    return sim.conn(c).id;
}

/** Finish a resume of @p id on a new connection: returns it. */
int
resumeAndFinish(Sim &sim, const SessionId &id)
{
    const int c = sim.connect();
    sim.openResume(c, id);
    sim.deliver(c); // the Open; the OpenAck queues the rest
    sim.deliver(c);
    settle(sim);
    return c;
}

} // namespace

TEST(Overload, TornFrameStallIsShedTyped)
{
    ServerConfig config = baseConfig();
    config.idleTimeoutSeconds = 0.3;
    Sim sim(config, 1, false);
    const int c = sim.connect();
    sim.openFresh(c, goldenUpload(), 0, false);
    // A Data header promising 1000 bytes, and only half of them.
    std::vector<uint8_t> torn;
    appendFrame(torn, FrameType::Data, goldenUpload().bytes.data(), 1000);
    torn.resize(sizeof(FrameHeader) + 500);
    sim.writeRaw(c, torn);
    sim.deliver(c);
    ASSERT_TRUE(sim.conn(c).acked);
    sim.advance(0.29);
    EXPECT_FALSE(sim.conn(c).error) << "shed before the idle timeout";
    sim.advance(0.02);
    ASSERT_TRUE(sim.conn(c).error) << sim.failure();
    EXPECT_EQ(*sim.conn(c).error, ErrorCode::IdleTimeout)
        << sim.conn(c).message;
    EXPECT_TRUE(sim.conn(c).parked);
    sim.finish();
    EXPECT_TRUE(sim.ok()) << sim.failure() << "\n" << sim.schedule();
}

TEST(Overload, DeadlineBindsEvenWhileProgressIsBeingMade)
{
    ServerConfig config = baseConfig();
    config.sessionDeadlineSeconds = 0.4; // no idle/rate floor: the
    Sim sim(config, 2, false);           // trickle IS progress
    const int c = sim.connect();
    sim.openFresh(c, goldenUpload(), 0, false);
    sim.deliver(c);
    // 16 bytes every 50 ms, analysed as they come.
    uint64_t sent = 0;
    for (int i = 0; i < 20 && !sim.conn(c).error; ++i) {
        sim.writeUpload(c, sent, sent + 16, false);
        sent += 16;
        sim.deliver(c);
        sim.runPumps();
        sim.advance(0.05);
        if (i < 7) {
            EXPECT_FALSE(sim.conn(c).error) << "shed before the deadline";
        }
    }
    ASSERT_TRUE(sim.conn(c).error) << sim.failure();
    EXPECT_EQ(*sim.conn(c).error, ErrorCode::IdleTimeout);
    EXPECT_NE(sim.conn(c).message.find("deadline"), std::string::npos)
        << sim.conn(c).message;
    EXPECT_GE(sim.stats().sessionsTimedOut, 1u);
    sim.finish();
    EXPECT_TRUE(sim.ok()) << sim.failure() << "\n" << sim.schedule();
}

TEST(Overload, SlowLorisTrickleIsShedByTheRateFloor)
{
    ServerConfig config = baseConfig();
    config.minRateBytesPerSec = 64 * 1024; // the trickle is 320 B/s
    config.minRateWindowSeconds = 0.4;
    Sim sim(config, 3, false);
    const int c = sim.connect();
    sim.openFresh(c, goldenUpload(), 0, false);
    sim.deliver(c);
    uint64_t sent = 0;
    for (int i = 0; i < 20 && !sim.conn(c).error; ++i) {
        sim.writeUpload(c, sent, sent + 16, false);
        sent += 16;
        sim.deliver(c);
        if (i % 2 == 0) // a sip keeps a pump in flight most ticks
            sim.runPumps();
        sim.advance(0.05);
    }
    ASSERT_TRUE(sim.conn(c).error) << "a trickler below the floor must "
                                      "be shed: "
                                   << sim.failure();
    EXPECT_EQ(*sim.conn(c).error, ErrorCode::IdleTimeout);
    EXPECT_NE(sim.conn(c).message.find("rate"), std::string::npos)
        << sim.conn(c).message;
    sim.finish();
    EXPECT_TRUE(sim.ok()) << sim.failure() << "\n" << sim.schedule();
}

TEST(Overload, SoftWatermarkAnswersFreshOpensWithRetryAfter)
{
    ServerConfig config = baseConfig();
    config.watermarks.softSessions = 1;
    config.watermarks.retryAfterBaseMs = 100;
    config.watermarks.retryAfterMaxMs = 400;
    Sim sim(config, 4, false);
    const int holder = sim.connect();
    sim.openFresh(holder, goldenUpload(), 0, false);
    sim.deliver(holder);
    ASSERT_TRUE(sim.conn(holder).acked);
    sim.tick();

    // The healthz probe answers Backoff, and opens no session.
    const int probe = sim.connect();
    sim.write(probe, FrameType::HealthRequest, nullptr, 0);
    sim.deliver(probe);
    ASSERT_EQ(sim.conn(probe).answer.size(), 1u);
    EXPECT_EQ(sim.conn(probe).answer[0],
              static_cast<uint8_t>(HealthState::Backoff));
    EXPECT_EQ(sim.stats().sessionsAccepted, 1u);

    // A fresh Open is told RetryAfter with a server-sized hint.
    const int fresh = sim.connect();
    sim.openFresh(fresh, goldenUpload(), 0, false);
    sim.deliver(fresh);
    ASSERT_TRUE(sim.conn(fresh).error) << sim.failure();
    EXPECT_EQ(*sim.conn(fresh).error, ErrorCode::RetryAfter);
    EXPECT_GE(sim.conn(fresh).retryAfterMs, 100u);
    EXPECT_LE(sim.conn(fresh).retryAfterMs, 400u);
    EXPECT_GE(sim.stats().retryAfterSent, 1u);
    EXPECT_EQ(sim.stats().sessionsAborted, 0u);
    sim.finish();
    EXPECT_TRUE(sim.ok()) << sim.failure() << "\n" << sim.schedule();
}

TEST(Overload, HardWatermarkShedsTheMostStalledSessionFirst)
{
    ServerConfig config = baseConfig();
    config.watermarks.hardSessions = 2;
    config.watermarks.retryAfterBaseMs = 100;
    Sim sim(config, 5, false);
    const std::vector<uint8_t> &bytes = goldenUpload().bytes;

    // A opens first, then stalls: the shed candidate.
    const int a = sim.connect();
    sim.openFresh(a, goldenUpload(), 0, false);
    sim.deliver(a);
    sim.advance(0.1);
    // B opens second and keeps sending: over the hard line the
    // governor must shed A (older last progress), not B.
    const int b = sim.connect();
    sim.openFresh(b, goldenUpload(), 0, false);
    sim.deliver(b);
    ASSERT_TRUE(sim.conn(a).acked && sim.conn(b).acked);
    const std::size_t step = bytes.size() / 8 + 1;
    for (uint64_t off = 0; off < bytes.size(); off += step) {
        sim.writeUpload(b, off, std::min<uint64_t>(off + step, bytes.size()),
                        off + step >= bytes.size());
        sim.deliver(b);
        sim.advance(0.1);
        sim.runPumps();
    }
    settle(sim);
    ASSERT_TRUE(sim.conn(a).error) << "the stalled session must be shed: "
                                   << sim.failure();
    EXPECT_EQ(*sim.conn(a).error, ErrorCode::RetryAfter)
        << sim.conn(a).message;
    EXPECT_GE(sim.conn(a).retryAfterMs, 1u);
    EXPECT_TRUE(sim.conn(a).parked);
    EXPECT_TRUE(sim.conn(b).reported)
        << "the well-behaved session must be untouched";
    EXPECT_FALSE(sim.conn(b).error);
    EXPECT_GE(sim.stats().sessionsShed, 1u);
    sim.finish();
    EXPECT_TRUE(sim.ok()) << sim.failure() << "\n" << sim.schedule();
}

TEST(Overload, ExpiredParkTtlRaceLosesToTheClockAndStartsFresh)
{
    ServerConfig config = baseConfig();
    config.resumeTtlSeconds = 0.25;
    Sim sim(config, 6, false);
    const SessionId id =
        uploadHeadAndDrop(sim, goldenUpload().bytes.size() / 2);
    sim.advance(0.24);
    EXPECT_EQ(sim.stats().parkedExpired, 0u);
    sim.advance(0.02);
    EXPECT_EQ(sim.stats().parkedExpired, 1u);

    // The resume arrives after the TTL ran out: a clean Fresh from 0,
    // and the whole upload then reports bit-identically.
    const int c = resumeAndFinish(sim, id);
    EXPECT_EQ(sim.conn(c).ack, SessionState::Fresh);
    EXPECT_EQ(sim.conn(c).ackOffset, 0u);
    EXPECT_TRUE(sim.conn(c).reported) << sim.failure();
    sim.finish();
    EXPECT_TRUE(sim.ok()) << sim.failure() << "\n" << sim.schedule();
}

TEST(Overload, MaxParkedChurnEvictsTheOldestPark)
{
    ServerConfig config = baseConfig();
    config.maxParked = 1;
    Sim sim(config, 7, false);
    const uint64_t size = goldenUpload().bytes.size();
    const SessionId first = uploadHeadAndDrop(sim, size / 3);
    sim.advance(0.01);
    const SessionId second = uploadHeadAndDrop(sim, size / 2);
    EXPECT_EQ(sim.stats().parkedEvicted, 1u);
    EXPECT_EQ(sim.parkedCount(), 1u);

    // The survivor resumes from its durable offset and reports...
    const int resumed = resumeAndFinish(sim, second);
    EXPECT_EQ(sim.conn(resumed).ack, SessionState::Resumed);
    EXPECT_GT(sim.conn(resumed).ackOffset, 0u);
    EXPECT_TRUE(sim.conn(resumed).reported) << sim.failure();

    // ...and the evicted (older) session is answered Fresh from 0.
    const int evicted = sim.connect();
    sim.openResume(evicted, first, false);
    sim.deliver(evicted);
    EXPECT_EQ(sim.conn(evicted).ack, SessionState::Fresh);
    EXPECT_EQ(sim.conn(evicted).ackOffset, 0u);
    sim.finish();
    EXPECT_TRUE(sim.ok()) << sim.failure() << "\n" << sim.schedule();
}
