/**
 * @file
 * The ingest server's deterministic core (DESIGN.md §14): every
 * session decision, made on one thread from one entry point.
 *
 * ServerCore::step() takes an event the shell saw (an accept, a failed
 * accept(), bytes or a hang-up on a connection, a loop tick, stop) and
 * the instant it saw it, and returns what the shell must do, in order:
 * write frames, close a connection, submit a session's pump, mute the
 * listeners, spend the emergency fd.  The core owns the sessions, the
 * parked map, the load governor and the stats, and calls no socket,
 * pipe, thread or clock function: every idle, deadline, rate-floor,
 * park-TTL and listener-mute decision uses the `now` it was given, and
 * session ids come from a seeded generator.  The shell (server.hpp)
 * runs it over real sockets; tests/serve/test_schedule.cpp runs it on
 * a virtual clock.  A connection is an int the shell picks (the fd).
 *
 * The pump (pump()) runs on the shell's pool, at most one task per
 * session, and shares only the session's work queue, under the session
 * mutex.  It spools a report (file I/O) before it posts its one
 * PumpCompletion and calls the wake callback; the next Tick settles the
 * completion in advance(), the one place that sends a Report or Error,
 * parks and counts.  Nothing is written to a session whose pump runs.
 */

#ifndef EMPROF_SERVE_SERVER_CORE_HPP
#define EMPROF_SERVE_SERVER_CORE_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "profiler/profiler.hpp"
#include "serve/frame.hpp"
#include "serve/governor.hpp"
#include "serve/session_pipeline.hpp"
#include "serve/session_state.hpp"
#include "serve/spool.hpp"

namespace emprof::serve {

struct ServerConfig
{
    /** Unix-domain listener path; empty disables it. */
    std::string unixPath;

    /** TCP listener (loopback) port; -1 disables, 0 picks a free
     *  port (see Server::tcpPort()). */
    int tcpPort = -1;

    /** Analysis worker threads; 0 means hardwareThreads(). */
    std::size_t threads = 0;

    /** Concurrent session cap; further Opens get ErrorCode::Busy. */
    std::size_t maxSessions = 64;

    /**
     * Per-session work-queue budget in bytes: the high watermark
     * where the server stops reading that socket (backpressure).
     */
    std::size_t sessionBufferBytes = std::size_t{8} << 20;

    /** Analysis span length; 0 = auto (see SessionPipeline). */
    std::size_t spanSamples = 0;

    /** Durable result spool directory; empty disables spooling. */
    std::string spoolDir;

    /** Spool retention: live (un-collected) results kept. */
    uint64_t spoolRetain = 4096;

    /** How long a disconnected session's pipeline stays parked. */
    double resumeTtlSeconds = 300;

    /** Concurrent parked-pipeline cap; past it the oldest is dropped
     *  (its client restarts from offset 0 — correct, just slower). */
    std::size_t maxParked = 256;

    // ---- Overload hardening (all 0 = disabled: a default-configured
    // ---- server behaves bit-for-bit as before) ----

    /** Shed a session after this long with no bytes arriving on its
     *  socket (typed ErrorCode::IdleTimeout; the pipeline is parked,
     *  so a resume continues the upload).  Suspended (backpressured)
     *  and analysis-owned sessions are exempt — their stall is the
     *  server's doing, not the client's. */
    double idleTimeoutSeconds = 0;

    /** Hard wall-clock bound on a session's total lifetime, pump
     *  state notwithstanding. */
    double sessionDeadlineSeconds = 0;

    /** Slow-sender watchdog: minimum upload rate (bytes/sec) over a
     *  sliding window of minRateWindowSeconds; below it the session
     *  is shed like an idle one.  Defeats slow-loris clients that
     *  trickle just enough to dodge the idle timeout. */
    double minRateBytesPerSec = 0;
    double minRateWindowSeconds = 10;

    /** Admission-control / load-shedding watermarks (governor.hpp);
     *  every 0 disables that check. */
    LoadWatermarks watermarks;

    /**
     * Base analysis config for every session.  sampleRateHz/clockHz
     * are taken from each uploaded capture's header; the signal
     * (resilience) layer is enabled per session by the Open flag.
     */
    profiler::EmProfConfig analysis;
};

/** Monotonic counters for tests and the status line (obs-free). */
struct ServerStats
{
    uint64_t sessionsAccepted = 0;
    uint64_t sessionsCompleted = 0; ///< Report sent (ok or degraded)
    uint64_t sessionsRejected = 0;  ///< a typed Error frame was sent
    uint64_t sessionsAborted = 0;   ///< connection died, no reply sent
    uint64_t sessionsActive = 0;
    uint64_t bytesIngested = 0;   ///< Data payload bytes accepted
    uint64_t framesMalformed = 0; ///< frame-layer rejections
    uint64_t sessionsParked = 0;  ///< connection died, pipeline kept
    uint64_t sessionsResumed = 0; ///< parked pipeline reattached
    uint64_t resultsSpooled = 0;  ///< reports made durable on disk
    uint64_t resultsServedFromSpool = 0; ///< resumes answered Complete

    // ---- overload hardening ----
    uint64_t sessionsTimedOut = 0; ///< idle/deadline/rate-floor sheds
    uint64_t sessionsShed = 0;     ///< hard-watermark load sheds
    uint64_t retryAfterSent = 0;   ///< RetryAfter rejections sent
    uint64_t acceptFdExhausted = 0; ///< EMFILE/ENFILE on accept()
    uint64_t resultsSpoolFailed = 0; ///< appends that degraded to
                                     ///< non-durable serving
    uint64_t parkedEvicted = 0; ///< maxParked pushed one out early
    uint64_t parkedExpired = 0; ///< resume TTL ran out
};

/** What the shell saw: the core's only input. */
struct CoreEvent
{
    enum class Kind : uint8_t
    {
        Accepted,          ///< conn: a new connection
        AcceptFailed,      ///< error: accept()'s errno
        EmergencyAccepted, ///< conn: accepted on the emergency fd
        Bytes,             ///< conn, bytes: read off the socket
        Hangup,            ///< conn: EOF, reset or read error
        Tick,   ///< once per loop turn: completions, sheds, expiry
        Stop,   ///< answer every session; running pumps abandon
        Drained, ///< the pool ran dry after Stop: settle, forget all
    };
    Kind kind;
    int conn;
    int error;
    const uint8_t *data; ///< Bytes: read during step() only
    std::size_t size;

    CoreEvent(Kind k, int c = -1, int e = 0, const uint8_t *d = nullptr,
              std::size_t n = 0)
        : kind(k), conn(c), error(e), data(d), size(n)
    {
    }
};

struct CoreSession;

/** What the core asks of the shell; carried out in order. */
struct CoreAction
{
    enum class Kind : uint8_t
    {
        Write,  ///< conn, frames: send them, stopping at a failure
        Close,  ///< conn
        Submit, ///< session: run ServerCore::pump(session) on the pool
        MuteListeners,    ///< until: listeners sit out poll till then
        SpendEmergencyFd, ///< free the reserve fd, accept one
                          ///< connection, step EmergencyAccepted
    };
    Kind kind;
    int conn;
    std::vector<Frame> frames;
    std::shared_ptr<CoreSession> session;
    std::chrono::steady_clock::time_point until;

    CoreAction(Kind k, int c = -1, std::vector<Frame> f = {},
               std::shared_ptr<CoreSession> s = nullptr,
               std::chrono::steady_clock::time_point u = {})
        : kind(k), conn(c), frames(std::move(f)), session(std::move(s)),
          until(u)
    {
    }
};

/** A reply, rendered: its frames, and the ErrorCode an Error carries
 *  (counted with it). */
struct Outbound
{
    std::vector<Frame> frames;
    ErrorCode error{};

    Outbound() = default;
    Outbound(FrameType type, std::vector<uint8_t> payload)
    {
        frames.push_back({type, std::move(payload)});
    }

    static Outbound failure(ErrorCode code, const std::string &message,
                            uint32_t retryAfterMs = 0);
};

/** A pump's last word, posted once when it stops for good. */
struct PumpCompletion
{
    lifecycle::SessionEvent event = lifecycle::SessionEvent::PumpStopped;
    ErrorCode code{};            ///< PumpFailed
    std::string message;         ///< PumpFailed
    std::vector<uint8_t> report; ///< PumpReport: the Report payload
    bool spooled = false;        ///< PumpReport: made durable
    std::optional<std::string> spoolError; ///< PumpReport: append failed
};

struct CoreSession
{
    using TimePoint = std::chrono::steady_clock::time_point;

    /** Written only by ServerCore::advance(). */
    lifecycle::SessionState state = lifecycle::SessionState::Handshake;
    int conn = -1;  ///< -1 once its Close was asked for
    SessionId id{}; ///< assigned (or adopted) at Open
    TimePoint openedAt;
    std::vector<uint8_t> inbox; ///< unparsed bytes off the socket
    bool suspended = false;     ///< Uploading, reads paused
    /** A resume waiting for another connection to let go of its id. */
    std::optional<OpenRequest> heldOpen;
    /** Draining: the event settled once the pump stops, its reply. */
    lifecycle::SessionEvent deferred = lifecycle::SessionEvent::PeerEof;
    Outbound deferredReply;
    /** Parked: the durable resume offset and the expiry instant. */
    uint64_t resumeOffset = 0;
    TimePoint parkedUntil;

    /** Overload bookkeeping.  lastProgressAt: the last instant bytes
     *  arrived, or a server-side stall excused the silence. */
    TimePoint lastProgressAt;
    uint64_t socketBytesRead = 0; ///< raw bytes read off the socket
    TimePoint rateWindowStart;
    uint64_t rateWindowBase = 0; ///< socketBytesRead at window start

    /** The pump's while work.running, the core's otherwise. */
    std::unique_ptr<SessionPipeline> pipeline;

    // ---- the work queue: shared with the pump, under mutex ----
    std::mutex mutex;
    struct Work
    {
        std::deque<std::vector<uint8_t>> data; ///< Data payloads
        std::size_t bytes = 0;                  ///< their total
        bool finish = false;                    ///< the Finish entry
        lifecycle::PumpOrder stop = lifecycle::PumpOrder::None;
        bool running = false; ///< a pump task is queued or running
        std::optional<PumpCompletion> completion; ///< its last word
    } work;
};

class ServerCore
{
  public:
    using TimePoint = std::chrono::steady_clock::time_point;
    using SessionPtr = std::shared_ptr<CoreSession>;

    /** @p idSeed seeds the session ids; @p wake is called from pump
     *  threads when a completion or drained queue wants a Tick. */
    ServerCore(ServerConfig config, uint64_t idSeed,
               std::function<void()> wake);

    /** The one entry point (see the file comment). */
    std::vector<CoreAction> step(const CoreEvent &event, TimePoint now);

    /** The connections to poll for reading: sessions lifecycle::polled
     *  allows that are neither backpressured nor holding a resume. */
    std::vector<int> polled() const;

    /** Run @p session's queued work; the pool's, once per Submit. */
    void pump(const SessionPtr &session);

    ServerStats stats() const;
    ResultSpool &spool() { return spool_; }
    const ResultSpool &spool() const { return spool_; }

    /** For the schedule harness: live sessions and the parked map. */
    const std::vector<SessionPtr> &sessions() const { return sessions_; }
    const std::map<std::string, SessionPtr> &parked() const
    {
        return parked_;
    }

  private:
    void emit(CoreAction action) { actions_.push_back(std::move(action)); }
    SessionPtr find(int conn) const;
    void processInbox(const SessionPtr &session);
    void handleOpen(const SessionPtr &session, const OpenRequest &open);

    /**
     * The one place a session changes state: run the transition
     * function, apply its pump order to the work queue, send its reply,
     * count the outcome, park or close.  @p data is the payload of a
     * Data event.
     */
    void advance(const SessionPtr &session, lifecycle::SessionEvent event,
                 Outbound reply, std::vector<uint8_t> data = {});

    /** Settle the completion @p session's pump posted, if any; returns
     *  the bytes still queued for it. */
    std::size_t settlePump(const SessionPtr &session);

    void tick();
    void park(const SessionPtr &session);
    void releaseHeldOpens(const SessionId &id);
    void purgeParked();
    std::size_t activeSessions() const;
    SessionId nextSessionId();

    /** Bump a ServerStats field and its emprof.serve.* counter;
     *  returns the new value. */
    uint64_t count(uint64_t ServerStats::*field, uint64_t n = 1);

    /** The resource picture for the LoadGovernor. */
    LoadSnapshot currentSnapshot() const;

    /** Idle/deadline/rate enforcement + watermark classification and
     *  hard shedding; once per Tick. */
    void enforceOverload();

    /** The one-byte HealthRequest answer. */
    HealthState healthStateNow() const;

    const ServerConfig config_;
    const std::function<void()> wake_;
    std::mt19937_64 idRng_;
    LoadGovernor governor_;
    ResultSpool spool_;

    TimePoint now_{};                 ///< the instant step() was given
    std::vector<CoreAction> actions_; ///< what step() returns
    bool stopping_ = false;           ///< Stop seen, Drained not yet

    /** Last Tick's aggregate queue bytes (feeds the governor
     *  snapshot) and overload level (feeds healthz). */
    std::size_t lastQueueBytes_ = 0;
    LoadGovernor::Level lastLevel_ = LoadGovernor::Level::Normal;

    /** Connected sessions, in accept order. */
    std::vector<SessionPtr> sessions_;

    /** Parked sessions, keyed by session-id hex. */
    std::map<std::string, SessionPtr> parked_;

    /** Written by count(), read by stats() from any thread. */
    mutable std::mutex statsMutex_;
    ServerStats stats_;
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_SERVER_CORE_HPP
