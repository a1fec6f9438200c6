/**
 * @file
 * The EMPROF ingest server: many concurrent capture-upload sessions
 * over unix and/or TCP sockets, analysed incrementally on a shared
 * thread pool (DESIGN.md §14).
 *
 * ONE I/O thread owns every socket and every session's lifecycle: it
 * accepts, reads, parses EMFR frames, sends every reply, and is the
 * only writer of a session's lifecycle::SessionState
 * (session_state.hpp):
 *
 *   state      polled  waits for
 *   Handshake  yes     an Open, a Stats/Health probe, or a hang-up
 *   Uploading  yes*    Data, Finish, a hang-up, a shed, stop
 *   Finishing  no      the pump's report or failure
 *   Draining   no      the pump's completion (it drains its queue after
 *                      a hang-up, abandons it after a shed or stop)
 *   Parked     no      nothing; kept for a resume until TTL/eviction
 *   Done       no      nothing; reaped
 *   * not while backpressured
 *
 * Analysis runs on the shared common::ThreadPool as at most ONE task
 * per session (the "pump"), so one session's chunks stay in order
 * while sessions run in parallel.  The pump shares only the session's
 * work queue, under the session mutex: Data payloads, a Finish entry
 * and a stop order in; one completion out when it stops for good —
 * report built and spooled, typed failure, or stopped.  It posts that
 * completion and wakes the I/O thread through a self-pipe; the I/O
 * thread settles it in Server::advance, the one place that sends the
 * Report or Error, parks and counts.  The I/O thread writes nothing to
 * a session whose pump runs.
 *
 * Backpressure: at sessionBufferBytes queued the socket leaves the
 * poll set until the pump drains below half, so per-session memory is
 * queue budget + one span + halo.  Span and halo are counted in
 * samples of the capture's declared rate (session_pipeline.hpp), so
 * that bound grows with the rate: a capture declaring 25 GHz is
 * buffered whole until Finish.  A malformed frame, bad EMCAP stream
 * or analysis exception yields a typed Error for that session only.
 *
 * Shutdown: stop() joins the I/O thread and takes its place.  Idle
 * sessions are answered ErrorCode::Shutdown, running pumps abandon
 * their queues, the pool drains and their completions are settled, so
 * stop() returning means no server thread exists and every fd is
 * closed.
 *
 * Disconnect safety (DESIGN.md §15): a hang-up parks the session's
 * pipeline (decoder + stitcher state, keyed by id) once no pump owns
 * it, so a reconnecting client's v2 Open continues the upload
 * bit-identically from the echoed element-aligned offset.  A resume
 * that arrives while the old connection still holds the id is
 * answered once it parks or ends.  Parked pipelines expire after
 * resumeTtlSeconds.  Reports are fsync'd to the ResultSpool BEFORE the
 * Report frame is written; a resume of a spooled session is answered
 * Complete plus the verbatim spooled payload.
 */

#ifndef EMPROF_SERVE_SERVER_HPP
#define EMPROF_SERVE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "profiler/profiler.hpp"
#include "serve/governor.hpp"
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

class Server
{
  public:
    explicit Server(ServerConfig config);

    /** stop() implicitly. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the listeners and start the I/O thread + pool.
     *
     * @retval false Could not bind/listen; @p error says why.
     */
    bool start(std::string *error = nullptr);

    /** Graceful shutdown; idempotent.  See file comment. */
    void stop();

    bool running() const { return running_.load(); }

    /** Actual TCP port (after start() with tcpPort == 0). */
    int tcpPort() const { return boundTcpPort_; }

    ServerStats stats() const;

    /** The durable result spool (closed unless spoolDir was set). */
    const ResultSpool &spool() const { return spool_; }

  private:
    struct Session;
    struct Outbound;
    using SessionPtr = std::shared_ptr<Session>;

    void ioLoop();
    void acceptPending(int listenFd);
    void handleReadable(const SessionPtr &session);
    void processInbox(const SessionPtr &session);
    void handleOpen(const SessionPtr &session, const OpenRequest &open);

    /**
     * The one place a session changes state: run the transition
     * function, apply its pump order to the work queue, send its reply,
     * count the outcome, park or close.  I/O thread (or stop()) only.
     * @p data is the payload of a Data event.
     */
    void advance(const SessionPtr &session, lifecycle::SessionEvent event,
                 Outbound reply, std::vector<uint8_t> data = {});

    /** Settle the completion @p session's pump posted, if any; returns
     *  the bytes still queued for it. */
    std::size_t settlePump(const SessionPtr &session);

    void pump(const SessionPtr &session);
    void park(const SessionPtr &session);
    void releaseHeldOpens(const SessionId &id);
    void purgeParked();
    std::size_t activeSessions() const;
    void wake();

    /** Bump a ServerStats field and its emprof.serve.* counter;
     *  returns the new value. */
    uint64_t count(uint64_t ServerStats::*field, uint64_t n = 1);

    /** One tick's resource picture for the LoadGovernor. */
    LoadSnapshot currentSnapshot() const;

    /** Idle/deadline/rate enforcement + watermark classification and
     *  hard shedding; runs once per poll tick. */
    void enforceOverload();

    /** The one-byte HealthRequest answer for this tick. */
    HealthState healthStateNow() const;

    ServerConfig config_;
    std::unique_ptr<common::ThreadPool> pool_;
    std::thread ioThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::vector<int> listeners_; ///< listening socket fds
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1};

    LoadGovernor governor_;

    /** Reserved fd (/dev/null): on EMFILE it is released so ONE
     *  connection can be accepted, told RetryAfter, and closed —
     *  instead of the whole backlog starving silently. */
    int emergencyFd_ = -1;

    /** I/O-thread-only: listeners sit out of the poll set until this
     *  instant (set on accept errors so a ready-but-unacceptable
     *  listener cannot spin the loop hot). */
    std::chrono::steady_clock::time_point listenerMuteUntil_{};

    /** I/O-thread-only: last tick's aggregate queue bytes (feeds the
     *  governor snapshot) and overload level (feeds healthz). */
    std::size_t lastQueueBytes_ = 0;
    LoadGovernor::Level lastLevel_ = LoadGovernor::Level::Normal;

    /** Connected sessions, in accept order; I/O thread only. */
    std::vector<SessionPtr> sessions_;

    /** Parked sessions, keyed by session-id hex; I/O thread only. */
    std::map<std::string, SessionPtr> parked_;

    ResultSpool spool_;

    /** Written by the I/O thread (count()), read by stats(). */
    mutable std::mutex statsMutex_;
    ServerStats stats_;
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_SERVER_HPP
