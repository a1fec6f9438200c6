/**
 * @file
 * The EMPROF ingest server: many concurrent capture-upload sessions
 * over unix and/or TCP sockets, analysed incrementally on a shared
 * thread pool (DESIGN.md §14).
 *
 * Server is the thin shell around ServerCore (server_core.hpp), which
 * makes every session decision.  ONE I/O thread runs the core and owns
 * the sockets, the wake pipe and the pool.  Each loop turn it polls the
 * listeners, the wake pipe and the connections ServerCore::polled()
 * names, reads the clock once, steps the core with what it saw
 * (accepts, accept failures, bytes, hang-ups, then one Tick) at that
 * instant, and carries out the returned actions.  A session's
 * lifecycle::SessionState (session_state.hpp) is written only by the
 * core:
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
 * Analysis runs on the pool as at most ONE task per session (the pump,
 * ServerCore::pump), so one session's chunks stay in order while
 * sessions run in parallel.  A pump's completion reaches the core
 * through the session's mutex-guarded work queue: the pump posts it and
 * writes the wake pipe, and the I/O thread's next Tick settles it.
 * Backpressure: at sessionBufferBytes queued a socket leaves the poll
 * set until its pump drains below half.
 *
 * stop() joins the I/O thread and takes its place: it steps Stop (idle
 * sessions are answered ErrorCode::Shutdown, running pumps abandon
 * their queues), drains the pool and steps Drained (their completions
 * are settled), so stop() returning means no server thread exists and
 * every fd is closed.  Disconnect safety (parking, resume, the result
 * spool) is DESIGN.md §15.
 */

#ifndef EMPROF_SERVE_SERVER_HPP
#define EMPROF_SERVE_SERVER_HPP

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/server_core.hpp"

namespace emprof::serve {

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

    ServerStats stats() const { return core_.stats(); }

    /** The durable result spool (closed unless spoolDir was set). */
    const ResultSpool &spool() const { return core_.spool(); }

  private:
    void ioLoop();
    void acceptPending(int listenFd);

    /** Step the core with @p event at this turn's instant and carry
     *  out what it returns; @p listenFd serves SpendEmergencyFd. */
    void step(const CoreEvent &event, int listenFd = -1);
    void wake();

    ServerConfig config_;
    ServerCore core_;
    std::unique_ptr<common::ThreadPool> pool_;
    std::thread ioThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::vector<int> listeners_; ///< listening socket fds
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1};

    /** Reserved fd (/dev/null): on EMFILE it is released so ONE
     *  connection can be accepted, told RetryAfter, and closed —
     *  instead of the whole backlog starving silently. */
    int emergencyFd_ = -1;

    /** I/O-thread-only: this loop turn's instant, and the one the
     *  core last muted the listeners until. */
    ServerCore::TimePoint now_{};
    ServerCore::TimePoint listenerMuteUntil_{};
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_SERVER_HPP
