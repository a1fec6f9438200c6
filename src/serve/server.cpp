#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <random>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos.hpp"
#include "serve/frame.hpp"
#include "serve/session_pipeline.hpp"

namespace emprof::serve {

using lifecycle::PumpOrder;
using lifecycle::Reply;
using lifecycle::SessionEvent;
using State = lifecycle::SessionState;

namespace {

/** One row per ServerStats field, in scrape order: the field, its
 *  emprof.serve.* metric and its StatsRequest line all come from it. */
struct StatRow
{
    const char *name;
    uint64_t ServerStats::*field;
};

constexpr StatRow kStatRows[] = {
    {"emprof.serve.sessions_accepted", &ServerStats::sessionsAccepted},
    {"emprof.serve.sessions_completed", &ServerStats::sessionsCompleted},
    {"emprof.serve.sessions_rejected", &ServerStats::sessionsRejected},
    {"emprof.serve.sessions_active", &ServerStats::sessionsActive},
    {"emprof.serve.bytes_ingested", &ServerStats::bytesIngested},
    {"emprof.serve.frames_malformed", &ServerStats::framesMalformed},
    {"emprof.serve.sessions_parked", &ServerStats::sessionsParked},
    {"emprof.serve.sessions_resumed", &ServerStats::sessionsResumed},
    {"emprof.serve.results_spooled", &ServerStats::resultsSpooled},
    {"emprof.serve.results_served_from_spool",
     &ServerStats::resultsServedFromSpool},
    {"emprof.serve.sessions_aborted", &ServerStats::sessionsAborted},
    {"emprof.serve.sessions_timed_out", &ServerStats::sessionsTimedOut},
    {"emprof.serve.sessions_shed", &ServerStats::sessionsShed},
    {"emprof.serve.retry_after_sent", &ServerStats::retryAfterSent},
    {"emprof.serve.accept_fd_exhausted", &ServerStats::acceptFdExhausted},
    {"emprof.serve.results_spool_failed",
     &ServerStats::resultsSpoolFailed},
    {"emprof.serve.parked_evicted", &ServerStats::parkedEvicted},
    {"emprof.serve.parked_expired", &ServerStats::parkedExpired},
};
constexpr std::size_t kStatCount = std::size(kStatRows);

/** Handles registered once; no-ops while obs is disabled.  The
 *  sessions_active row is a gauge; every other row a counter. */
struct ServeMetrics
{
    std::array<obs::Counter, kStatCount> counters;
    obs::Gauge sessionsActive;
    obs::Gauge queueDepthBytes;
    obs::Histogram sessionUs;
    obs::Histogram feedUs;

    static const ServeMetrics &
    instance()
    {
        static const ServeMetrics m = [] {
            auto &reg = obs::MetricsRegistry::instance();
            ServeMetrics v;
            for (std::size_t i = 0; i < kStatCount; ++i)
                if (kStatRows[i].field == &ServerStats::sessionsActive)
                    v.sessionsActive = reg.gauge(kStatRows[i].name);
                else
                    v.counters[i] = reg.counter(kStatRows[i].name);
            v.queueDepthBytes =
                reg.gauge("emprof.serve.queue_depth_bytes");
            v.sessionUs =
                reg.histogram("emprof.serve.stage.session_us");
            v.feedUs = reg.histogram("emprof.serve.stage.feed_us");
            return v;
        }();
        return m;
    }
};

uint64_t
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/**
 * Bound a blocking send on @p fd.  Every reply goes out on the I/O
 * thread — the one thread every session depends on — and a shed
 * session's peer is hostile by definition (it may never read), so
 * every session socket carries this timeout.
 */
void
setSendTimeoutMs(int fd, int ms)
{
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

constexpr int kSendTimeoutMs = 1000;

SessionId
randomSessionId()
{
    static std::mutex mutex;
    static std::mt19937_64 rng{[] {
        std::random_device rd;
        return (uint64_t{rd()} << 32) ^ rd() ^
               static_cast<uint64_t>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch()
                       .count());
    }()};
    std::lock_guard<std::mutex> lock(mutex);
    SessionId id;
    for (std::size_t i = 0; i < id.size(); i += 8) {
        const uint64_t word = rng();
        std::memcpy(id.data() + i, &word, 8);
    }
    return id;
}

/** A pump's last word, posted once when it stops for good. */
struct Completion
{
    SessionEvent event = SessionEvent::PumpStopped;
    ErrorCode code{};            ///< PumpFailed
    std::string message;         ///< PumpFailed
    std::vector<uint8_t> report; ///< PumpReport: the Report payload
    bool spooled = false;        ///< PumpReport: made durable
    std::optional<std::string> spoolError; ///< PumpReport: append failed
};

} // namespace

/** A reply, rendered: its frames, and the ErrorCode an Error carries
 *  (counted with it). */
struct Server::Outbound
{
    std::vector<Frame> frames;
    ErrorCode error{};

    Outbound() = default;

    Outbound(FrameType type, std::vector<uint8_t> payload)
    {
        frames.push_back({type, std::move(payload)});
    }

    static Outbound
    failure(ErrorCode code, const std::string &message,
            uint32_t retryAfterMs = 0)
    {
        Outbound out(FrameType::Error,
                     code == ErrorCode::RetryAfter
                         ? encodeRetryAfterPayload(retryAfterMs, message)
                         : encodeErrorPayload(code, message));
        out.error = code;
        return out;
    }
};

struct Server::Session
{
    ~Session()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Written only by Server::advance(), on the I/O thread. */
    lifecycle::SessionState state = State::Handshake;

    // ---- I/O-thread-only ----
    int fd = -1; ///< closed when the session parks or ends
    SessionId id{}; ///< assigned (or adopted) at Open
    std::chrono::steady_clock::time_point openedAt;
    std::vector<uint8_t> inbox; ///< unparsed bytes off the socket
    bool suspended = false;     ///< Uploading, reads paused
    /** A resume waiting for another connection to let go of its id. */
    std::optional<OpenRequest> heldOpen;
    /** Draining: the event settled once the pump stops, its reply. */
    SessionEvent deferred = SessionEvent::PeerEof;
    Outbound deferredReply;
    /** Parked: the durable resume offset and the expiry instant. */
    uint64_t resumeOffset = 0;
    std::chrono::steady_clock::time_point parkedUntil;

    /** Overload bookkeeping.  lastProgressAt: the last instant bytes
     *  arrived, or a server-side stall excused the silence. */
    std::chrono::steady_clock::time_point lastProgressAt;
    uint64_t socketBytesRead = 0; ///< raw bytes read off the socket
    std::chrono::steady_clock::time_point rateWindowStart;
    uint64_t rateWindowBase = 0; ///< socketBytesRead at window start

    /** The pump's while work.running, the I/O thread's otherwise. */
    std::unique_ptr<SessionPipeline> pipeline;

    // ---- the work queue: shared with the pump, under mutex ----
    std::mutex mutex;
    struct Work
    {
        std::deque<std::vector<uint8_t>> data; ///< Data payloads
        std::size_t bytes = 0;                  ///< their total
        bool finish = false;                    ///< the Finish entry
        PumpOrder stop = PumpOrder::None;       ///< Drain or Abandon
        bool running = false; ///< a pump task is queued or running
        std::optional<Completion> completion; ///< its last word
    } work;
};

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { stop(); }

bool
Server::start(std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error != nullptr)
            *error = message;
        for (const int fd : listeners_)
            ::close(fd);
        listeners_.clear();
        for (int &fd : wakePipe_) {
            if (fd >= 0)
                ::close(fd);
            fd = -1;
        }
        spool_.close();
        return false;
    };

    const auto listenOn = [&](int fd, const sockaddr *addr,
                              socklen_t len, const std::string &what) {
        if (fd < 0)
            return fail(std::string("socket failed: ") +
                        std::strerror(errno));
        const int one = 1; // a no-op for unix sockets
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, addr, len) != 0 || ::listen(fd, 128) != 0) {
            const int e = errno;
            ::close(fd);
            return fail("cannot listen on " + what + ": " +
                        std::strerror(e));
        }
        setNonBlocking(fd);
        listeners_.push_back(fd);
        return true;
    };

    if (running_.load())
        return fail("server already running");
    if (config_.unixPath.empty() && config_.tcpPort < 0)
        return fail("no listener configured (unix path or tcp port)");

    if (!config_.spoolDir.empty()) {
        ResultSpool::Options opts;
        opts.dir = config_.spoolDir;
        opts.maxResults = config_.spoolRetain;
        std::string why;
        if (!spool_.open(opts, &why))
            return fail("cannot open result spool: " + why);
    }

    if (::pipe(wakePipe_) != 0)
        return fail(std::string("pipe failed: ") +
                    std::strerror(errno));
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);

    if (!config_.unixPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.unixPath.size() >= sizeof(addr.sun_path))
            return fail("unix socket path too long");
        std::strncpy(addr.sun_path, config_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ::unlink(config_.unixPath.c_str()); // stale socket from a crash
        if (!listenOn(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr), config_.unixPath))
            return false;
    }

    if (config_.tcpPort >= 0) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<uint16_t>(config_.tcpPort));
        if (!listenOn(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr),
                      "tcp port " + std::to_string(config_.tcpPort)))
            return false;
        socklen_t len = sizeof(addr);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
        boundTcpPort_ = static_cast<int>(ntohs(addr.sin_port));
    }

    governor_.configure(config_.watermarks);
    lastLevel_ = LoadGovernor::Level::Normal;
    lastQueueBytes_ = 0;
    listenerMuteUntil_ = {};
    // The emergency reserve: one fd parked on /dev/null that EMFILE
    // handling can spend to accept-and-reject a single connection.
    emergencyFd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

    pool_ = std::make_unique<common::ThreadPool>(config_.threads);
    stopping_.store(false);
    running_.store(true);
    ioThread_ = std::thread([this] { ioLoop(); });
    return true;
}

void
Server::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);
    wake();
    if (ioThread_.joinable())
        ioThread_.join();

    // The I/O thread is gone and this thread takes its place.  Idle
    // sessions are answered Shutdown now; a running pump is told to
    // abandon its queue, and once the pool has run dry each pump's
    // completion is settled like any other: its report if that came
    // first, Shutdown otherwise.
    for (std::size_t i = 0; i < sessions_.size(); ++i)
        advance(sessions_[i], SessionEvent::Stop,
                Outbound::failure(ErrorCode::Shutdown,
                                  "server shutting down"));
    pool_->drain();
    for (std::size_t i = 0; i < sessions_.size(); ++i)
        settlePump(sessions_[i]);
    sessions_.clear();

    // Parked pipelines die with the process anyway on a real restart;
    // dropping them is safe because a resume of an unknown id simply
    // starts the upload over from offset 0.
    parked_.clear();
    spool_.close();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.sessionsActive = 0;
    }
    ServeMetrics::instance().sessionsActive.set(0);

    for (const int fd : listeners_)
        ::close(fd);
    listeners_.clear();
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
    for (int &fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    if (emergencyFd_ >= 0) {
        ::close(emergencyFd_);
        emergencyFd_ = -1;
    }
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

uint64_t
Server::count(uint64_t ServerStats::*field, uint64_t n)
{
    for (std::size_t i = 0; i < kStatCount; ++i)
        if (kStatRows[i].field == field)
            ServeMetrics::instance().counters[i].add(n);
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_.*field += n;
}

void
Server::wake()
{
    const char byte = 1;
    // Best effort: a full pipe already guarantees a pending wakeup.
    (void)!::write(wakePipe_[1], &byte, 1);
}

void
Server::ioLoop()
{
    std::vector<pollfd> fds;
    std::vector<SessionPtr> polled;

    while (!stopping_.load()) {
        fds.clear();
        polled.clear();
        fds.push_back({wakePipe_[0], POLLIN, 0});
        // A muted listener stays in the set (events = 0) so the index
        // arithmetic below is unconditional; it just cannot wake us.
        const bool listeners_muted =
            std::chrono::steady_clock::now() < listenerMuteUntil_;
        for (const int fd : listeners_)
            fds.push_back(
                {fd, static_cast<short>(listeners_muted ? 0 : POLLIN), 0});

        // Settle posted completions, then poll exactly the sessions
        // whose state is polled: never a Finishing, Draining or
        // Parked one, a backpressured one or a held resume.
        std::size_t queue_bytes = 0;
        for (std::size_t i = 0; i < sessions_.size(); ++i) {
            const SessionPtr s = sessions_[i];
            const std::size_t queued = settlePump(s);
            queue_bytes += queued;
            // Hysteresis: stop reading at the budget, resume only once
            // the pump drained below half of it.
            if (queued >= config_.sessionBufferBytes)
                s->suspended = true;
            else if (queued <= config_.sessionBufferBytes / 2)
                s->suspended = false;
            if (lifecycle::polled(s->state) && !s->suspended &&
                !s->heldOpen) {
                fds.push_back({s->fd, POLLIN, 0});
                polled.push_back(s);
            }
        }
        ServeMetrics::instance().queueDepthBytes.set(
            static_cast<int64_t>(queue_bytes));
        lastQueueBytes_ = queue_bytes;

        const int n =
            ::poll(fds.data(), fds.size(), /*timeout ms=*/200);
        if (n < 0 && errno != EINTR)
            break; // poll itself failed; nothing sane left to do
        if (stopping_.load())
            break;

        std::size_t idx = 0;
        char drain[64];
        if (fds[idx++].revents & POLLIN)
            while (::read(wakePipe_[0], drain, sizeof(drain)) > 0) {
            }
        for (const int fd : listeners_)
            if (fds[idx++].revents & POLLIN)
                acceptPending(fd);
        for (std::size_t i = 0; i < polled.size(); ++i)
            if (fds[idx + i].revents & (POLLIN | POLLHUP | POLLERR))
                handleReadable(polled[i]);

        enforceOverload();

        // Reap sessions that parked or ended.
        std::erase_if(sessions_, [](const SessionPtr &s) {
            return s->state == State::Parked || s->state == State::Done;
        });
        const std::size_t active = activeSessions();
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats_.sessionsActive = active;
        }
        ServeMetrics::instance().sessionsActive.set(
            static_cast<int64_t>(active));
        purgeParked();
    }
}

std::size_t
Server::activeSessions() const
{
    return static_cast<std::size_t>(std::count_if(
        sessions_.begin(), sessions_.end(),
        [](const SessionPtr &s) { return lifecycle::holdsId(s->state); }));
}

std::size_t
Server::settlePump(const SessionPtr &session)
{
    std::optional<Completion> done;
    std::size_t queued = 0;
    {
        std::lock_guard<std::mutex> lock(session->mutex);
        queued = session->work.bytes;
        done.swap(session->work.completion);
        if (done)
            session->work.running = false;
    }
    if (!done)
        return queued;
    switch (done->event) {
    case SessionEvent::PumpReport: {
        // Counted before the Report leaves, like the completion.  A
        // spool failure (disk full, ...) only loses crash recovery: the
        // reply still goes out, logged once on healthy → degraded.
        if (done->spooled)
            count(&ServerStats::resultsSpooled);
        if (done->spoolError &&
            count(&ServerStats::resultsSpoolFailed) == 1)
            std::fprintf(stderr,
                         "emprof_served: result spool append failed "
                         "(%s); serving non-durably\n",
                         done->spoolError->c_str());
        advance(session, SessionEvent::PumpReport,
                Outbound(FrameType::Report, std::move(done->report)));
        break;
    }
    case SessionEvent::PumpFailed:
        advance(session, SessionEvent::PumpFailed,
                Outbound::failure(done->code, done->message));
        break;
    default:
        advance(session, SessionEvent::PumpStopped, {});
        break;
    }
    return queued;
}

void
Server::advance(const SessionPtr &s, SessionEvent event, Outbound reply,
                std::vector<uint8_t> data)
{
    lifecycle::SessionFacts facts;
    facts.deferred = s->deferred;
    lifecycle::Step step;
    bool submit = false;
    {
        // Facts and orders under one lock hold: a pump cannot go idle
        // between "it runs" and "tell it to stop", and the pipeline is
        // only looked at once no pump owns it.
        std::lock_guard<std::mutex> lock(s->mutex);
        Session::Work &work = s->work;
        facts.pumpRunning = work.running;
        facts.parkable = !work.running && s->pipeline != nullptr &&
                         !s->pipeline->poisoned() && !stopping_.load();
        step = lifecycle::advance(s->state, event, facts);
        if (step.pump == PumpOrder::Feed) {
            if (event == SessionEvent::Data) {
                work.bytes += data.size();
                work.data.push_back(std::move(data));
            } else {
                work.finish = true;
            }
            submit = !work.running;
            work.running = true;
        } else if (step.pump != PumpOrder::None) {
            work.stop = std::max(work.stop, step.pump);
        }
    }
    // The future is dropped: the pump reports through its completion,
    // and stop() never schedules, so no PoolDrained rejection occurs.
    if (submit)
        (void)pool_->submit([this, s] { pump(s); });

    const State from = s->state;
    s->state = step.next;
    if (step.next == State::Draining) {
        if (from != State::Draining) {
            s->deferred = event;
            s->deferredReply = std::move(reply);
        }
        return;
    }
    if (event == SessionEvent::PumpStopped && from == State::Draining) {
        event = s->deferred;
        reply = std::move(s->deferredReply);
    }
    if (from == State::Handshake && step.next == State::Uploading)
        count(&ServerStats::sessionsAccepted);

    // Count the outcome BEFORE the reply leaves the socket: a client
    // holding its Report or Error must see the counter already bumped.
    // A failed write means the peer hung up; the outcome stands.
    const bool ends = from != State::Parked && from != State::Done &&
                      (step.next == State::Parked ||
                       step.next == State::Done);
    if (step.reply == Reply::Report)
        count(&ServerStats::sessionsCompleted);
    if (step.reply == Reply::Error) {
        count(&ServerStats::sessionsRejected);
        if (reply.error == ErrorCode::RetryAfter)
            count(&ServerStats::retryAfterSent);
    }
    if (ends && step.reply == Reply::None &&
        step.next == State::Done && event == SessionEvent::PeerEof &&
        s->socketBytesRead > 0) {
        // Spoke, then died with nothing said and nothing parkable (a
        // torn handshake, say).  Zero-byte connects count nowhere.
        count(&ServerStats::sessionsAborted);
    }
    if (step.reply != Reply::None && s->fd >= 0)
        for (const Frame &f : reply.frames)
            if (!writeFrame(s->fd, f.type, f.payload.data(),
                            f.payload.size()))
                break;
    if (step.reply == Reply::Report)
        ServeMetrics::instance().sessionUs.observe(elapsedUs(s->openedAt));

    if (!ends)
        return;
    if (s->fd >= 0) {
        ::close(s->fd);
        s->fd = -1;
    }
    if (step.next == State::Parked)
        park(s);
    else
        s->pipeline.reset();
    if (lifecycle::holdsId(from) && !stopping_.load())
        releaseHeldOpens(s->id);
}

void
Server::park(const SessionPtr &session)
{
    // Shed ≠ forgotten, hang-up ≠ lost: the pipeline waits for a
    // resume, keyed by id, its partial element dropped.
    count(&ServerStats::sessionsParked);
    session->resumeOffset = session->pipeline->rewindToResumable();
    session->parkedUntil =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config_.resumeTtlSeconds));
    session->inbox = {};
    if (parked_.size() >= config_.maxParked && !parked_.empty()) {
        // Evict the entry closest to expiry; its client falls back to
        // a fresh upload from offset 0.
        const auto oldest = std::min_element(
            parked_.begin(), parked_.end(), [](const auto &a, const auto &b) {
                return a.second->parkedUntil < b.second->parkedUntil;
            });
        parked_.erase(oldest);
        count(&ServerStats::parkedEvicted);
    }
    parked_[sessionIdToHex(session->id)] = session;
}

void
Server::purgeParked()
{
    const auto now = std::chrono::steady_clock::now();
    for (auto it = parked_.begin(); it != parked_.end();) {
        if (it->second->parkedUntil > now) {
            ++it;
            continue;
        }
        it = parked_.erase(it);
        count(&ServerStats::parkedExpired);
    }
}

void
Server::releaseHeldOpens(const SessionId &id)
{
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        const SessionPtr waiter = sessions_[i];
        if (!waiter->heldOpen ||
            std::memcmp(waiter->heldOpen->sessionId, id.data(),
                        id.size()) != 0)
            continue;
        const OpenRequest open = *waiter->heldOpen;
        waiter->heldOpen.reset();
        handleOpen(waiter, open);
        processInbox(waiter);
    }
}

void
Server::acceptPending(int listenFd)
{
    for (;;) {
        int fd;
        int chaos_errno = 0;
        if (ChaosInjector::stealAccept(&chaos_errno)) {
            fd = -1;
            errno = chaos_errno;
        } else {
            fd = ::accept(listenFd, nullptr, nullptr);
        }
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // backlog drained: the normal exit
            if (errno == ECONNABORTED)
                continue; // that one connection died; the next may not
            if (errno == EMFILE || errno == ENFILE) {
                // fd exhaustion.  The listener stays readable, so a
                // blanket return would spin the poll loop hot doing
                // nothing.  Spend the emergency fd to accept ONE
                // waiting connection and tell it (typed RetryAfter)
                // to come back, then mute the listener for a tick.
                count(&ServerStats::acceptFdExhausted);
                if (emergencyFd_ >= 0) {
                    ::close(emergencyFd_);
                    emergencyFd_ = -1;
                    const int efd =
                        ::accept(listenFd, nullptr, nullptr);
                    if (efd >= 0) {
                        setSendTimeoutMs(efd, kSendTimeoutMs);
                        const auto payload = encodeRetryAfterPayload(
                            governor_.watermarks().retryAfterBaseMs,
                            "server out of file descriptors; "
                            "retry later");
                        writeFrame(efd, FrameType::Error,
                                   payload.data(), payload.size());
                        count(&ServerStats::retryAfterSent);
                        count(&ServerStats::sessionsRejected);
                        ::close(efd);
                    }
                    emergencyFd_ =
                        ::open("/dev/null", O_RDONLY | O_CLOEXEC);
                }
                listenerMuteUntil_ =
                    std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(200);
                return;
            }
            // Unknown persistent accept failure: do not spin on a
            // listener we cannot drain; sit out one tick.
            listenerMuteUntil_ = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(200);
            return;
        }
        setSendTimeoutMs(fd, kSendTimeoutMs);
        auto session = std::make_shared<Session>();
        session->fd = fd;
        session->openedAt = std::chrono::steady_clock::now();
        session->lastProgressAt = session->openedAt;
        session->rateWindowStart = session->openedAt;
        sessions_.push_back(std::move(session));
    }
}

void
Server::handleReadable(const SessionPtr &session)
{
    if (!lifecycle::polled(session->state) || session->heldOpen)
        return; // settled earlier in this iteration

    uint8_t buf[64 * 1024];
    const ssize_t n = ::read(session->fd, buf, sizeof(buf));
    if (n < 0 && (errno == EINTR || errno == EAGAIN))
        return;
    if (n <= 0) // EOF or read error: park, or drain first (Draining)
        return advance(session, SessionEvent::PeerEof, {});
    session->lastProgressAt = std::chrono::steady_clock::now();
    session->socketBytesRead += static_cast<uint64_t>(n);
    session->inbox.insert(session->inbox.end(), buf, buf + n);
    processInbox(session);
}

void
Server::processInbox(const SessionPtr &session)
{
    const auto refuse = [&](const std::string &message) {
        advance(session, SessionEvent::ProtocolError,
                Outbound::failure(ErrorCode::Malformed, message));
    };
    while (lifecycle::polled(session->state) && !session->heldOpen) {
        Frame frame;
        std::string parse_error;
        const long consumed =
            parseFrame(session->inbox.data(), session->inbox.size(), frame,
                       &parse_error);
        if (consumed == 0)
            break; // incomplete; wait for more bytes
        if (consumed < 0) {
            count(&ServerStats::framesMalformed);
            refuse(parse_error);
            break;
        }
        session->inbox.erase(session->inbox.begin(),
                             session->inbox.begin() + consumed);
        const bool opened = session->state != State::Handshake;

        switch (frame.type) {
        case FrameType::Open: {
            if (opened || frame.payload.size() != sizeof(OpenRequest)) {
                refuse(opened ? "duplicate Open frame"
                              : "bad Open payload");
                break;
            }
            OpenRequest open{};
            std::memcpy(&open, frame.payload.data(), sizeof(open));
            handleOpen(session, open);
            break;
        }
        case FrameType::Data:
            if (!opened) {
                refuse("Data before Open");
                break;
            }
            count(&ServerStats::bytesIngested, frame.payload.size());
            advance(session, SessionEvent::Data, {},
                    std::move(frame.payload));
            break;
        case FrameType::Finish:
            if (!opened)
                refuse("Finish before Open");
            else
                advance(session, SessionEvent::Finish, {});
            break;
        case FrameType::StatsRequest: {
            std::string text;
            const ServerStats now = stats();
            for (const StatRow &row : kStatRows)
                text += std::string(row.name) + " " +
                        std::to_string(now.*row.field) + "\n";
            if (obs::MetricsRegistry::enabled())
                text += obs::metricsToText();
            advance(session, SessionEvent::Answered,
                    Outbound(FrameType::Stats,
                             std::vector<uint8_t>(text.begin(),
                                                  text.end())));
            break;
        }
        case FrameType::HealthRequest:
            // Answered before any Open and without touching session
            // accounting, so a load balancer can probe a server that
            // is far too loaded to admit anything.
            advance(session, SessionEvent::Answered,
                    Outbound(FrameType::Health,
                             {static_cast<uint8_t>(healthStateNow())}));
            break;
        default:
            refuse("unexpected frame type from client");
            break;
        }
    }
}

void
Server::handleOpen(const SessionPtr &session, const OpenRequest &open)
{
    SessionId id;
    std::memcpy(id.data(), open.sessionId, id.size());
    const bool want_resume =
        (open.flags & kOpenResume) != 0 && !sessionIdIsZero(id);
    const bool resilient = (open.flags & kOpenResilient) != 0;
    const auto refuse = [&](ErrorCode code, const std::string &message,
                            uint32_t retryAfterMs = 0) {
        advance(session, SessionEvent::OpenRefused,
                Outbound::failure(code, message, retryAfterMs));
    };
    const auto accept = [&](uint64_t offset, SessionState wire) {
        session->id = id;
        advance(session, SessionEvent::OpenAccepted,
                Outbound(FrameType::OpenAck,
                         encodeOpenAckPayload(id, offset, wire)));
    };

    // Another connection still holds this id (its pump is draining
    // what it received, or building its report): answer once it has
    // parked or ended, so the answer is Resumed at the durable offset
    // or Complete, never a Fresh restart that races the park.
    if (want_resume &&
        std::any_of(sessions_.begin(), sessions_.end(),
                    [&](const SessionPtr &other) {
                        return other != session &&
                               lifecycle::holdsId(other->state) &&
                               other->id == id;
                    })) {
        session->heldOpen = open;
        return;
    }

    // A session that already finished in a previous connection (or a
    // previous daemon life): acknowledge Complete and replay the
    // spooled Report payload verbatim — bit-identity by construction.
    if (want_resume && spool_.has(id)) {
        uint32_t status = 0;
        std::vector<uint8_t> payload;
        std::string why;
        if (spool_.fetch(id, status, payload, &why)) {
            count(&ServerStats::resultsServedFromSpool);
            Outbound answer(FrameType::OpenAck,
                            encodeOpenAckPayload(
                                id, 0, SessionState::Complete));
            answer.frames.push_back(
                {FrameType::Report, std::move(payload)});
            advance(session, SessionEvent::Answered, std::move(answer));
            return;
        }
        // Spooled record damaged at rest: fall through to a fresh
        // upload; the re-analysis replaces the bad record.
    }

    if (activeSessions() >= config_.maxSessions)
        return refuse(ErrorCode::Busy,
                      "session limit reached (" +
                          std::to_string(config_.maxSessions) + ")");

    // A parked pipeline: validate the client's idea of the offset
    // against ours, re-attach, and tell it where to resume from.
    if (want_resume) {
        const std::string hex = sessionIdToHex(id);
        const auto it = parked_.find(hex);
        if (it != parked_.end()) {
            const SessionPtr parked = it->second;
            // A mismatch leaves the pipeline parked: a corrected
            // retry may follow.
            if (open.resumeFrom != kResumeQuery &&
                open.resumeFrom != parked->resumeOffset)
                return refuse(ErrorCode::BadResume,
                              "resume offset " +
                                  std::to_string(open.resumeFrom) +
                                  " does not match the durable offset " +
                                  std::to_string(parked->resumeOffset) +
                                  " for session " + hex);
            if (parked->pipeline->resilient() != resilient)
                return refuse(ErrorCode::BadResume,
                              "resilience mode differs from the parked "
                              "session " +
                                  hex);
            session->pipeline = std::move(parked->pipeline);
            parked_.erase(it);
            count(&ServerStats::sessionsResumed);
            return accept(parked->resumeOffset, SessionState::Resumed);
        }
        // Nothing parked or spooled.  An explicit non-zero offset would
        // skip bytes we never saw: a typed error.  kResumeQuery (or 0)
        // degrades to a fresh upload; the daemon may have restarted.
        if (open.resumeFrom != kResumeQuery && open.resumeFrom != 0)
            return refuse(ErrorCode::BadResume,
                          "unknown session " + hex +
                              " cannot resume at offset " +
                              std::to_string(open.resumeFrom));
    }

    // Admission control: FRESH sessions only — a resume was already
    // admitted above because it *reduces* load (it frees a parked
    // slot and lets a shed upload finish instead of restarting).
    if (config_.watermarks.anyEnabled()) {
        const LoadSnapshot snap = currentSnapshot();
        if (governor_.classify(snap) != LoadGovernor::Level::Normal) {
            const uint32_t hint = governor_.suggestedBackoffMs(snap);
            return refuse(ErrorCode::RetryAfter,
                          "server overloaded; retry in " +
                              std::to_string(hint) + " ms",
                          hint);
        }
    }

    // Fresh session (possibly keeping a client-proposed id so a later
    // resume can find it).
    if (sessionIdIsZero(id))
        id = randomSessionId();
    profiler::EmProfConfig analysis = config_.analysis;
    analysis.signal.enabled = resilient;
    session->pipeline =
        std::make_unique<SessionPipeline>(analysis, config_.spanSamples);
    accept(0, SessionState::Fresh);
}

void
Server::pump(const SessionPtr &session)
{
    Session &s = *session;
    Completion done;
    const auto failed = [&done](ErrorCode code, std::string message) {
        done.event = SessionEvent::PumpFailed;
        done.code = code;
        done.message = std::move(message);
    };
    try {
        for (;;) {
            std::vector<uint8_t> item;
            bool finish = false;
            bool crossed_resume = false;
            {
                std::lock_guard<std::mutex> lock(s.mutex);
                Session::Work &work = s.work;
                if (work.stop == PumpOrder::Abandon)
                    break;
                if (!work.data.empty()) {
                    item = std::move(work.data.front());
                    work.data.pop_front();
                    const std::size_t half = config_.sessionBufferBytes / 2;
                    crossed_resume =
                        work.bytes > half && work.bytes - item.size() <= half;
                    work.bytes -= item.size();
                } else if (work.finish) {
                    work.finish = false;
                    finish = true;
                } else if (work.stop == PumpOrder::Drain) {
                    break;
                } else {
                    // Idle: the pipeline is the I/O thread's again
                    // until the next Data or Finish re-arms a pump.
                    work.running = false;
                    return;
                }
            }
            if (finish) {
                profiler::ProfileResult result;
                std::string why;
                if (!s.pipeline->finish(result, &why)) {
                    failed(ErrorCode::Malformed, why);
                    break;
                }
                const auto &quality = result.report.quality;
                const uint32_t status =
                    quality.enabled && quality.coverageFraction < 1.0 ? 3u
                                                                      : 0u;
                done.event = SessionEvent::PumpReport;
                done.report = encodeReportPayload(
                    status, s.pipeline->decoder().info().totalSamples,
                    quality.enabled ? quality.coverageFraction : 1.0,
                    result.events, result.report.toText("served capture"));
                // Durability BEFORE delivery: the result is fsync'd
                // into the spool before the completion is posted, so a
                // reply lost to a dead socket (or a daemon crash right
                // after this point) is recoverable — the client resumes
                // by id and is served from the spool.
                if (spool_.isOpen()) {
                    std::string why_not;
                    done.spooled = spool_.append(s.id, status, done.report,
                                                 &why_not);
                    if (!done.spooled)
                        done.spoolError = why_not;
                }
                break;
            }
            const auto t0 = std::chrono::steady_clock::now();
            std::string why;
            const bool ok = s.pipeline->feed(item.data(), item.size(), &why);
            if (obs::MetricsRegistry::enabled())
                ServeMetrics::instance().feedUs.observe(elapsedUs(t0));
            if (!ok) {
                failed(ErrorCode::Malformed, why);
                break;
            }
            if (crossed_resume)
                wake(); // the socket may resume reading
        }
    } catch (const std::exception &e) {
        done = Completion{};
        failed(ErrorCode::Internal,
               std::string("analysis failed: ") + e.what());
    }
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.work.data.clear();
        s.work.bytes = 0;
        s.work.finish = false;
        s.work.completion = std::move(done);
    }
    wake();
}

LoadSnapshot
Server::currentSnapshot() const
{
    LoadSnapshot snap;
    snap.queueBytes = lastQueueBytes_;
    snap.activeSessions = activeSessions();
    snap.parked = parked_.size();
    // Sessions (incl. pre-Open connections) + listeners + the wake
    // pipe and the emergency reserve.
    snap.connections = sessions_.size() + listeners_.size() + 3;
    return snap;
}

HealthState
Server::healthStateNow() const
{
    if (stopping_.load())
        return HealthState::Draining;
    return lastLevel_ == LoadGovernor::Level::Hard   ? HealthState::Shedding
           : lastLevel_ == LoadGovernor::Level::Soft ? HealthState::Backoff
                                                     : HealthState::Live;
}

void
Server::enforceOverload()
{
    const bool time_checks = config_.idleTimeoutSeconds > 0 ||
                             config_.sessionDeadlineSeconds > 0 ||
                             config_.minRateBytesPerSec > 0;
    const bool watermarks = config_.watermarks.anyEnabled();
    if (!time_checks && !watermarks)
        return; // defaults-off: strictly inert

    const auto now = std::chrono::steady_clock::now();
    const auto seconds_since = [&](
        std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double>(now - t).count();
    };
    // Draining sessions already have a verdict pending; Parked and
    // Done ones have no socket; a held resume waits on the server.
    const auto sheddable = [](const Session &s) {
        return (lifecycle::polled(s.state) ||
                s.state == State::Finishing) &&
               !s.heldOpen;
    };

    for (std::size_t i = 0; time_checks && i < sessions_.size(); ++i) {
        const SessionPtr s = sessions_[i];
        if (!sheddable(*s))
            continue;
        const bool finishing = s->state == State::Finishing;
        bool pump_running = false;
        {
            std::lock_guard<std::mutex> lock(s->mutex);
            pump_running = s->work.running;
        }
        const bool server_side_stall =
            finishing || pump_running || s->suspended;
        if (server_side_stall) {
            // Analysis or backpressure is the bottleneck — our
            // doing, not the client's.  Restart the idle clock so
            // the silence is never held against it.
            s->lastProgressAt = now;
        }
        // The rate window, by contrast, pauses only while reads are
        // off (backpressure) or the upload is over (Finish queued).
        // A pump merely in flight does not stop bytes arriving — and
        // a trickler's sips keep one in flight at almost every tick,
        // so excusing it would let slow-loris reset the window
        // indefinitely.
        if (s->suspended || finishing) {
            s->rateWindowStart = now;
            s->rateWindowBase = s->socketBytesRead;
        }

        // The wall-clock deadline binds regardless of whose fault
        // the elapsed time is.
        const char *why = nullptr;
        const double window = config_.minRateWindowSeconds > 0
                                  ? config_.minRateWindowSeconds
                                  : 10.0;
        if (config_.sessionDeadlineSeconds > 0 &&
            seconds_since(s->openedAt) >= config_.sessionDeadlineSeconds)
            why = "session deadline exceeded";
        else if (!server_side_stall && config_.idleTimeoutSeconds > 0 &&
                 seconds_since(s->lastProgressAt) >=
                     config_.idleTimeoutSeconds)
            why = "no upload progress; parked for resume";
        else if (!s->suspended && s->state == State::Uploading &&
                 config_.minRateBytesPerSec > 0 &&
                 seconds_since(s->rateWindowStart) >= window) {
            const double rate =
                static_cast<double>(s->socketBytesRead -
                                    s->rateWindowBase) /
                seconds_since(s->rateWindowStart);
            if (rate < config_.minRateBytesPerSec)
                why = "upload rate below the floor; parked for resume";
            s->rateWindowStart = now;
            s->rateWindowBase = s->socketBytesRead;
        }
        if (why != nullptr) {
            count(&ServerStats::sessionsTimedOut);
            advance(s, SessionEvent::TickShed,
                    Outbound::failure(ErrorCode::IdleTimeout, why));
        }
    }

    if (!watermarks) {
        lastLevel_ = LoadGovernor::Level::Normal;
        return;
    }
    const LoadSnapshot snap = currentSnapshot();
    lastLevel_ = governor_.classify(snap);
    if (lastLevel_ != LoadGovernor::Level::Hard)
        return;

    // Hard overload: shed established sessions, most-stalled first —
    // the sessions most likely to be hostile, and whose eviction
    // frees the most slot-time per report lost.
    const uint64_t target = governor_.shedTarget(snap);
    if (target == 0)
        return;
    std::vector<SessionPtr> candidates;
    for (const auto &s : sessions_)
        if (sheddable(*s) && s->state != State::Handshake)
            candidates.push_back(s);
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  return a->lastProgressAt < b->lastProgressAt;
              });
    const uint32_t hint = governor_.suggestedBackoffMs(snap);
    const std::size_t shed_count =
        std::min<std::size_t>(target, candidates.size());
    for (std::size_t i = 0; i < shed_count; ++i)
        advance(candidates[i], SessionEvent::HardShed,
             Outbound::failure(ErrorCode::RetryAfter,
                               "load shed under hard watermark; "
                               "resume in " +
                                   std::to_string(hint) + " ms",
                               hint));
    if (shed_count > 0)
        count(&ServerStats::sessionsShed, shed_count);
}

} // namespace emprof::serve
