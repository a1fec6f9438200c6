#include "serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace emprof::serve {

using Kind = CoreEvent::Kind;

namespace {

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Bound a blocking send on @p fd: every reply goes out on the I/O
 *  thread, and a shed session's peer may never read. */
void
setSendTimeoutMs(int fd, int ms)
{
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

constexpr int kSendTimeoutMs = 1000;

uint64_t
idSeed()
{
    std::random_device rd;
    return (uint64_t{rd()} << 32) ^ rd() ^
           static_cast<uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count());
}

} // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), core_(config_, idSeed(), [this] { wake(); })
{
}

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
        core_.spool().close();
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
        if (!core_.spool().open(opts, &why))
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

    // The I/O thread is gone and this thread takes its place.  Stop
    // never schedules a pump, so the pool drains what it has.
    now_ = std::chrono::steady_clock::now();
    step({Kind::Stop});
    pool_->drain();
    step({Kind::Drained});
    core_.spool().close();

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

void
Server::wake()
{
    const char byte = 1;
    // Best effort: a full pipe already guarantees a pending wakeup.
    (void)!::write(wakePipe_[1], &byte, 1);
}

void
Server::step(const CoreEvent &event, int listenFd)
{
    for (CoreAction &a : core_.step(event, now_)) {
        switch (a.kind) {
        case CoreAction::Kind::Write:
            // A failed write means the peer hung up; the core counted
            // the outcome already.
            for (const Frame &f : a.frames)
                if (!writeFrame(a.conn, f.type, f.payload.data(),
                                f.payload.size()))
                    break;
            break;
        case CoreAction::Kind::Close:
            ::close(a.conn);
            break;
        case CoreAction::Kind::Submit:
            // The future is dropped: the pump reports through its
            // completion, and stop() never schedules, so no
            // PoolDrained rejection occurs.
            (void)pool_->submit([this, s = a.session] { core_.pump(s); });
            break;
        case CoreAction::Kind::MuteListeners:
            listenerMuteUntil_ = a.until;
            break;
        case CoreAction::Kind::SpendEmergencyFd:
            if (emergencyFd_ < 0 || listenFd < 0)
                break;
            ::close(emergencyFd_);
            if (const int fd = ::accept(listenFd, nullptr, nullptr);
                fd >= 0) {
                setSendTimeoutMs(fd, kSendTimeoutMs);
                step({Kind::EmergencyAccepted, fd});
            }
            emergencyFd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
            break;
        }
    }
}

void
Server::ioLoop()
{
    std::vector<pollfd> fds;
    while (!stopping_.load()) {
        // A muted listener stays in the set (events = 0) so the index
        // arithmetic below is unconditional; it just cannot wake us.
        const bool listeners_muted = now_ < listenerMuteUntil_;
        const std::vector<int> polled = core_.polled();
        fds.clear();
        fds.push_back({wakePipe_[0], POLLIN, 0});
        for (const int fd : listeners_)
            fds.push_back(
                {fd, static_cast<short>(listeners_muted ? 0 : POLLIN), 0});
        for (const int fd : polled)
            fds.push_back({fd, POLLIN, 0});

        const int n =
            ::poll(fds.data(), fds.size(), /*timeout ms=*/200);
        if (n < 0 && errno != EINTR)
            break; // poll itself failed; nothing sane left to do
        if (stopping_.load())
            break;
        now_ = std::chrono::steady_clock::now();

        std::size_t idx = 0;
        char drain[64];
        if (fds[idx++].revents & POLLIN)
            while (::read(wakePipe_[0], drain, sizeof(drain)) > 0) {
            }
        for (const int fd : listeners_)
            if (fds[idx++].revents & POLLIN)
                acceptPending(fd);
        for (const int fd : polled) {
            if (!(fds[idx++].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            uint8_t buf[64 * 1024];
            const ssize_t got = ::read(fd, buf, sizeof(buf));
            if (got < 0 && (errno == EINTR || errno == EAGAIN))
                continue;
            if (got <= 0) // EOF or read error
                step({Kind::Hangup, fd});
            else
                step({Kind::Bytes, fd, 0, buf,
                      static_cast<std::size_t>(got)});
        }
        step({Kind::Tick});
    }
}

void
Server::acceptPending(int listenFd)
{
    for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd >= 0) {
            setSendTimeoutMs(fd, kSendTimeoutMs);
            step({Kind::Accepted, fd});
            continue;
        }
        if (errno == EINTR || errno == ECONNABORTED)
            continue; // that one connection died; the next may not
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            step({Kind::AcceptFailed, -1, errno}, listenFd);
        return; // EAGAIN: the backlog is drained, the normal exit
    }
}

} // namespace emprof::serve
