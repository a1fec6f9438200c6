#include "serve/chaos.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace emprof::serve {

namespace {

struct ChaosState
{
    std::mutex mutex;
    ChaosPlan plan;
    uint32_t acceptsStolen = 0;
    uint32_t spoolAppendsStolen = 0;
};

ChaosState &
state()
{
    static ChaosState s;
    return s;
}

/** Disarmed fast path: one relaxed load, no lock. */
std::atomic<bool> g_armed{false};

} // namespace

void
ChaosInjector::arm(const ChaosPlan &plan)
{
    ChaosState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.plan = plan;
    if (s.plan.failAccepts > 0 && s.plan.acceptErrno == 0)
        s.plan.acceptErrno = EMFILE;
    s.acceptsStolen = 0;
    s.spoolAppendsStolen = 0;
    g_armed.store(true, std::memory_order_release);
}

void
ChaosInjector::disarm()
{
    ChaosState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    g_armed.store(false, std::memory_order_release);
    s.plan = ChaosPlan{};
}

bool
ChaosInjector::stealAccept(int *errnoOut)
{
    if (!g_armed.load(std::memory_order_relaxed))
        return false;
    ChaosState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.plan.failAccepts == 0)
        return false;
    --s.plan.failAccepts;
    ++s.acceptsStolen;
    if (errnoOut != nullptr)
        *errnoOut = s.plan.acceptErrno;
    return true;
}

bool
ChaosInjector::stealSpoolAppend()
{
    if (!g_armed.load(std::memory_order_relaxed))
        return false;
    ChaosState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.plan.failSpoolAppends == 0)
        return false;
    --s.plan.failSpoolAppends;
    ++s.spoolAppendsStolen;
    return true;
}

uint32_t
ChaosInjector::acceptsStolen()
{
    ChaosState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.acceptsStolen;
}

uint32_t
ChaosInjector::spoolAppendsStolen()
{
    ChaosState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.spoolAppendsStolen;
}

namespace {

using Clock = std::chrono::steady_clock;

/** Raw best-effort send; false when the transport died. */
bool
rawSend(int fd, const uint8_t *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Watch @p fd for up to @p waitMs for the server's reaction, folding
 * whatever arrives into @p out.  Returns true when the session is
 * decided (typed error or dead transport) — stop misbehaving.
 */
bool
pollServerReaction(int fd, int waitMs, std::vector<uint8_t> &rxBuffer,
                   HostileOutcome &out)
{
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, waitMs);
    if (rc < 0)
        return false;
    if (rc == 0)
        return false;
    uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
        out.connectionDied = true;
        return true;
    }
    rxBuffer.insert(rxBuffer.end(), chunk, chunk + n);
    Frame frame;
    const long consumed =
        parseFrame(rxBuffer.data(), rxBuffer.size(), frame, nullptr);
    if (consumed < 0) {
        // Unparseable server bytes: treat as a dead session.
        out.connectionDied = true;
        return true;
    }
    if (consumed == 0)
        return false; // partial frame; keep watching
    if (frame.type == FrameType::Error) {
        out.typedError = true;
        decodeErrorPayload(frame.payload, out.code, out.message,
                           &out.retryAfterMs);
        return true;
    }
    // Any other frame (a Report for a session we never finished
    // would be a server bug); drop it and keep watching.
    rxBuffer.erase(rxBuffer.begin(), rxBuffer.begin() + consumed);
    return false;
}

void
closeHostile(int fd, bool reset)
{
    if (fd < 0)
        return;
    if (reset) {
        // RST instead of FIN: what a yanked cable or a crashed NAT
        // box looks like from the server's side.
        linger lg{};
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    ::close(fd);
}

} // namespace

HostileOutcome
runHostileSession(const Endpoint &endpoint, const uint8_t *capture,
                  std::size_t bytes, const StallOptions &options)
{
    HostileOutcome out;
    Client client;
    std::string error;
    if (!client.connect(endpoint, &error)) {
        out.connectionDied = true;
        out.message = error;
        return out;
    }
    OpenRequest req{};
    req.flags = options.resilient ? kOpenResilient : 0;
    uint64_t resume_offset = 0;
    SessionState ack_state = SessionState::Fresh;
    // openSession writes the code only when an Error frame (RetryAfter
    // at a watermark, with its hint) answers the Open.
    constexpr auto kNoCode = static_cast<ErrorCode>(0);
    ErrorCode code = kNoCode;
    const bool opened =
        client.openSession(req, out.id, resume_offset, ack_state, &code,
                           &out.message, nullptr, &out.retryAfterMs);
    const int fd = client.releaseFd();
    if (!opened) {
        out.typedError = code != kNoCode;
        out.connectionDied = !out.typedError;
        if (out.typedError)
            out.code = code;
        closeHostile(fd, options.resetOnExit);
        return out;
    }
    out.opened = true;

    // The well-behaved prefix: headBytes of real capture data.
    const uint64_t head = std::min<uint64_t>(options.headBytes, bytes);
    if (head > 0) {
        if (!writeFrame(fd, FrameType::Data, capture, head)) {
            out.connectionDied = true;
            closeHostile(fd, options.resetOnExit);
            return out;
        }
        out.bytesSent = head;
    }

    // The torn frame: a header promising a payload, then half of it.
    if (options.tornFrame) {
        const std::size_t promise =
            std::min<std::size_t>(bytes > head ? bytes - head : 64,
                                  64 * 1024);
        std::vector<uint8_t> framed;
        std::vector<uint8_t> torn_payload(promise, 0xA5);
        if (bytes > head)
            std::memcpy(torn_payload.data(), capture + head,
                        std::min<std::size_t>(promise, bytes - head));
        appendFrame(framed, FrameType::Data, torn_payload.data(),
                    torn_payload.size());
        const std::size_t send_bytes =
            sizeof(FrameHeader) + promise / 2;
        if (!rawSend(fd, framed.data(), send_bytes)) {
            out.connectionDied = true;
            closeHostile(fd, options.resetOnExit);
            return out;
        }
    }

    // Misbehave until the server reacts or we give up.
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options.giveUpAfterMs);
    std::vector<uint8_t> rx;
    std::size_t trickle_off = static_cast<std::size_t>(head);
    while (Clock::now() < deadline) {
        const int wait_ms = static_cast<int>(std::min<int64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count(),
            options.trickleBytes > 0 ? options.trickleIntervalMs : 200));
        if (pollServerReaction(fd, std::max(wait_ms, 0), rx, out))
            break;
        if (options.trickleBytes > 0 && trickle_off < bytes) {
            // Slow-loris: a sip of real bytes, far below any rate
            // floor, each in its own tiny Data frame.
            const std::size_t take = std::min<std::size_t>(
                options.trickleBytes, bytes - trickle_off);
            if (!writeFrame(fd, FrameType::Data, capture + trickle_off,
                            take)) {
                // The sip raced the server's verdict: the typed
                // error (and EOF) may already sit in our receive
                // buffer — a unix-socket close discards nothing.
                // Drain it before declaring the transport dead.
                while (Clock::now() < deadline &&
                       !pollServerReaction(fd, 50, rx, out))
                    ;
                if (!out.typedError)
                    out.connectionDied = true;
                break;
            }
            trickle_off += take;
            out.bytesSent = trickle_off;
        }
    }
    closeHostile(fd, options.resetOnExit);
    return out;
}

} // namespace emprof::serve
