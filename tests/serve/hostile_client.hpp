/**
 * @file
 * A deliberately misbehaving client for the ingest server, shared by
 * tests/serve/test_overload.cpp and `bench/throughput_serve --chaos`:
 * one session that trickles below any rate floor, stalls mid-upload
 * or ends with an RST, and how the server disposed of it.  Header-only: an attacker, not part of the server.
 */

#ifndef EMPROF_TESTS_SERVE_HOSTILE_CLIENT_HPP
#define EMPROF_TESTS_SERVE_HOSTILE_CLIENT_HPP

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/frame.hpp"

namespace emprof::serve {

/** How one hostile session should misbehave. */
struct StallOptions
{
    /** Capture bytes sent normally right after Open: a mid-upload
     *  stall leaves a parkable prefix. */
    uint64_t headBytes = 0;

    /** Bytes trickled per interval after the head; 0 = full stall. */
    uint64_t trickleBytes = 0;
    uint32_t trickleIntervalMs = 100;

    /** Stop waiting for the server's reaction after this long. */
    uint32_t giveUpAfterMs = 10000;

    /** Close with SO_LINGER 0: the peer sees an RST, not a FIN. */
    bool resetOnExit = false;
};

/** How the server disposed of a hostile session. */
struct HostileOutcome
{
    /** A typed Error arrived; code / retryAfterMs are valid. */
    bool typedError = false;
    ErrorCode code = ErrorCode::Internal;
    uint32_t retryAfterMs = 0;
    std::string message;

    /** The transport died (EOF/RST) without a typed error. */
    bool connectionDied = false;

    bool opened = false; ///< the OpenAck arrived before misbehaving
    SessionId id{};      ///< server-echoed id (valid when opened)
};

namespace hostile_detail {

/** Watch @p fd up to @p waitMs for the server's reaction, folding it
 *  into @p out; true once decided (typed error or dead transport). */
inline bool
pollServerReaction(int fd, int waitMs, std::vector<uint8_t> &rxBuffer,
                   HostileOutcome &out)
{
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, waitMs) <= 0)
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

inline void
closeHostile(int fd, bool reset)
{
    if (fd < 0)
        return;
    if (reset) {
        linger lg{};
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    ::close(fd);
}

} // namespace hostile_detail

/**
 * Connect, Open, send options.headBytes of @p capture, then misbehave
 * while watching for the server's reaction.  Returns once a typed
 * Error arrives or the connection dies, or after giveUpAfterMs with
 * neither (what a default-configured server does).
 */
inline HostileOutcome
runHostileSession(const Endpoint &endpoint, const uint8_t *capture,
                  std::size_t bytes, const StallOptions &options)
{
    using namespace hostile_detail;
    using Clock = std::chrono::steady_clock;
    HostileOutcome out;
    Client client;
    if (!client.connect(endpoint, &out.message)) {
        out.connectionDied = true;
        return out;
    }
    const OpenRequest req{};
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
    const auto finish = [&] {
        closeHostile(fd, options.resetOnExit);
        return out;
    };
    if (!opened) {
        out.typedError = code != kNoCode;
        out.connectionDied = !out.typedError;
        if (out.typedError)
            out.code = code;
        return finish();
    }
    out.opened = true;

    // The well-behaved prefix: headBytes of real capture data.
    const uint64_t head = std::min<uint64_t>(options.headBytes, bytes);
    if (head > 0 && !writeFrame(fd, FrameType::Data, capture, head)) {
        out.connectionDied = true;
        return finish();
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
        if (options.trickleBytes == 0 || trickle_off >= bytes)
            continue;
        // Slow-loris: a sip of real bytes, far below any rate floor,
        // each in its own tiny Data frame.
        const std::size_t take = std::min<std::size_t>(
            options.trickleBytes, bytes - trickle_off);
        if (!writeFrame(fd, FrameType::Data, capture + trickle_off, take)) {
            // The sip raced the server's verdict: the typed error (and
            // EOF) may already sit in our receive buffer — a unix-socket
            // close discards nothing.  Drain it before declaring the
            // transport dead.
            while (Clock::now() < deadline &&
                   !pollServerReaction(fd, 50, rx, out))
                ;
            if (!out.typedError)
                out.connectionDied = true;
            break;
        }
        trickle_off += take;
    }
    return finish();
}

} // namespace emprof::serve

#endif // EMPROF_TESTS_SERVE_HOSTILE_CLIENT_HPP
