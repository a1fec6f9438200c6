#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace emprof::serve {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

bool
parseEndpoint(const std::string &spec, Endpoint &out,
              std::string *error)
{
    if (spec.empty())
        return fail(error, "empty endpoint");
    if (spec.rfind("unix:", 0) == 0) {
        out.tcp = false;
        out.unixPath = spec.substr(5);
        if (out.unixPath.empty())
            return fail(error, "unix endpoint needs a path");
        return true;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        const std::string rest = spec.substr(4);
        const auto colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size())
            return fail(error,
                        "tcp endpoint must be tcp:host:port, got '" +
                            spec + "'");
        out.tcp = true;
        out.host = rest.substr(0, colon);
        // Digits only: stoi alone reads "1x", " 1", "+1" and "1.5" as 1.
        const std::string port = rest.substr(colon + 1);
        if (port.size() > 5 ||
            port.find_first_not_of("0123456789") != std::string::npos)
            return fail(error, "bad tcp port in '" + spec + "'");
        out.port = std::stoi(port);
        if (out.port <= 0 || out.port > 65535)
            return fail(error, "tcp port out of range in '" + spec +
                                   "'");
        return true;
    }
    // A bare path is a unix socket — the common daemon case.
    out.tcp = false;
    out.unixPath = spec;
    return true;
}

bool
Client::connect(const Endpoint &endpoint, std::string *error)
{
    close();
    if (!endpoint.tcp) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (endpoint.unixPath.size() >= sizeof(addr.sun_path))
            return fail(error, "unix socket path too long");
        std::strncpy(addr.sun_path, endpoint.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return fail(error, std::string("socket failed: ") +
                                   std::strerror(errno));
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int e = errno;
            close();
            return fail(error, "cannot connect to " +
                                   endpoint.unixPath + ": " +
                                   std::strerror(e));
        }
        return true;
    }

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const int rc =
        ::getaddrinfo(endpoint.host.c_str(),
                      std::to_string(endpoint.port).c_str(), &hints,
                      &res);
    if (rc != 0 || res == nullptr)
        return fail(error, "cannot resolve " + endpoint.host + ": " +
                               ::gai_strerror(rc));
    fd_ = ::socket(res->ai_family, res->ai_socktype,
                   res->ai_protocol);
    if (fd_ < 0) {
        ::freeaddrinfo(res);
        return fail(error, std::string("socket failed: ") +
                               std::strerror(errno));
    }
    if (::connect(fd_, res->ai_addr, res->ai_addrlen) != 0) {
        const int e = errno;
        ::freeaddrinfo(res);
        close();
        return fail(error, "cannot connect to " + endpoint.host + ":" +
                               std::to_string(endpoint.port) + ": " +
                               std::strerror(e));
    }
    ::freeaddrinfo(res);
    return true;
}

void
Client::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
Client::openSession(const OpenRequest &request, SessionId &id,
                    uint64_t &resumeOffset, SessionState &state,
                    ErrorCode *errorCode, std::string *error,
                    bool *connectionLost, uint32_t *retryAfterMs)
{
    if (retryAfterMs != nullptr)
        *retryAfterMs = 0;
    if (fd_ < 0)
        return fail(error, "not connected");
    if (!writeFrame(fd_, FrameType::Open, &request, sizeof(request),
                    error, connectionLost))
        return false;
    Frame reply;
    if (!readFrame(fd_, reply, error, kMaxFramePayload,
                   connectionLost))
        return false;
    if (reply.type == FrameType::Error) {
        ErrorCode code = ErrorCode::Internal;
        std::string message;
        decodeErrorPayload(reply.payload, code, message, retryAfterMs);
        if (errorCode != nullptr)
            *errorCode = code;
        return fail(error, message);
    }
    if (reply.type != FrameType::OpenAck)
        return fail(error, "unexpected reply to Open");
    return decodeOpenAckPayload(reply.payload, id, resumeOffset,
                                state, error);
}

bool
Client::sendData(const uint8_t *data, std::size_t bytes,
                 std::string *error, bool *connectionLost)
{
    if (fd_ < 0)
        return fail(error, "not connected");
    // One Data frame carries at most kMaxFramePayload bytes; the
    // server reassembles the stream, so the cut points are invisible.
    std::size_t off = 0;
    do {
        const std::size_t take = std::min(bytes - off, kMaxFramePayload);
        if (!writeFrame(fd_, FrameType::Data, data + off, take, error,
                        connectionLost))
            return false;
        off += take;
    } while (off < bytes);
    return true;
}

/**
 * A write that fails mid-session usually means the server already
 * rejected the session, queued a typed Error frame, and closed its
 * end — the rejection is sitting in our receive buffer.  Surface it
 * instead of the opaque EPIPE.  The peer's end is closed, so the read
 * terminates immediately with either the frame or EOF.
 */
void
Client::adoptPendingError(PushResult &result)
{
    if (fd_ < 0)
        return;
    Frame reply;
    std::string ignored;
    if (readFrame(fd_, reply, &ignored) &&
        reply.type == FrameType::Error) {
        decodeErrorPayload(reply.payload, result.errorCode,
                           result.error, &result.retryAfterMs);
        // A typed rejection beat the hangup: this is a protocol
        // failure, not a transport death — do not retry it.
        result.connectionLost = false;
    }
}

PushResult
Client::finish()
{
    PushResult result;
    std::string error;
    if (fd_ < 0) {
        result.error = "not connected";
        return result;
    }
    bool lost = false;
    if (!writeFrame(fd_, FrameType::Finish, nullptr, 0, &error,
                    &lost)) {
        result.error = error;
        result.connectionLost = lost;
        adoptPendingError(result);
        close();
        return result;
    }
    Frame reply;
    if (!readFrame(fd_, reply, &error, kMaxFramePayload, &lost)) {
        result.error = error;
        result.connectionLost = lost;
        close();
        return result;
    }
    close();
    if (reply.type == FrameType::Error) {
        decodeErrorPayload(reply.payload, result.errorCode,
                           result.error, &result.retryAfterMs);
        return result;
    }
    if (reply.type != FrameType::Report) {
        result.error = "unexpected reply frame from server";
        return result;
    }
    if (!decodeReportPayload(reply.payload, result.report, &error)) {
        result.error = error;
        return result;
    }
    result.ok = true;
    return result;
}

PushResult
Client::pushResumable(const Endpoint &endpoint, const uint8_t *capture,
                      std::size_t bytes, const PushOptions &options)
{
    PushResult result;
    std::size_t chunk = options.uploadChunkBytes;
    if (chunk == 0 || chunk > kMaxFramePayload)
        chunk = kMaxFramePayload;
    const uint32_t max_attempts = std::max(1u, options.maxAttempts);

    std::mt19937_64 rng(options.jitterSeed != 0
                            ? options.jitterSeed
                            : std::random_device{}());
    SessionId id{};
    bool have_id = false;
    bool dropped = false; ///< the simulated drop fired already
    uint64_t sent_high_water = 0;
    uint32_t server_hint_ms = 0; ///< last RetryAfter backoff hint

    for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            // Jittered exponential backoff: base * 2^(retries-1),
            // capped, scaled by a uniform [0.5, 1.5) factor so a
            // fleet of droppped clients does not reconnect in phase.
            uint64_t delay = options.backoffBaseMs;
            for (uint32_t i = 2; i < attempt && delay < options.backoffMaxMs; ++i)
                delay *= 2;
            delay = std::min<uint64_t>(delay, options.backoffMaxMs);
            std::uniform_real_distribution<double> jitter(0.5, 1.5);
            delay = static_cast<uint64_t>(
                static_cast<double>(delay) * jitter(rng));
            if (server_hint_ms > 0) {
                // The server told us how loaded it is; honor the
                // larger of its hint (mildly jittered so the fleet
                // spreads) and our own schedule.
                std::uniform_real_distribution<double> spread(1.0, 1.25);
                const uint64_t hinted = static_cast<uint64_t>(
                    static_cast<double>(server_hint_ms) * spread(rng));
                delay = std::max(delay, hinted);
                server_hint_ms = 0;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }

        ++result.attempts;
        std::string error;
        if (!connect(endpoint, &error)) {
            result.error = error;
            result.connectionLost = true;
            continue; // the daemon may be restarting; back off
        }

        OpenRequest req{};
        req.flags = (options.resilient ? kOpenResilient : 0u) |
                    (have_id ? kOpenResume : 0u);
        if (have_id)
            std::memcpy(req.sessionId, id.data(), id.size());
        req.resumeFrom = have_id ? kResumeQuery : 0;

        uint64_t resume_offset = 0;
        SessionState state = SessionState::Fresh;
        bool lost = false;
        result.errorCode = ErrorCode::Internal;
        uint32_t hint_ms = 0;
        if (!openSession(req, id, resume_offset, state,
                         &result.errorCode, &error, &lost, &hint_ms)) {
            result.error = error;
            result.connectionLost = lost;
            close();
            if (result.errorCode == ErrorCode::RetryAfter) {
                // Load shed with a backoff hint: retriable, at the
                // server's suggested pace.
                result.retryAfterMs = hint_ms;
                server_hint_ms = hint_ms;
                continue;
            }
            if (lost || result.errorCode == ErrorCode::Busy)
                continue;
            return result; // typed rejection: not retriable
        }
        have_id = true;
        result.sessionId = id;

        if (state == SessionState::Complete) {
            // The session finished in a previous life; the spooled
            // Report follows immediately.
            Frame reply;
            if (!readFrame(fd_, reply, &error, kMaxFramePayload,
                           &lost)) {
                result.error = error;
                result.connectionLost = lost;
                close();
                if (lost)
                    continue;
                return result;
            }
            close();
            if (reply.type != FrameType::Report) {
                result.error = "unexpected frame after Complete ack";
                return result;
            }
            if (!decodeReportPayload(reply.payload, result.report,
                                     &error)) {
                result.error = error;
                return result;
            }
            result.ok = true;
            result.servedFromSpool = true;
            result.connectionLost = false;
            result.error.clear();
            return result;
        }
        if (state == SessionState::Resumed) {
            ++result.resumes;
            if (sent_high_water > resume_offset)
                result.replayedBytes +=
                    sent_high_water - resume_offset;
        } else if (sent_high_water > 0) {
            // Fresh after bytes went out: the daemon restarted and
            // lost its parked state; the whole upload replays.
            result.replayedBytes += sent_high_water;
        }
        if (resume_offset > bytes) {
            result.error = "server resume offset " +
                           std::to_string(resume_offset) +
                           " is past the capture (" +
                           std::to_string(bytes) + " bytes)";
            result.connectionLost = false;
            close();
            return result;
        }

        std::size_t off = static_cast<std::size_t>(resume_offset);
        bool send_failed = false;
        while (off < bytes) {
            const std::size_t take = std::min(chunk, bytes - off);
            if (!sendData(capture + off, take, &error, &lost)) {
                result.error = error;
                result.connectionLost = lost;
                adoptPendingError(result);
                send_failed = true;
                break;
            }
            off += take;
            sent_high_water =
                std::max<uint64_t>(sent_high_water, off);
            if (!dropped && options.simulateDropAfterBytes > 0 &&
                off >= options.simulateDropAfterBytes) {
                // Bench hook: kill the transport once.  A threshold at
                // or past the last byte drops between the final Data
                // frame and Finish — the classic lost-report window.
                dropped = true;
                result.error = "simulated connection drop";
                result.connectionLost = true;
                send_failed = true;
                lost = true;
                break;
            }
        }
        if (send_failed) {
            close();
            if (result.connectionLost)
                continue;
            if (result.errorCode == ErrorCode::IdleTimeout ||
                result.errorCode == ErrorCode::RetryAfter) {
                // Shed mid-upload with a typed error: the server
                // parked what it durably had, so the next attempt
                // resumes rather than replays.
                server_hint_ms = std::max(server_hint_ms,
                                          result.retryAfterMs);
                continue;
            }
            return result; // server rejected the stream: final
        }

        PushResult fin = finish(); // closes the socket either way
        fin.sessionId = id;
        fin.attempts = result.attempts;
        fin.resumes = result.resumes;
        fin.replayedBytes = result.replayedBytes;
        if (fin.ok)
            return fin;
        if (!fin.connectionLost &&
            (fin.errorCode == ErrorCode::IdleTimeout ||
             fin.errorCode == ErrorCode::RetryAfter)) {
            result.error = fin.error;
            result.errorCode = fin.errorCode;
            result.retryAfterMs = fin.retryAfterMs;
            server_hint_ms = std::max(server_hint_ms, fin.retryAfterMs);
            continue;
        }
        if (!fin.connectionLost)
            return fin;
        // The Finish (or its Report) was lost in flight.  The next
        // attempt either resumes the parked upload or — when Finish
        // did arrive and the result is already durable — collects
        // the spooled Report via the Complete handshake.
        result.error = fin.error;
        result.errorCode = fin.errorCode;
        result.connectionLost = true;
        continue;
    }

    if (result.error.empty())
        result.error = "push failed after " +
                       std::to_string(result.attempts) + " attempts";
    return result;
}

bool
Client::health(const Endpoint &endpoint, HealthState &state,
               std::string *error)
{
    Client client;
    if (!client.connect(endpoint, error))
        return false;
    if (!writeFrame(client.fd_, FrameType::HealthRequest, nullptr, 0,
                    error))
        return false;
    Frame reply;
    if (!readFrame(client.fd_, reply, error))
        return false;
    if (reply.type != FrameType::Health || reply.payload.size() != 1)
        return fail(error, "unexpected reply to HealthRequest");
    if (reply.payload[0] >
        static_cast<uint8_t>(HealthState::Draining))
        return fail(error, "unknown health state " +
                               std::to_string(reply.payload[0]));
    state = static_cast<HealthState>(reply.payload[0]);
    return true;
}

bool
Client::scrape(const Endpoint &endpoint, std::string &text,
               std::string *error)
{
    Client client;
    if (!client.connect(endpoint, error))
        return false;
    if (!writeFrame(client.fd_, FrameType::StatsRequest, nullptr, 0,
                    error))
        return false;
    Frame reply;
    if (!readFrame(client.fd_, reply, error))
        return false;
    if (reply.type != FrameType::Stats)
        return fail(error, "unexpected reply to StatsRequest");
    text.assign(reply.payload.begin(), reply.payload.end());
    return true;
}

PushResult
pushCaptureResumable(const Endpoint &endpoint,
                     const std::string &capturePath,
                     const PushOptions &options)
{
    PushResult result;
    std::ifstream in(capturePath, std::ios::binary);
    if (!in) {
        result.error = "cannot open " + capturePath;
        return result;
    }
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    Client client;
    return client.pushResumable(endpoint, bytes.data(), bytes.size(),
                                options);
}

} // namespace emprof::serve
