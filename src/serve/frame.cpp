#include "serve/frame.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "store/crc32c.hpp"

namespace emprof::serve {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

void
markLost(bool *connectionLost)
{
    if (connectionLost != nullptr)
        *connectionLost = true;
}

/** Copy @p bytes from @p from to @p out, a payload sized up front;
 *  returns the byte after them. */
uint8_t *
put(uint8_t *out, const void *from, std::size_t bytes)
{
    std::memcpy(out, from, bytes);
    return out + bytes;
}

/** errno values that mean "the transport died", not "we misspoke". */
bool
errnoIsConnectionLoss(int e)
{
    return e == EPIPE || e == ECONNRESET || e == ECONNABORTED ||
           e == ETIMEDOUT;
}

/**
 * Write all of [data, data+len) to @p fd.  MSG_NOSIGNAL keeps a peer
 * hangup an EPIPE errno rather than a process-killing SIGPIPE; plain
 * write() is the fallback for fds that are not sockets (ENOTSOCK),
 * which only tests use.
 */
bool
writeAll(int fd, const void *data, std::size_t len, std::string *error,
         bool *connectionLost)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errnoIsConnectionLoss(errno))
                markLost(connectionLost);
            return fail(error, std::string("write failed: ") +
                                   std::strerror(errno));
        }
        if (n == 0) {
            markLost(connectionLost);
            return fail(error, "write failed: peer closed");
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
readExact(int fd, void *data, std::size_t len, std::string *error,
          bool *connectionLost)
{
    uint8_t *p = static_cast<uint8_t *>(data);
    while (len > 0) {
        const ssize_t n = ::read(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errnoIsConnectionLoss(errno))
                markLost(connectionLost);
            return fail(error, std::string("read failed: ") +
                                   std::strerror(errno));
        }
        if (n == 0) {
            markLost(connectionLost);
            return fail(error, "connection closed mid-frame");
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

void
fillHeader(FrameHeader &h, FrameType type, const void *payload,
           std::size_t payloadBytes)
{
    std::memcpy(h.magic, kFrameMagic, sizeof(h.magic));
    h.version = kProtocolVersion;
    h.type = static_cast<uint16_t>(type);
    h.payloadBytes = static_cast<uint32_t>(payloadBytes);
    h.payloadCrc = store::crc32c(0, payload, payloadBytes);
}

} // namespace

bool
sessionIdIsZero(const SessionId &id)
{
    for (const uint8_t b : id)
        if (b != 0)
            return false;
    return true;
}

std::string
sessionIdToHex(const SessionId &id)
{
    static const char *digits = "0123456789abcdef";
    std::string hex;
    hex.reserve(id.size() * 2);
    for (const uint8_t b : id) {
        hex.push_back(digits[b >> 4]);
        hex.push_back(digits[b & 0x0F]);
    }
    return hex;
}

bool
sessionIdFromHex(const std::string &hex, SessionId &out)
{
    if (hex.size() != out.size() * 2)
        return false;
    const auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    };
    for (std::size_t i = 0; i < out.size(); ++i) {
        const int hi = nibble(hex[2 * i]);
        const int lo = nibble(hex[2 * i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out[i] = static_cast<uint8_t>((hi << 4) | lo);
    }
    return true;
}

WireEvent
toWire(const profiler::StallEvent &ev)
{
    WireEvent w;
    w.startSample = ev.startSample;
    w.endSample = ev.endSample;
    std::memcpy(&w.depthBits, &ev.depth, sizeof(double));
    std::memcpy(&w.durationNsBits, &ev.durationNs, sizeof(double));
    std::memcpy(&w.stallCyclesBits, &ev.stallCycles, sizeof(double));
    std::memcpy(&w.confidenceBits, &ev.confidence, sizeof(double));
    w.kind = static_cast<uint32_t>(ev.kind);
    w.level = static_cast<uint32_t>(ev.level);
    std::memcpy(&w.levelConfidenceBits, &ev.levelConfidence,
                sizeof(double));
    return w;
}

profiler::StallEvent
fromWire(const WireEvent &w)
{
    profiler::StallEvent ev;
    ev.startSample = w.startSample;
    ev.endSample = w.endSample;
    std::memcpy(&ev.depth, &w.depthBits, sizeof(double));
    std::memcpy(&ev.durationNs, &w.durationNsBits, sizeof(double));
    std::memcpy(&ev.stallCycles, &w.stallCyclesBits, sizeof(double));
    std::memcpy(&ev.confidence, &w.confidenceBits, sizeof(double));
    ev.kind = static_cast<profiler::StallKind>(w.kind);
    ev.level = static_cast<profiler::ServiceLevel>(w.level);
    std::memcpy(&ev.levelConfidence, &w.levelConfidenceBits,
                sizeof(double));
    return ev;
}

void
appendFrame(std::vector<uint8_t> &out, FrameType type,
            const void *payload, std::size_t payloadBytes)
{
    FrameHeader h;
    fillHeader(h, type, payload, payloadBytes);
    const uint8_t *hp = reinterpret_cast<const uint8_t *>(&h);
    out.insert(out.end(), hp, hp + sizeof(h));
    if (payloadBytes > 0) {
        const uint8_t *pp = static_cast<const uint8_t *>(payload);
        out.insert(out.end(), pp, pp + payloadBytes);
    }
}

long
parseFrame(const uint8_t *buffer, std::size_t size, Frame &frame,
           std::string *error)
{
    if (size < sizeof(FrameHeader))
        return 0;
    FrameHeader h;
    std::memcpy(&h, buffer, sizeof(h));
    if (std::memcmp(h.magic, kFrameMagic, sizeof(h.magic)) != 0) {
        fail(error, "bad frame magic");
        return -1;
    }
    if (h.version != kProtocolVersion) {
        fail(error, "unsupported protocol version " +
                        std::to_string(h.version));
        return -1;
    }
    if (h.type < static_cast<uint16_t>(FrameType::Open) ||
        h.type > static_cast<uint16_t>(FrameType::Health)) {
        fail(error, "unknown frame type " + std::to_string(h.type));
        return -1;
    }
    if (h.payloadBytes > kMaxFramePayload) {
        fail(error, "frame payload " + std::to_string(h.payloadBytes) +
                        " bytes exceeds the cap");
        return -1;
    }
    if (size < sizeof(h) + h.payloadBytes)
        return 0;
    const uint8_t *payload = buffer + sizeof(h);
    if (store::crc32c(0, payload, h.payloadBytes) != h.payloadCrc) {
        fail(error, "frame payload CRC mismatch");
        return -1;
    }
    frame.type = static_cast<FrameType>(h.type);
    frame.payload.assign(payload, payload + h.payloadBytes);
    return static_cast<long>(sizeof(h) + h.payloadBytes);
}

bool
writeFrame(int fd, FrameType type, const void *payload,
           std::size_t payloadBytes, std::string *error,
           bool *connectionLost)
{
    if (payloadBytes > kMaxFramePayload)
        return fail(error, "frame payload exceeds the cap");
    FrameHeader h;
    fillHeader(h, type, payload, payloadBytes);
    if (!writeAll(fd, &h, sizeof(h), error, connectionLost))
        return false;
    return payloadBytes == 0 ||
           writeAll(fd, payload, payloadBytes, error, connectionLost);
}

bool
readFrame(int fd, Frame &frame, std::string *error,
          std::size_t maxPayload, bool *connectionLost)
{
    FrameHeader h;
    if (!readExact(fd, &h, sizeof(h), error, connectionLost))
        return false;
    std::vector<uint8_t> raw(sizeof(h));
    std::memcpy(raw.data(), &h, sizeof(h));
    if (std::memcmp(h.magic, kFrameMagic, sizeof(h.magic)) != 0)
        return fail(error, "bad frame magic");
    if (h.payloadBytes > maxPayload)
        return fail(error, "frame payload exceeds the cap");
    raw.resize(sizeof(h) + h.payloadBytes);
    if (h.payloadBytes > 0 &&
        !readExact(fd, raw.data() + sizeof(h), h.payloadBytes, error,
                   connectionLost))
        return false;
    std::string parse_error;
    const long consumed =
        parseFrame(raw.data(), raw.size(), frame, &parse_error);
    if (consumed <= 0)
        return fail(error, parse_error.empty() ? "malformed frame"
                                               : parse_error);
    return true;
}

std::vector<uint8_t>
encodeReportPayload(uint32_t status, uint64_t totalSamples,
                    double coverageFraction,
                    const std::vector<profiler::StallEvent> &events,
                    const std::string &reportText)
{
    ReportHeader rh;
    rh.status = status;
    rh.eventCount = static_cast<uint32_t>(events.size());
    rh.totalSamples = totalSamples;
    rh.coverageFraction = coverageFraction;

    std::vector<uint8_t> payload(sizeof(rh) +
                                 events.size() * sizeof(WireEvent) +
                                 reportText.size());
    uint8_t *out = put(payload.data(), &rh, sizeof(rh));
    for (const auto &ev : events) {
        const WireEvent w = toWire(ev);
        out = put(out, &w, sizeof(w));
    }
    put(out, reportText.data(), reportText.size());
    return payload;
}

bool
decodeReportPayload(const std::vector<uint8_t> &payload,
                    DecodedReport &out, std::string *error)
{
    if (payload.size() < sizeof(ReportHeader))
        return fail(error, "report payload shorter than its header");
    ReportHeader rh;
    std::memcpy(&rh, payload.data(), sizeof(rh));
    const std::size_t events_bytes =
        static_cast<std::size_t>(rh.eventCount) * sizeof(WireEvent);
    if (payload.size() < sizeof(rh) + events_bytes)
        return fail(error, "report payload truncated mid-events");
    out.status = rh.status;
    out.totalSamples = rh.totalSamples;
    out.coverageFraction = rh.coverageFraction;
    out.events.clear();
    out.events.reserve(rh.eventCount);
    const uint8_t *p = payload.data() + sizeof(rh);
    for (uint32_t i = 0; i < rh.eventCount; ++i) {
        WireEvent w;
        std::memcpy(&w, p + i * sizeof(w), sizeof(w));
        out.events.push_back(fromWire(w));
    }
    out.reportText.assign(
        payload.begin() +
            static_cast<long>(sizeof(rh) + events_bytes),
        payload.end());
    return true;
}

std::vector<uint8_t>
encodeOpenAckPayload(const SessionId &id, uint64_t resumeOffset,
                     SessionState state)
{
    OpenAckPayload ack{};
    std::memcpy(ack.sessionId, id.data(), id.size());
    ack.resumeOffset = resumeOffset;
    ack.state = static_cast<uint32_t>(state);
    ack.reserved = 0;
    const uint8_t *p = reinterpret_cast<const uint8_t *>(&ack);
    return std::vector<uint8_t>(p, p + sizeof(ack));
}

bool
decodeOpenAckPayload(const std::vector<uint8_t> &payload, SessionId &id,
                     uint64_t &resumeOffset, SessionState &state,
                     std::string *error)
{
    if (payload.size() != sizeof(OpenAckPayload))
        return fail(error, "bad OpenAck payload size");
    OpenAckPayload ack;
    std::memcpy(&ack, payload.data(), sizeof(ack));
    if (ack.state > static_cast<uint32_t>(SessionState::Complete))
        return fail(error, "unknown OpenAck session state " +
                               std::to_string(ack.state));
    std::memcpy(id.data(), ack.sessionId, id.size());
    resumeOffset = ack.resumeOffset;
    state = static_cast<SessionState>(ack.state);
    return true;
}

std::vector<uint8_t>
encodeErrorPayload(ErrorCode code, const std::string &message)
{
    ErrorHeader eh;
    eh.code = static_cast<uint32_t>(code);
    std::vector<uint8_t> payload(sizeof(eh) + message.size());
    put(put(payload.data(), &eh, sizeof(eh)), message.data(),
        message.size());
    return payload;
}

std::vector<uint8_t>
encodeRetryAfterPayload(uint32_t retryAfterMs, const std::string &message)
{
    ErrorHeader eh;
    eh.code = static_cast<uint32_t>(ErrorCode::RetryAfter);
    std::vector<uint8_t> payload(sizeof(eh) + sizeof(retryAfterMs) +
                                 message.size());
    uint8_t *out = put(payload.data(), &eh, sizeof(eh));
    put(put(out, &retryAfterMs, sizeof(retryAfterMs)), message.data(),
        message.size());
    return payload;
}

bool
decodeErrorPayload(const std::vector<uint8_t> &payload, ErrorCode &code,
                   std::string &message, uint32_t *retryAfterMs)
{
    if (retryAfterMs != nullptr)
        *retryAfterMs = 0;
    if (payload.size() < sizeof(ErrorHeader)) {
        code = ErrorCode::Internal;
        message.assign(payload.begin(), payload.end());
        return false;
    }
    ErrorHeader eh;
    std::memcpy(&eh, payload.data(), sizeof(eh));
    code = static_cast<ErrorCode>(eh.code);
    std::size_t offset = sizeof(eh);
    if (code == ErrorCode::RetryAfter &&
        payload.size() >= sizeof(eh) + sizeof(uint32_t)) {
        uint32_t hint = 0;
        std::memcpy(&hint, payload.data() + offset, sizeof(hint));
        if (retryAfterMs != nullptr)
            *retryAfterMs = hint;
        offset += sizeof(hint);
    }
    message.assign(payload.begin() + static_cast<long>(offset),
                   payload.end());
    return true;
}

} // namespace emprof::serve
