/**
 * @file
 * EMFR framing unit tests: round trips, incremental parsing, and the
 * malformed-input catalogue (bad magic, bad version, CRC flips,
 * oversize payloads).  The wire format is the server's outermost
 * attack surface, so every rejection here must be a typed error —
 * parseFrame returning negative with a reason — never a crash or a
 * silently mis-framed stream.  Endpoint.* holds the endpoint spec
 * parser every tool's --listen/--to/--push/--scrape/--healthz uses.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.hpp"
#include "serve/frame.hpp"

using namespace emprof;
using namespace emprof::serve;

namespace {

std::vector<uint8_t>
frameBytes(FrameType type, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> out;
    appendFrame(out, type, payload.data(), payload.size());
    return out;
}

} // namespace

TEST(Frame, RoundTripThroughParse)
{
    const std::vector<uint8_t> payload = {1, 2, 3, 250, 251, 252};
    const auto bytes = frameBytes(FrameType::Data, payload);
    ASSERT_EQ(bytes.size(), sizeof(FrameHeader) + payload.size());

    Frame frame;
    std::string error;
    const long consumed =
        parseFrame(bytes.data(), bytes.size(), frame, &error);
    ASSERT_EQ(consumed, static_cast<long>(bytes.size())) << error;
    EXPECT_EQ(frame.type, FrameType::Data);
    EXPECT_EQ(frame.payload, payload);
}

TEST(Frame, EmptyPayloadFramesAreValid)
{
    std::vector<uint8_t> bytes;
    appendFrame(bytes, FrameType::Finish, nullptr, 0);
    Frame frame;
    ASSERT_EQ(parseFrame(bytes.data(), bytes.size(), frame),
              static_cast<long>(sizeof(FrameHeader)));
    EXPECT_EQ(frame.type, FrameType::Finish);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Frame, IncompleteBufferAsksForMoreBytes)
{
    const auto bytes =
        frameBytes(FrameType::Data, {10, 20, 30, 40, 50});
    Frame frame;
    // Every strict prefix must return 0 (need more), not an error.
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_EQ(parseFrame(bytes.data(), n, frame), 0) << n;
}

TEST(Frame, BackToBackFramesParseSequentially)
{
    std::vector<uint8_t> stream;
    appendFrame(stream, FrameType::Open, nullptr, 0);
    const std::vector<uint8_t> payload = {9, 8, 7};
    appendFrame(stream, FrameType::Data, payload.data(),
                payload.size());
    appendFrame(stream, FrameType::Finish, nullptr, 0);

    std::vector<FrameType> seen;
    std::size_t offset = 0;
    Frame frame;
    while (offset < stream.size()) {
        const long consumed = parseFrame(stream.data() + offset,
                                         stream.size() - offset, frame);
        ASSERT_GT(consumed, 0);
        offset += static_cast<std::size_t>(consumed);
        seen.push_back(frame.type);
    }
    EXPECT_EQ(seen, (std::vector<FrameType>{FrameType::Open,
                                            FrameType::Data,
                                            FrameType::Finish}));
}

TEST(Frame, PayloadCrcFlipIsMalformed)
{
    auto bytes = frameBytes(FrameType::Data, {1, 2, 3, 4});
    bytes[sizeof(FrameHeader) + 2] ^= 0x40; // flip one payload bit

    Frame frame;
    std::string error;
    EXPECT_LT(parseFrame(bytes.data(), bytes.size(), frame, &error), 0);
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(Frame, BadMagicIsMalformed)
{
    auto bytes = frameBytes(FrameType::Data, {1});
    bytes[0] = 'X';
    Frame frame;
    std::string error;
    EXPECT_LT(parseFrame(bytes.data(), bytes.size(), frame, &error), 0);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Frame, WrongVersionIsMalformed)
{
    auto bytes = frameBytes(FrameType::Data, {1});
    FrameHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    h.version = kProtocolVersion + 1;
    std::memcpy(bytes.data(), &h, sizeof(h));
    Frame frame;
    std::string error;
    EXPECT_LT(parseFrame(bytes.data(), bytes.size(), frame, &error), 0);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Frame, UnknownTypeIsMalformed)
{
    auto bytes = frameBytes(FrameType::Data, {1});
    FrameHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    h.type = 99;
    std::memcpy(bytes.data(), &h, sizeof(h));
    Frame frame;
    EXPECT_LT(parseFrame(bytes.data(), bytes.size(), frame), 0);
}

TEST(Frame, OversizePayloadRejectedWithoutBuffering)
{
    // A header announcing more than the cap must be rejected from the
    // header alone — even though the "payload" never arrives.
    std::vector<uint8_t> bytes(sizeof(FrameHeader));
    FrameHeader h{};
    std::memcpy(h.magic, kFrameMagic, sizeof(h.magic));
    h.version = kProtocolVersion;
    h.type = static_cast<uint16_t>(FrameType::Data);
    h.payloadBytes = static_cast<uint32_t>(kMaxFramePayload) + 1;
    h.payloadCrc = 0;
    std::memcpy(bytes.data(), &h, sizeof(h));

    Frame frame;
    std::string error;
    EXPECT_LT(parseFrame(bytes.data(), bytes.size(), frame, &error), 0);
    EXPECT_NE(error.find("cap"), std::string::npos) << error;
}

TEST(Frame, WireEventPreservesDoubleBitsExactly)
{
    profiler::StallEvent ev;
    ev.startSample = 12345;
    ev.endSample = 67890;
    ev.depth = 0.1 + 0.2; // a value with a non-obvious bit pattern
    ev.durationNs = std::numeric_limits<double>::denorm_min();
    ev.stallCycles = -0.0;
    ev.confidence = std::numeric_limits<double>::quiet_NaN();
    ev.kind = profiler::StallKind::RefreshCoincident;
    ev.level = profiler::ServiceLevel::PrefetchMasked;
    ev.levelConfidence = std::nextafter(1.0, 0.0);

    const profiler::StallEvent back = fromWire(toWire(ev));
    EXPECT_EQ(back.startSample, ev.startSample);
    EXPECT_EQ(back.endSample, ev.endSample);
    EXPECT_EQ(back.kind, ev.kind);
    EXPECT_EQ(back.level, ev.level);
    const auto bits = [](double v) {
        uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    EXPECT_EQ(bits(back.depth), bits(ev.depth));
    EXPECT_EQ(bits(back.durationNs), bits(ev.durationNs));
    EXPECT_EQ(bits(back.stallCycles), bits(ev.stallCycles));
    EXPECT_EQ(bits(back.confidence), bits(ev.confidence)); // NaN bits
    EXPECT_EQ(bits(back.levelConfidence), bits(ev.levelConfidence));
}

TEST(Frame, ReportPayloadRoundTrip)
{
    std::vector<profiler::StallEvent> events(3);
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].startSample = 100 * i;
        events[i].endSample = 100 * i + 7;
        events[i].depth = 0.25 * static_cast<double>(i + 1);
    }
    const std::string text = "report body\nwith two lines\n";
    const auto payload =
        encodeReportPayload(3, 8192, 0.75, events, text);

    DecodedReport report;
    std::string error;
    ASSERT_TRUE(decodeReportPayload(payload, report, &error)) << error;
    EXPECT_EQ(report.status, 3u);
    EXPECT_EQ(report.totalSamples, 8192u);
    EXPECT_DOUBLE_EQ(report.coverageFraction, 0.75);
    ASSERT_EQ(report.events.size(), events.size());
    EXPECT_EQ(report.events[2].startSample, 200u);
    EXPECT_EQ(report.reportText, text);
}

TEST(Frame, TruncatedReportPayloadIsTypedError)
{
    std::vector<profiler::StallEvent> events(2);
    auto payload = encodeReportPayload(0, 100, 1.0, events, "");
    payload.resize(sizeof(ReportHeader) + sizeof(WireEvent) / 2);

    DecodedReport report;
    std::string error;
    EXPECT_FALSE(decodeReportPayload(payload, report, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Frame, ErrorPayloadRoundTrip)
{
    const auto payload =
        encodeErrorPayload(ErrorCode::Busy, "session limit reached");
    ErrorCode code{};
    std::string message;
    EXPECT_TRUE(decodeErrorPayload(payload, code, message));
    EXPECT_EQ(code, ErrorCode::Busy);
    EXPECT_EQ(message, "session limit reached");
}

TEST(Frame, RetryAfterPayloadRoundTripsTheHint)
{
    const auto payload =
        encodeRetryAfterPayload(1234, "server overloaded");
    ErrorCode code{};
    std::string message;
    uint32_t hintMs = 0;
    EXPECT_TRUE(decodeErrorPayload(payload, code, message, &hintMs));
    EXPECT_EQ(code, ErrorCode::RetryAfter);
    EXPECT_EQ(hintMs, 1234u);
    EXPECT_EQ(message, "server overloaded");
}

TEST(Frame, NonRetryErrorPayloadYieldsZeroHint)
{
    // A plain error decoded through the hint-aware overload must not
    // invent a backoff: the hint is only present on RetryAfter.
    const auto payload =
        encodeErrorPayload(ErrorCode::IdleTimeout, "no progress");
    ErrorCode code{};
    std::string message;
    uint32_t hintMs = 77;
    EXPECT_TRUE(decodeErrorPayload(payload, code, message, &hintMs));
    EXPECT_EQ(code, ErrorCode::IdleTimeout);
    EXPECT_EQ(hintMs, 0u);
    EXPECT_EQ(message, "no progress");
}

TEST(Frame, HealthFrameTypesAreValidV4Types)
{
    // v4 added HealthRequest/Health past the old top of the range; the
    // parser must accept both (and still reject the next value up).
    std::vector<uint8_t> bytes;
    appendFrame(bytes, FrameType::HealthRequest, nullptr, 0);
    const uint8_t state = static_cast<uint8_t>(HealthState::Backoff);
    appendFrame(bytes, FrameType::Health, &state, 1);

    Frame frame;
    long consumed = parseFrame(bytes.data(), bytes.size(), frame);
    ASSERT_GT(consumed, 0);
    EXPECT_EQ(frame.type, FrameType::HealthRequest);
    const std::size_t offset = static_cast<std::size_t>(consumed);
    consumed = parseFrame(bytes.data() + offset, bytes.size() - offset,
                          frame);
    ASSERT_GT(consumed, 0);
    EXPECT_EQ(frame.type, FrameType::Health);
    ASSERT_EQ(frame.payload.size(), 1u);
    EXPECT_EQ(frame.payload[0],
              static_cast<uint8_t>(HealthState::Backoff));
}

TEST(Endpoint, ParsesUnixTcpAndBarePathsAndRefusesBadPorts)
{
    struct Case
    {
        const char *spec;
        bool ok;
        bool tcp;
        const char *where; ///< unix path or tcp host
        int port;
    };
    const Case cases[] = {
        {"unix:/p", true, false, "/p", 0},
        {"/run/emprof.sock", true, false, "/run/emprof.sock", 0},
        {"tcp:127.0.0.1:7600", true, true, "127.0.0.1", 7600},
        {"tcp:localhost:65535", true, true, "localhost", 65535},
        {"", false, false, "", 0},
        {"unix:", false, false, "", 0},
        {"tcp:127.0.0.1", false, false, "", 0},
        {"tcp::80", false, false, "", 0},
        {"tcp:127.0.0.1:0", false, false, "", 0},
        {"tcp:127.0.0.1:65536", false, false, "", 0},
        {"tcp:127.0.0.1:1x", false, false, "", 0},
        {"tcp:127.0.0.1: 1", false, false, "", 0},
        {"tcp:127.0.0.1:+1", false, false, "", 0},
        {"tcp:127.0.0.1:1.5", false, false, "", 0},
    };
    for (const Case &c : cases) {
        serve::Endpoint ep;
        std::string error;
        ASSERT_EQ(serve::parseEndpoint(c.spec, ep, &error), c.ok)
            << "'" << c.spec << "': " << error;
        if (!c.ok) {
            EXPECT_FALSE(error.empty()) << c.spec;
            continue;
        }
        EXPECT_EQ(ep.tcp, c.tcp) << c.spec;
        EXPECT_EQ(c.tcp ? ep.host : ep.unixPath, c.where) << c.spec;
        if (c.tcp) {
            EXPECT_EQ(ep.port, c.port) << c.spec;
        }
    }
}
