/**
 * @file
 * End-to-end server tests over real unix-domain sockets: served
 * reports must be bit-identical to the golden expectation for every
 * upload framing, malformed input must be rejected with typed errors
 * while the server keeps serving everyone else, concurrent sessions
 * must not interfere (this suite runs under TSan in CI), and
 * backpressure/shutdown must both terminate cleanly.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "serve_support.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;
using namespace emprof::serve;
using namespace emprof::serve::support;

TEST(Server, ServedReportIsBitIdenticalForEveryUploadFraming)
{
    const auto bytes = goldenCapture();
    ASSERT_FALSE(bytes.empty());
    const auto expected = loadExpected();
    ASSERT_FALSE(expected.empty());

    ServerFixture fixture;
    struct Case
    {
        const char *name;
        std::size_t chunkBytes;
    };
    // Whole capture in one Data frame; ragged prime-sized frames that
    // straddle every EMCAP chunk boundary; tiny frames.
    const Case cases[] = {
        {"one-frame", bytes.size()},
        {"ragged-997", 997},
        {"tiny-64", 64},
    };
    for (const auto &c : cases) {
        const PushResult result =
            pushOnce(fixture.endpoint(), bytes, c.chunkBytes);
        ASSERT_TRUE(result.ok) << c.name << ": " << result.error;
        EXPECT_EQ(result.report.status, 0u) << c.name;
        EXPECT_EQ(result.report.totalSamples, golden::kSamples);
        EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "")
            << c.name;
        EXPECT_FALSE(result.report.reportText.empty()) << c.name;
    }
    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsCompleted, 3u);
    EXPECT_EQ(stats.sessionsRejected, 0u);
}

TEST(Server, MalformedFrameGetsTypedErrorAndServerSurvives)
{
    const auto bytes = goldenCapture();
    ServerFixture fixture;

    // A valid Open, then a Data frame whose payload was corrupted
    // AFTER the CRC was computed — a flipped bit on the wire.
    {
        RawConnection conn(fixture.endpoint().unixPath);
        ASSERT_TRUE(conn.ok()) << std::strerror(errno);
        std::vector<uint8_t> raw;
        const OpenRequest open{};
        appendFrame(raw, FrameType::Open, &open, sizeof(open));
        const std::size_t data_at = raw.size();
        appendFrame(raw, FrameType::Data, bytes.data(), 128);
        raw[data_at + sizeof(FrameHeader) + 64] ^= 0x01;
        conn.sendBytes(raw);

        // v2: the Open is acknowledged first, then the corrupted
        // Data frame draws the typed Error.
        Frame reply;
        std::string error;
        ASSERT_TRUE(readFrame(conn.fd(), reply, &error)) << error;
        ASSERT_EQ(reply.type, FrameType::OpenAck);
        ASSERT_TRUE(readFrame(conn.fd(), reply, &error)) << error;
        ASSERT_EQ(reply.type, FrameType::Error);
        ErrorCode code{};
        std::string message;
        ASSERT_TRUE(decodeErrorPayload(reply.payload, code, message));
        EXPECT_EQ(code, ErrorCode::Malformed);
        EXPECT_NE(message.find("CRC"), std::string::npos) << message;
    }

    // Garbage that is not even a frame header.
    {
        RawConnection conn(fixture.endpoint().unixPath);
        ASSERT_TRUE(conn.ok()) << std::strerror(errno);
        conn.sendBytes(std::vector<uint8_t>(64, 0x5A));
        Frame reply;
        std::string error;
        ASSERT_TRUE(readFrame(conn.fd(), reply, &error)) << error;
        EXPECT_EQ(reply.type, FrameType::Error);
    }

    // The server survived both: a well-formed push still works and
    // the malformed-frame counter saw the damage.
    const PushResult result = pushOnce(fixture.endpoint(), bytes, 997);
    EXPECT_TRUE(result.ok) << result.error;

    const ServerStats stats = fixture.server().stats();
    EXPECT_GE(stats.framesMalformed, 2u);
    EXPECT_EQ(stats.sessionsCompleted, 1u);
}

TEST(Server, CorruptEmcapBytesAreRejectedAndQuarantined)
{
    auto bytes = goldenCapture();
    bytes[5000] ^= 0x10; // flip one bit inside a chunk payload
    const auto good =
        goldenCapture();

    ServerFixture fixture;
    const PushResult bad = pushOnce(fixture.endpoint(), bytes, 997);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, ErrorCode::Malformed);
    EXPECT_NE(bad.error.find("CRC"), std::string::npos) << bad.error;

    // Only that session was quarantined: the next upload succeeds.
    const PushResult ok = pushOnce(fixture.endpoint(), good, 997);
    EXPECT_TRUE(ok.ok) << ok.error;

    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsRejected, 1u);
    EXPECT_EQ(stats.sessionsCompleted, 1u);
}

TEST(Server, TruncatedUploadIsRejectedWithAReason)
{
    const auto bytes = goldenCapture();
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(openFresh(client, &error)) << error;
    ASSERT_TRUE(
        client.sendData(bytes.data(), bytes.size() / 2, &error))
        << error;
    const PushResult result = client.finish();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.errorCode, ErrorCode::Malformed);
    EXPECT_NE(result.error.find("truncated"), std::string::npos)
        << result.error;
}

TEST(Server, DataBeforeOpenIsRejected)
{
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    const uint8_t junk[16] = {};
    ASSERT_TRUE(client.sendData(junk, sizeof(junk), &error)) << error;
    const PushResult result = client.finish();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.errorCode, ErrorCode::Malformed);
}

TEST(Server, SessionLimitRepliesBusy)
{
    const auto bytes = goldenCapture();
    ServerConfig config;
    config.maxSessions = 1;
    ServerFixture fixture(std::move(config));

    // Hold one session open (Open sent, no Finish yet).
    Client holder;
    std::string error;
    ASSERT_TRUE(holder.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(openFresh(holder, &error)) << error;
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.sessionsAccepted == 1;
    }));

    const PushResult busy = pushOnce(fixture.endpoint(), bytes, 997);
    EXPECT_FALSE(busy.ok);
    EXPECT_EQ(busy.errorCode, ErrorCode::Busy);

    // The held session still completes normally.
    ASSERT_TRUE(holder.sendData(bytes.data(), bytes.size(), &error))
        << error;
    const PushResult done = holder.finish();
    EXPECT_TRUE(done.ok) << done.error;
}

TEST(Server, ConcurrentSessionsAllGetBitIdenticalReports)
{
    const auto bytes = goldenCapture();
    const auto expected = loadExpected();
    ServerConfig config;
    config.threads = 4;
    config.spanSamples = 1024; // force mid-upload analysis
    ServerFixture fixture(std::move(config));

    constexpr int kSessions = 8;
    std::vector<PushResult> results(kSessions);
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i)
        threads.emplace_back([&, i] {
            // Different framing per session, same expected bits.
            const std::size_t chunk = 128 + 977 * (i % 3);
            results[i] = pushOnce(fixture.endpoint(), bytes, chunk);
        });
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(results[i].ok)
            << "session " << i << ": " << results[i].error;
        EXPECT_EQ(parity::eventsDiff(expected, results[i].report.events),
                  "")
            << "session " << i;
    }
    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsCompleted,
              static_cast<uint64_t>(kSessions));
    EXPECT_EQ(stats.sessionsRejected, 0u);
}

TEST(Server, BackpressureBoundsTheQueueAndStillCompletes)
{
    const auto bytes = goldenCapture();
    const auto expected = loadExpected();
    ServerConfig config;
    config.sessionBufferBytes = 2048; // absurdly small budget
    config.spanSamples = 512;
    ServerFixture fixture(std::move(config));

    const PushResult result = pushOnce(fixture.endpoint(), bytes, 256);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(parity::eventsDiff(expected, result.report.events), "");
}

TEST(Server, ScrapeReturnsTheSessionCounters)
{
    const auto bytes = goldenCapture();
    ServerFixture fixture;
    ASSERT_TRUE(pushOnce(fixture.endpoint(), bytes, 997).ok);

    std::string text;
    std::string error;
    ASSERT_TRUE(Client::scrape(fixture.endpoint(), text, &error))
        << error;
    EXPECT_NE(text.find("emprof.serve.sessions_completed 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("emprof.serve.sessions_rejected 0"),
              std::string::npos)
        << text;
}

TEST(Server, GracefulStopAnswersInFlightSessionsWithShutdown)
{
    const auto bytes = goldenCapture();
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(openFresh(client, &error)) << error;
    ASSERT_TRUE(client.sendData(bytes.data(), 1000, &error)) << error;
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.sessionsAccepted == 1;
    }));

    fixture.server().stop();
    // The client either receives the typed Shutdown error or finds
    // the connection closed — never a hang, never a bogus Report.
    const PushResult result = client.finish();
    EXPECT_FALSE(result.ok);
    if (result.errorCode == ErrorCode::Shutdown) {
        EXPECT_NE(result.error.find("shutting down"),
                  std::string::npos);
    }

    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsCompleted, 0u);
    EXPECT_EQ(stats.sessionsRejected, 1u);
}

TEST(Server, StopIsIdempotentAndRestartWorks)
{
    const auto bytes = goldenCapture();
    ServerFixture fixture;
    fixture.server().stop();
    fixture.server().stop(); // second stop must be a no-op

    std::string error;
    ASSERT_TRUE(fixture.server().start(&error)) << error;
    const PushResult result = pushOnce(fixture.endpoint(), bytes, 4096);
    EXPECT_TRUE(result.ok) << result.error;
}

TEST(Server, SendDataCutsAnUploadOverTheFrameCapIntoFrames)
{
    // A raw F32 capture of 1.5 Mi samples is 6 MiB, more than one Data
    // frame may carry; one sendData() call must still deliver it.
    dsp::TimeSeries series;
    series.sampleRateHz = 40e6;
    series.samples.resize(std::size_t{3} << 19);
    for (std::size_t i = 0; i < series.samples.size(); ++i)
        series.samples[i] =
            (i % 5000 < 40 ? 0.2f : 1.0f) + 0.001f * float(i % 7);
    store::WriterOptions options;
    options.compress = false;
    const std::string path = testing::TempDir() + "emprof_send_data_" +
                             std::to_string(::getpid()) + ".emcap";
    ASSERT_TRUE(store::writeCapture(path, series, options));
    const auto bytes = readFileBytes(path);
    std::remove(path.c_str());
    ASSERT_GT(bytes.size(), kMaxFramePayload);

    ServerFixture fixture;
    const PushResult pushed = pushOnce(fixture.endpoint(), bytes);
    ASSERT_TRUE(pushed.ok) << pushed.error;
    ASSERT_FALSE(pushed.report.events.empty());

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(openFresh(client, &error)) << error;
    ASSERT_TRUE(client.sendData(bytes.data(), bytes.size(), &error))
        << error;
    const PushResult sent = client.finish();
    ASSERT_TRUE(sent.ok) << sent.error;
    EXPECT_EQ(sent.report.totalSamples, series.samples.size());
    EXPECT_EQ(sent.report.reportText, pushed.report.reportText);
    EXPECT_EQ(parity::eventsDiff(pushed.report.events, sent.report.events),
              "");
}
