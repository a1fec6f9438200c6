/**
 * @file
 * End-to-end server tests over real unix-domain sockets: served
 * reports must be bit-identical to the golden expectation for every
 * upload framing, malformed input must be rejected with typed errors
 * while the server keeps serving everyone else, concurrent sessions
 * must not interfere (this suite runs under TSan in CI), and
 * backpressure/shutdown must both terminate cleanly.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "../e2e/golden_common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;
using namespace emprof::serve;

namespace {

std::string
goldenPath(const char *name)
{
    return std::string(EMPROF_GOLDEN_DIR) + "/" + name;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << "missing fixture " << path;
    std::vector<uint8_t> bytes;
    if (f == nullptr)
        return bytes;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

std::vector<profiler::StallEvent>
loadExpected()
{
    std::FILE *f =
        std::fopen(goldenPath(golden::kExpectedFile).c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string text;
    if (f != nullptr) {
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);
    }
    std::vector<profiler::StallEvent> events;
    std::string why;
    EXPECT_TRUE(golden::eventsFromJson(text, events, &why)) << why;
    return events;
}

void
expectEventsBitExact(const std::vector<profiler::StallEvent> &expected,
                     const std::vector<profiler::StallEvent> &actual,
                     const std::string &framing)
{
    ASSERT_EQ(expected.size(), actual.size()) << framing;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &e = expected[i];
        const auto &a = actual[i];
        EXPECT_EQ(e.startSample, a.startSample) << framing << " #" << i;
        EXPECT_EQ(e.endSample, a.endSample) << framing << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.depth),
                  golden::doubleBits(a.depth))
            << framing << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.durationNs),
                  golden::doubleBits(a.durationNs))
            << framing << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.stallCycles),
                  golden::doubleBits(a.stallCycles))
            << framing << " #" << i;
        EXPECT_EQ(static_cast<int>(e.kind), static_cast<int>(a.kind))
            << framing << " #" << i;
        EXPECT_EQ(static_cast<int>(e.level), static_cast<int>(a.level))
            << framing << " #" << i;
        EXPECT_EQ(golden::doubleBits(e.levelConfidence),
                  golden::doubleBits(a.levelConfidence))
            << framing << " #" << i;
    }
}

/** RAII server on a per-test unix socket. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServerConfig config = {})
    {
        static std::atomic<int> counter{0};
        path_ = testing::TempDir() + "emprof_serve_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter.fetch_add(1)) + ".sock";
        config.unixPath = path_;
        if (config.threads == 0)
            config.threads = 2;
        config.analysis = baseConfig();
        server_ = std::make_unique<Server>(std::move(config));
        std::string error;
        started_ = server_->start(&error);
        EXPECT_TRUE(started_) << error;
    }

    static profiler::EmProfConfig
    baseConfig()
    {
        // The golden analysis knobs minus what the capture header
        // carries (rate/clock come from the upload).
        profiler::EmProfConfig config = golden::goldenConfig();
        config.sampleRateHz = 1.0;
        config.clockHz = 1.0;
        return config;
    }

    Endpoint
    endpoint() const
    {
        Endpoint ep;
        ep.tcp = false;
        ep.unixPath = path_;
        return ep;
    }

    Server &server() { return *server_; }

    /** Poll stats() until @p done says stop or ~2 s elapse. */
    template <typename Pred>
    bool
    waitFor(Pred done) const
    {
        for (int i = 0; i < 2000; ++i) {
            if (done(server_->stats()))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return done(server_->stats());
    }

  private:
    std::string path_;
    std::unique_ptr<Server> server_;
    bool started_ = false;
};

} // namespace

TEST(Server, ServedReportIsBitIdenticalForEveryUploadFraming)
{
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
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
        Client client;
        std::string error;
        ASSERT_TRUE(client.connect(fixture.endpoint(), &error))
            << error;
        const PushResult result = client.push(
            bytes.data(), bytes.size(), false, c.chunkBytes);
        ASSERT_TRUE(result.ok) << c.name << ": " << result.error;
        EXPECT_EQ(result.report.status, 0u) << c.name;
        EXPECT_EQ(result.report.totalSamples, golden::kSamples);
        expectEventsBitExact(expected, result.report.events, c.name);
        EXPECT_FALSE(result.report.reportText.empty()) << c.name;
    }
    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsCompleted, 3u);
    EXPECT_EQ(stats.sessionsRejected, 0u);
}

namespace {

/** Raw unix-socket connection for speaking corrupted bytes. */
class RawConnection
{
  public:
    explicit RawConnection(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
            return;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    bool ok() const { return fd_ >= 0; }

    ~RawConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendBytes(const std::vector<uint8_t> &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n =
                ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << std::strerror(errno);
            off += static_cast<std::size_t>(n);
        }
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

} // namespace

TEST(Server, MalformedFrameGetsTypedErrorAndServerSurvives)
{
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
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
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    const PushResult result =
        client.push(bytes.data(), bytes.size(), false, 997);
    EXPECT_TRUE(result.ok) << result.error;

    const ServerStats stats = fixture.server().stats();
    EXPECT_GE(stats.framesMalformed, 2u);
    EXPECT_EQ(stats.sessionsCompleted, 1u);
}

TEST(Server, CorruptEmcapBytesAreRejectedAndQuarantined)
{
    auto bytes = readFileBytes(goldenPath(golden::kCaptureFile));
    bytes[5000] ^= 0x10; // flip one bit inside a chunk payload
    const auto good =
        readFileBytes(goldenPath(golden::kCaptureFile));

    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    const PushResult bad =
        client.push(bytes.data(), bytes.size(), false, 997);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, ErrorCode::Malformed);
    EXPECT_NE(bad.error.find("CRC"), std::string::npos) << bad.error;

    // Only that session was quarantined: the next upload succeeds.
    Client again;
    ASSERT_TRUE(again.connect(fixture.endpoint(), &error)) << error;
    const PushResult ok =
        again.push(good.data(), good.size(), false, 997);
    EXPECT_TRUE(ok.ok) << ok.error;

    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsRejected, 1u);
    EXPECT_EQ(stats.sessionsCompleted, 1u);
}

TEST(Server, TruncatedUploadIsRejectedWithAReason)
{
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(client.open(false, &error)) << error;
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
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
    ServerConfig config;
    config.maxSessions = 1;
    ServerFixture fixture(std::move(config));

    // Hold one session open (Open sent, no Finish yet).
    Client holder;
    std::string error;
    ASSERT_TRUE(holder.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(holder.open(false, &error)) << error;
    ASSERT_TRUE(fixture.waitFor([](const ServerStats &s) {
        return s.sessionsAccepted == 1;
    }));

    Client second;
    ASSERT_TRUE(second.connect(fixture.endpoint(), &error)) << error;
    const PushResult busy =
        second.push(bytes.data(), bytes.size(), false, 997);
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
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
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
            Client client;
            std::string error;
            if (!client.connect(fixture.endpoint(), &error)) {
                results[i].error = error;
                return;
            }
            // Different framing per session, same expected bits.
            const std::size_t chunk = 128 + 977 * (i % 3);
            results[i] = client.push(bytes.data(), bytes.size(),
                                     false, chunk);
        });
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < kSessions; ++i) {
        ASSERT_TRUE(results[i].ok)
            << "session " << i << ": " << results[i].error;
        expectEventsBitExact(expected, results[i].report.events,
                             "session " + std::to_string(i));
    }
    const ServerStats stats = fixture.server().stats();
    EXPECT_EQ(stats.sessionsCompleted,
              static_cast<uint64_t>(kSessions));
    EXPECT_EQ(stats.sessionsRejected, 0u);
}

TEST(Server, BackpressureBoundsTheQueueAndStillCompletes)
{
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
    const auto expected = loadExpected();
    ServerConfig config;
    config.sessionBufferBytes = 2048; // absurdly small budget
    config.spanSamples = 512;
    ServerFixture fixture(std::move(config));

    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    const PushResult result =
        client.push(bytes.data(), bytes.size(), false, 256);
    ASSERT_TRUE(result.ok) << result.error;
    expectEventsBitExact(expected, result.report.events,
                         "backpressure");
}

TEST(Server, ScrapeReturnsTheSessionCounters)
{
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(
        client.push(bytes.data(), bytes.size(), false, 997).ok);

    std::string text;
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
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
    ServerFixture fixture;
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(client.open(false, &error)) << error;
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
    const auto bytes =
        readFileBytes(goldenPath(golden::kCaptureFile));
    ServerFixture fixture;
    fixture.server().stop();
    fixture.server().stop(); // second stop must be a no-op

    std::string error;
    ASSERT_TRUE(fixture.server().start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    const PushResult result =
        client.push(bytes.data(), bytes.size(), false, 4096);
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
    std::string error;
    Client reference;
    ASSERT_TRUE(reference.connect(fixture.endpoint(), &error)) << error;
    const PushResult pushed = reference.push(bytes.data(), bytes.size());
    ASSERT_TRUE(pushed.ok) << pushed.error;
    ASSERT_FALSE(pushed.report.events.empty());

    Client client;
    ASSERT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
    ASSERT_TRUE(client.open(false, &error)) << error;
    ASSERT_TRUE(client.sendData(bytes.data(), bytes.size(), &error))
        << error;
    const PushResult sent = client.finish();
    ASSERT_TRUE(sent.ok) << sent.error;
    EXPECT_EQ(sent.report.totalSamples, series.samples.size());
    EXPECT_EQ(sent.report.reportText, pushed.report.reportText);
    expectEventsBitExact(pushed.report.events, sent.report.events,
                         "one sendData call");
}
