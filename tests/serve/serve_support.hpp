/**
 * @file
 * What the served-path suites share: the golden fixture's bytes and
 * expected events, scratch directories, an RAII server on a per-test
 * unix socket, a raw socket for speaking hand-made bytes, and the
 * one-connection upload, park and resume steps.
 */

#ifndef EMPROF_TESTS_SERVE_SERVE_SUPPORT_HPP
#define EMPROF_TESTS_SERVE_SERVE_SUPPORT_HPP

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
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

namespace emprof::serve::support {

inline std::string
goldenPath(const char *name)
{
    return std::string(EMPROF_GOLDEN_DIR) + "/" + name;
}

inline std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << "missing file " << path;
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

/** The golden capture's bytes. */
inline std::vector<uint8_t>
goldenCapture()
{
    return readFileBytes(goldenPath(golden::kCaptureFile));
}

/** The golden capture's checked-in expected events. */
inline std::vector<profiler::StallEvent>
loadExpected()
{
    const auto bytes = readFileBytes(goldenPath(golden::kExpectedFile));
    std::vector<profiler::StallEvent> events;
    std::string why;
    EXPECT_TRUE(golden::eventsFromJson(
        std::string(bytes.begin(), bytes.end()), events, &why))
        << why;
    return events;
}

/** The golden analysis knobs minus what the capture header carries:
 *  the served path must take rate and clock from the upload. */
inline profiler::EmProfConfig
servedConfig()
{
    profiler::EmProfConfig config = golden::goldenConfig();
    config.sampleRateHz = 1.0;
    config.clockHz = 1.0;
    return config;
}

/** A new, empty directory under the test temp dir. */
inline std::string
freshDir(const char *tag)
{
    static std::atomic<int> counter{0};
    std::string dir = testing::TempDir() + "emprof_serve_" + tag + "_" +
                      std::to_string(::getpid()) + "_" +
                      std::to_string(counter.fetch_add(1));
    std::filesystem::create_directories(dir);
    return dir;
}

/** RAII server on a per-test unix socket, keeping the caller's config
 *  apart from the socket, the golden analysis and (if unset) two
 *  threads. */
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
        config.analysis = servedConfig();
        server_ = std::make_unique<Server>(std::move(config));
        std::string error;
        EXPECT_TRUE(server_->start(&error)) << error;
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

    /** Poll stats() until @p done says stop or about @p timeout
     *  elapses. */
    template <typename Pred>
    bool
    waitFor(Pred done,
            std::chrono::milliseconds timeout = std::chrono::seconds(5)) const
    {
        for (auto i = timeout.count(); i > 0; --i) {
            if (done(server_->stats()))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return done(server_->stats());
    }

  private:
    std::string path_;
    std::unique_ptr<Server> server_;
};

/** Raw unix-socket connection for speaking hand-made bytes. */
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

    ~RawConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    RawConnection(const RawConnection &) = delete;
    RawConnection &operator=(const RawConnection &) = delete;

    bool ok() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    void
    sendBytes(const std::vector<uint8_t> &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << std::strerror(errno);
            off += static_cast<std::size_t>(n);
        }
    }

  private:
    int fd_ = -1;
};

/** One upload over one connection, no retry: pushResumable with
 *  maxAttempts = 1, in Data frames of @p chunkBytes. */
inline PushResult
pushOnce(const Endpoint &endpoint, const std::vector<uint8_t> &bytes,
         std::size_t chunkBytes = PushOptions{}.uploadChunkBytes,
         bool resilient = false)
{
    PushOptions options;
    options.maxAttempts = 1;
    options.uploadChunkBytes = chunkBytes;
    options.resilient = resilient;
    return Client().pushResumable(endpoint, bytes.data(), bytes.size(),
                                  options);
}

/** Open a fresh classic session on @p client's connection. */
inline bool
openFresh(Client &client, std::string *error)
{
    SessionId id{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    return client.openSession(OpenRequest{}, id, offset, state, nullptr,
                              error);
}

/** Upload the first @p headBytes of @p bytes then drop the link; wait
 *  until the server has parked the session.  Returns the session id. */
inline SessionId
uploadHeadAndDrop(ServerFixture &fixture, const std::vector<uint8_t> &bytes,
                  std::size_t headBytes, bool resilient = false)
{
    const uint64_t parkedBefore = fixture.server().stats().sessionsParked;
    SessionId id{};
    {
        Client client;
        std::string error;
        EXPECT_TRUE(client.connect(fixture.endpoint(), &error)) << error;
        OpenRequest open{};
        open.flags = resilient ? kOpenResilient : 0u;
        uint64_t offset = 0;
        SessionState state = SessionState::Fresh;
        EXPECT_TRUE(client.openSession(open, id, offset, state, nullptr,
                                       &error))
            << error;
        EXPECT_EQ(static_cast<uint32_t>(state),
                  static_cast<uint32_t>(SessionState::Fresh));
        EXPECT_FALSE(sessionIdIsZero(id));
        EXPECT_TRUE(client.sendData(bytes.data(), headBytes, &error))
            << error;
        // Destructor closes the socket: the server sees EOF with the
        // upload unfinished and must park, not reject.
    }
    EXPECT_TRUE(fixture.waitFor([&](const ServerStats &s) {
        return s.sessionsParked > parkedBefore;
    })) << "session was never parked";
    return id;
}

/** Reconnect with @p id and finish the upload from the server's
 *  durable offset. */
inline PushResult
resumeAndFinish(ServerFixture &fixture, const std::vector<uint8_t> &bytes,
                const SessionId &id, bool resilient = false)
{
    Client client;
    std::string error;
    PushResult out;
    if (!client.connect(fixture.endpoint(), &error)) {
        out.error = error;
        return out;
    }
    OpenRequest open{};
    open.flags = (resilient ? kOpenResilient : 0u) | kOpenResume;
    std::memcpy(open.sessionId, id.data(), id.size());
    open.resumeFrom = kResumeQuery;
    SessionId echoed{};
    uint64_t offset = 0;
    SessionState state = SessionState::Fresh;
    ErrorCode code = ErrorCode::Internal;
    if (!client.openSession(open, echoed, offset, state, &code,
                            &error)) {
        out.error = error;
        out.errorCode = code;
        return out;
    }
    EXPECT_EQ(static_cast<uint32_t>(state),
              static_cast<uint32_t>(SessionState::Resumed));
    EXPECT_EQ(echoed, id);
    EXPECT_LE(offset, bytes.size());
    if (!client.sendData(bytes.data() + offset, bytes.size() - offset,
                         &error)) {
        out.error = error;
        return out;
    }
    out = client.finish();
    out.sessionId = echoed;
    return out;
}

} // namespace emprof::serve::support

#endif // EMPROF_TESTS_SERVE_SERVE_SUPPORT_HPP
