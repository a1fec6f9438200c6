/**
 * @file
 * Client side of the EMFR protocol: connect, push one EMCAP capture,
 * collect the Report — the code path shared by `emprof_capture
 * --push`, the served-equivalence tests and the load generator.
 *
 * Endpoints are spelled like the daemon's --listen flag:
 *
 *     unix:/run/emprof.sock      unix-domain socket
 *     tcp:127.0.0.1:7600         TCP (host:port)
 *     /run/emprof.sock           bare path = unix
 *
 * Uploads are cut into Data frames of uploadChunkBytes; the cut is
 * arbitrary by design (the server reassembles a byte stream), which
 * the equivalence tests exploit by pushing the same capture in wildly
 * different framings and asserting bit-identical reports.
 */

#ifndef EMPROF_SERVE_CLIENT_HPP
#define EMPROF_SERVE_CLIENT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/frame.hpp"

namespace emprof::serve {

/** Parsed --listen / --push endpoint. */
struct Endpoint
{
    bool tcp = false;
    std::string unixPath; ///< when !tcp
    std::string host;     ///< when tcp
    int port = 0;         ///< when tcp
};

/** Parse an endpoint spec; false + reason when unintelligible. */
bool parseEndpoint(const std::string &spec, Endpoint &out,
                   std::string *error = nullptr);

/** Outcome of one pushed session. */
struct PushResult
{
    bool ok = false;          ///< Report received (status may be 3)
    DecodedReport report;     ///< valid when ok
    ErrorCode errorCode =     ///< valid when !ok and the server spoke
        ErrorCode::Internal;
    std::string error;        ///< human-readable failure reason

    /** The failure (if any) was the transport dying — the class a
     *  resumable push retries; maps to exit code 7 in the tools. */
    bool connectionLost = false;
    /** Server-suggested backoff from a RetryAfter rejection (ms);
     *  0 when the server sent no hint. */
    uint32_t retryAfterMs = 0;
    uint32_t attempts = 0;    ///< connections made (resumable push)
    uint32_t resumes = 0;     ///< OpenAcks answered Resumed
    uint64_t replayedBytes = 0; ///< bytes re-sent after reconnects
    bool servedFromSpool = false; ///< OpenAck Complete: spool replay
    SessionId sessionId{};    ///< id echoed by the server (v2)
};

/** Knobs for the reconnecting push (emprof_capture/served --push). */
struct PushOptions
{
    bool resilient = false;
    std::size_t uploadChunkBytes = 256 * 1024;

    /** Total connection attempts (first try included); 1 disables
     *  the retry loop entirely. */
    uint32_t maxAttempts = 3;
    uint32_t backoffBaseMs = 50; ///< doubled per retry, jittered
    uint32_t backoffMaxMs = 2000;
    uint64_t jitterSeed = 0; ///< 0 = nondeterministic

    /** Bench/test hook: hard-close the socket once, after this many
     *  capture bytes have been sent (0 = never).  Exercises the real
     *  reconnect-and-resume path deterministically. */
    uint64_t simulateDropAfterBytes = 0;
};

class Client
{
  public:
    ~Client() { close(); }

    /** Connect to @p endpoint; false + reason on failure. */
    bool connect(const Endpoint &endpoint,
                 std::string *error = nullptr);

    void close();

    /** Hand the connected fd to the caller (the hostile client drives
     *  the socket by hand); the Client forgets it. */
    int releaseFd()
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /**
     * Push one capture: connect, Open (options.resilient maps to
     * kOpenResilient), the bytes in Data frames of
     * options.uploadChunkBytes, Finish, then block for the
     * Report/Error.  Survives the connection dying under it:
     * reconnects (with jittered exponential backoff) up to
     * options.maxAttempts times, re-attaching to the same session id
     * so the server's parked pipeline continues from its durable
     * offset — or, when the session already finished, collecting the
     * spooled Report.  Retries only transport deaths and Busy; typed
     * protocol rejections (Malformed, BadResume, ...) fail fast.
     */
    PushResult pushResumable(const Endpoint &endpoint,
                             const uint8_t *capture, std::size_t bytes,
                             const PushOptions &options);

    /**
     * The session steps, for callers that drive an upload themselves.
     * openSession is the full v2 handshake: write @p request, block for
     * the OpenAck (or a typed Error, reported through @p errorCode +
     * @p error).  On success @p id / @p resumeOffset / @p state carry
     * the server's answer; state == Complete means a Report follows.
     */
    bool openSession(const OpenRequest &request, SessionId &id,
                     uint64_t &resumeOffset, SessionState &state,
                     ErrorCode *errorCode = nullptr,
                     std::string *error = nullptr,
                     bool *connectionLost = nullptr,
                     uint32_t *retryAfterMs = nullptr);

    /** Send @p bytes of the upload, cut into Data frames of at most
     *  kMaxFramePayload bytes each. */
    bool sendData(const uint8_t *data, std::size_t bytes,
                  std::string *error = nullptr,
                  bool *connectionLost = nullptr);
    PushResult finish();

    /** Fetch the server's text metrics scrape (StatsRequest). */
    static bool scrape(const Endpoint &endpoint, std::string &text,
                       std::string *error = nullptr);

    /** One-byte liveness probe (v4 HealthRequest): classify the
     *  server without opening a session.  False + reason when the
     *  endpoint is unreachable or answers garbage. */
    static bool health(const Endpoint &endpoint, HealthState &state,
                       std::string *error = nullptr);

  private:
    void adoptPendingError(PushResult &result);

    int fd_ = -1;
};

/** Convenience: read a capture file and push it resumably. */
PushResult pushCaptureResumable(const Endpoint &endpoint,
                                const std::string &capturePath,
                                const PushOptions &options);

} // namespace emprof::serve

#endif // EMPROF_SERVE_CLIENT_HPP
