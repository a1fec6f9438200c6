/**
 * @file
 * Socket-level chaos for the ingest service: the serve-layer sibling
 * of common/io/fault_injection.hpp.
 *
 * The file-layer FaultInjector proves every CheckedFile I/O site
 * survives disk faults; this harness does the same for the *socket*
 * boundary, where the failure modes nobody can hit on demand live:
 * fd exhaustion on accept, ENOSPC inside the result spool, clients
 * that stall mid-frame, trickle bytes below any useful rate, tear a
 * frame in half, or slam the connection shut with an RST.
 *
 * Two halves:
 *
 *  - ChaosInjector: a process-global, compile-in hook (same contract
 *    as FaultInjector — disarmed cost is one relaxed atomic load)
 *    consulted by Server::acceptPending and ResultSpool::append to
 *    simulate the failures that happen *inside* the server and cannot
 *    be provoked from a socket: EMFILE/ENFILE on accept and ENOSPC on
 *    spool append.  Counted plans: "fail the next N accepts", so a
 *    test can walk the server through exhaustion and recovery.
 *
 *  - Hostile-client helpers: runHostileSession drives one deliberately
 *    misbehaving session (slow-loris trickle, mid-upload stall, torn
 *    frame, RST on exit) and reports exactly how the server disposed
 *    of it — typed error (with any RetryAfter hint), connection
 *    killed, or neither.  tests/serve/test_overload.cpp and
 *    `throughput_serve --chaos` share it, so the bench's hostile
 *    population is the same code the regression tests pin down.
 *
 * Everything here is test/bench-only; production binaries never arm
 * the injector and never call the helpers.
 */

#ifndef EMPROF_SERVE_CHAOS_HPP
#define EMPROF_SERVE_CHAOS_HPP

#include <cstddef>
#include <cstdint>

#include "serve/client.hpp"
#include "serve/frame.hpp"

namespace emprof::serve {

/** One armed chaos plan; counts decrement as faults fire. */
struct ChaosPlan
{
    /** Fail this many subsequent accept() calls with acceptErrno
     *  before letting accepts through again (0 = none). */
    uint32_t failAccepts = 0;
    int acceptErrno = 0; ///< defaults to EMFILE when 0 and armed

    /** Fail this many subsequent ResultSpool::append calls with a
     *  typed ENOSPC-shaped error (0 = none). */
    uint32_t failSpoolAppends = 0;
};

/**
 * Process-global injector consulted by the server's accept loop and
 * the result spool.  Tests arm it (preferably via ScopedChaosPlan);
 * production code pays one relaxed atomic load while it is disarmed.
 */
class ChaosInjector
{
  public:
    static void arm(const ChaosPlan &plan);
    static void disarm();

    /**
     * Consulted before each real accept().  True = simulate a failed
     * accept; @p errnoOut (when non-null) receives the planned errno.
     * Decrements the plan's failAccepts budget.
     */
    static bool stealAccept(int *errnoOut);

    /** Consulted at the top of ResultSpool::append; true = fail the
     *  append as if the disk were full.  Decrements the budget. */
    static bool stealSpoolAppend();

    /** Accepts stolen since arm() (test observability). */
    static uint32_t acceptsStolen();

    /** Spool appends stolen since arm(). */
    static uint32_t spoolAppendsStolen();
};

/** RAII arm/disarm for tests. */
class ScopedChaosPlan
{
  public:
    explicit ScopedChaosPlan(const ChaosPlan &plan)
    {
        ChaosInjector::arm(plan);
    }
    ~ScopedChaosPlan() { ChaosInjector::disarm(); }

    ScopedChaosPlan(const ScopedChaosPlan &) = delete;
    ScopedChaosPlan &operator=(const ScopedChaosPlan &) = delete;
};

/** How one hostile session should misbehave. */
struct StallOptions
{
    /** Capture bytes sent normally right after Open (0 = none);
     *  makes the stall a *mid-upload* stall, leaving a parked-able
     *  prefix on the server. */
    uint64_t headBytes = 0;

    /** Bytes trickled per interval after the head.  0 = full stall
     *  (classic slow-loris: hold the slot, send nothing). */
    uint64_t trickleBytes = 0;
    uint32_t trickleIntervalMs = 100;

    /** Stop waiting for the server's reaction after this long; a
     *  test asserts the outcome arrived well before it. */
    uint32_t giveUpAfterMs = 10000;

    /** Send a frame header promising a payload, then only half of
     *  it — a torn frame the parser must keep waiting on. */
    bool tornFrame = false;

    /** Close with SO_LINGER 0 on exit so the peer sees an RST, not
     *  an orderly FIN — the herd-reconnect storm's signature. */
    bool resetOnExit = false;

    bool resilient = false; ///< open with kOpenResilient
};

/** How the server disposed of a hostile session. */
struct HostileOutcome
{
    /** A typed Error frame arrived; code / retryAfterMs are valid. */
    bool typedError = false;
    ErrorCode code = ErrorCode::Internal;
    uint32_t retryAfterMs = 0;
    std::string message;

    /** The transport died (EOF/RST) without a typed error. */
    bool connectionDied = false;

    bool opened = false; ///< the OpenAck arrived before misbehaving
    SessionId id{};      ///< server-echoed id (valid when opened)
    uint64_t bytesSent = 0; ///< capture bytes that left the client
};

/**
 * Run one hostile session against @p endpoint: connect, Open, send
 * options.headBytes of @p capture, then misbehave per @p options
 * while watching the socket for the server's reaction.  Returns as
 * soon as a typed Error arrives or the connection dies, or after
 * options.giveUpAfterMs with neither (typedError == connectionDied
 * == false — what a default-configured, defenseless server does).
 */
HostileOutcome runHostileSession(const Endpoint &endpoint,
                                 const uint8_t *capture,
                                 std::size_t bytes,
                                 const StallOptions &options);

} // namespace emprof::serve

#endif // EMPROF_SERVE_CHAOS_HPP
