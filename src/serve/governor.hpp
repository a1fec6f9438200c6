/**
 * @file
 * Admission control and load shedding for the ingest service.
 *
 * The server's resources are bounded — session slots, buffered queue
 * bytes, parked pipelines, pool queue depth, and file descriptors —
 * but nothing ties them together: before this layer, the only
 * admission decision was the binary maxSessions check, so a fleet
 * reconnecting after an outage would be told Busy (try immediately)
 * and hammer the listener in lockstep.
 *
 * The LoadGovernor turns the resource picture into a three-level
 * classification evaluated once per poll tick:
 *
 *   Normal   below every soft watermark; admit everything.
 *   Soft     some soft watermark crossed; fresh Opens are answered
 *            with a typed RetryAfter carrying a backoff hint sized to
 *            the overload severity (the deeper past the watermark,
 *            the longer the hint).  Resumes are still admitted — they
 *            free a parked slot and let shed sessions finish.
 *   Hard     a hard watermark crossed (or the fd budget breached);
 *            in addition to RetryAfter on fresh Opens the server
 *            sheds established sessions, most-stalled first, until
 *            back under the hard line.
 *
 * All watermarks default to 0 = disabled, so a default-configured
 * server behaves bit-for-bit as before (the `--resilient` precedent).
 * The governor is plain arithmetic over a snapshot — no locks, no
 * clock, no RNG (the *client* jitters the hint) — so it is trivially
 * unit-testable and safe to call from the I/O thread every tick.
 */

#ifndef EMPROF_SERVE_GOVERNOR_HPP
#define EMPROF_SERVE_GOVERNOR_HPP

#include <cstddef>
#include <cstdint>

namespace emprof::serve {

/** Watermark configuration; every 0 disables that check. */
struct LoadWatermarks
{
    /** Aggregate buffered session bytes (sum of per-session parse
     *  queues).  Soft: back off fresh Opens.  Hard: shed. */
    uint64_t softQueueBytes = 0;
    uint64_t hardQueueBytes = 0;

    /** Active (accepted, not closed) sessions. */
    uint64_t softSessions = 0;
    uint64_t hardSessions = 0;

    /** Open connections the process may hold before accepts are
     *  answered RetryAfter (a crude fd budget; breaching it is a
     *  Hard condition because EMFILE takes the listener down). */
    uint64_t fdBudget = 0;

    /** RetryAfter hint range: base at the soft line, max at/beyond
     *  2x the most-exceeded watermark. */
    uint32_t retryAfterBaseMs = 250;
    uint32_t retryAfterMaxMs = 10000;

    bool
    anyEnabled() const
    {
        return softQueueBytes != 0 || hardQueueBytes != 0 ||
               softSessions != 0 || hardSessions != 0 || fdBudget != 0;
    }
};

/** One tick's resource picture, gathered by the I/O thread. */
struct LoadSnapshot
{
    uint64_t queueBytes = 0;     ///< aggregate buffered session bytes
    uint64_t activeSessions = 0; ///< accepted, not yet closed
    uint64_t connections = 0;    ///< fds: sessions + listeners + pipe
    uint64_t parked = 0;         ///< parked resumable pipelines
};

class LoadGovernor
{
  public:
    enum class Level : uint8_t
    {
        Normal = 0,
        Soft = 1,
        Hard = 2,
    };

    LoadGovernor() = default;
    explicit LoadGovernor(const LoadWatermarks &marks) : marks_(marks) {}

    void configure(const LoadWatermarks &marks) { marks_ = marks; }
    const LoadWatermarks &watermarks() const { return marks_; }

    /** Classify @p snap against the watermarks. */
    Level classify(const LoadSnapshot &snap) const;

    /**
     * Server-suggested backoff for a rejected Open, in milliseconds.
     * Scales linearly from retryAfterBaseMs at the soft line to
     * retryAfterMaxMs at 2x the most-exceeded watermark; deterministic
     * (the client adds jitter).  Returns retryAfterBaseMs when called
     * below every soft line (callers only ask at Soft or worse).
     */
    uint32_t suggestedBackoffMs(const LoadSnapshot &snap) const;

    /**
     * How many established sessions a Hard tick should shed to get
     * the session count back under the hard line.  Queue-byte
     * overload sheds one per tick (each shed frees an unknown number
     * of bytes, so the loop re-evaluates next tick).  0 below Hard.
     */
    uint64_t shedTarget(const LoadSnapshot &snap) const;

  private:
    /** Largest (value / watermark) overload ratio; 1.0 = at a line. */
    double softExcessRatio(const LoadSnapshot &snap) const;

    LoadWatermarks marks_;
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_GOVERNOR_HPP
