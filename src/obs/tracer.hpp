/**
 * @file
 * Scoped-span tracer with Chrome trace_event export.
 *
 * Spans answer the question metrics cannot: not just "how long do
 * chunk analyses take on average" but "what did thread 3 do between
 * opening the capture and the stitch pass".  Each SpanScope records a
 * monotonic-clock interval with its enclosing span as parent (tracked
 * per thread, so nesting works across the analyzer's worker pool), and
 * the whole buffer exports as Chrome `trace_event` JSON — loadable in
 * chrome://tracing or Perfetto with per-thread swimlanes.
 *
 * Same overhead contract as the metrics registry: disabled (default),
 * a SpanScope costs one relaxed atomic load; enabled, it is two clock
 * reads plus one short mutex-protected append into a bounded ring
 * buffer (spans are per-stage/per-chunk, never per-sample, so the lock
 * is uncontended in practice and cheap at the frequencies involved —
 * the ring overwrites its oldest record once full, keeping memory
 * bounded on arbitrarily long runs).
 *
 * Span names and categories must be string literals (or otherwise
 * outlive the tracer): records store the pointers, not copies, which
 * keeps recording allocation-free.
 */

#ifndef EMPROF_OBS_TRACER_HPP
#define EMPROF_OBS_TRACER_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace emprof::obs {

/** One completed span. */
struct SpanRecord
{
    const char *name = "";
    const char *category = "";
    uint64_t startNs = 0; ///< monotonic, relative to tracer epoch
    uint64_t durationNs = 0;
    uint64_t id = 0;     ///< unique per span, 1-based
    uint64_t parent = 0; ///< enclosing span's id, 0 at top level
    uint32_t tid = 0;    ///< small dense thread number, 1-based
};

class Tracer
{
  public:
    static Tracer &instance();

    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    static void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Monotonic nanoseconds since the tracer's first use. */
    static uint64_t nowNs();

    /** Append one completed span (oldest is dropped when full). */
    void record(const SpanRecord &span);

    /** Completed spans, oldest first. */
    std::vector<SpanRecord> snapshot() const;

    /** Spans overwritten because the ring was full. */
    uint64_t droppedSpans() const;

    /** Ring capacity in spans. */
    std::size_t capacity() const;

    /** Shrink/grow the ring and clear it.  Test-only. */
    void resetForTest(std::size_t capacity = kDefaultCapacity);

    /** Dense 1-based id for the calling thread. */
    static uint32_t currentThreadNumber();

    static constexpr std::size_t kDefaultCapacity = 1u << 15;

  private:
    Tracer() = default;

    friend class SpanScope;

    /** Set the calling thread's open-span id, returning the old one. */
    static uint64_t exchangeCurrentSpan(uint64_t id);

    static std::atomic<bool> enabled_;

    std::atomic<uint64_t> nextId_{1};

    mutable std::mutex mutex_;
    std::vector<SpanRecord> ring_;
    std::size_t capacity_ = kDefaultCapacity;
    uint64_t total_ = 0; ///< spans ever recorded
};

/**
 * RAII span: records [construction, destruction) under @p name.
 * @p name and @p category must outlive the tracer (string literals).
 */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, const char *category = "stage");
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    bool active() const { return active_; }

  private:
    bool active_ = false;
    const char *name_ = "";
    const char *category_ = "";
    uint64_t startNs_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
};

} // namespace emprof::obs

#endif // EMPROF_OBS_TRACER_HPP
