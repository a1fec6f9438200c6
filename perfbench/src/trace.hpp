/**
 * @file
 * The benchmark's own span recorder, self-time arithmetic and ledger.
 *
 * Deliberately independent of src/obs: a change to the program's
 * tracer must not change the instrument that measures it.  Spans are
 * recorded from the benchmark's code around calls into each layer,
 * kept in memory (one lane per thread, so recording takes no lock),
 * and written out as Chrome trace_event JSON when the run ends.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = nullptr; ///< static string: "<module>.<call>"
    uint64_t id = 0;            ///< unique, never 0
    uint64_t parent = 0;        ///< 0 for a root span
    uint64_t trace = 0;         ///< session ordinal / file index
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t lane = 0; ///< recording thread
    /** Threads the surrounding work is spread over; the ledger divides
     *  a span's self time by it to get its share of wall time. */
    uint32_t width = 1;

    int64_t duration() const { return endNs - startNs; }
};

class SpanRecorder
{
  public:
    /** Spans past @p maxSpans are counted as dropped, not stored. */
    explicit SpanRecorder(std::size_t maxSpans = std::size_t{1} << 20);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Steady-clock nanoseconds. */
    static int64_t now();

    /** Start a span on the calling thread's lane; returns its id
     *  (0 when the recorder is full). */
    uint64_t open(const char *name, uint64_t trace, uint64_t parent,
                  uint32_t width = 1);

    /** End span @p id; must run on the thread that opened it. */
    void close(uint64_t id);

    /** Record a span whose bounds were taken elsewhere (a queue wait
     *  measured from submit to start) on the calling thread's lane. */
    uint64_t add(const char *name, uint64_t trace, uint64_t parent,
                 int64_t startNs, int64_t endNs, uint32_t width = 1);

    /** Every closed span; call once the recording threads are idle. */
    std::vector<Span> spans() const;

    std::size_t dropped() const { return dropped_.load(); }

  private:
    struct Lane
    {
        uint32_t index = 0;
        std::vector<Span> spans;
    };

    Lane &lane();
    Span *reserve(Lane &lane);

    const uint64_t serial_;
    const std::size_t maxSpans_;
    std::atomic<std::size_t> used_{0};
    std::atomic<std::size_t> dropped_{0};
    mutable std::mutex lanesMutex_;
    std::vector<std::unique_ptr<Lane>> lanes_;
};

/** RAII span on the calling thread's lane. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name, uint64_t trace,
               uint64_t parent = 0, uint32_t width = 1)
        : recorder_(recorder),
          id_(recorder.open(name, trace, parent, width))
    {
    }

    ~ScopedSpan() { end(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** 0 when the recorder was full. */
    uint64_t id() const { return id_; }

    void
    end()
    {
        if (id_ != 0)
            recorder_.close(id_);
        id_ = 0;
    }

  private:
    SpanRecorder &recorder_;
    uint64_t id_;
};

/**
 * Self time of every span: its duration minus the part of it that
 * its children on the same lane cover.  Children on other lanes run
 * in parallel with their parent and are not subtracted.
 */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

/** Module of a span name: the text before the first '.'. */
std::string moduleOf(const char *name);

/** The program's layers the ledger attributes time to. */
bool isLayer(const std::string &module);

/**
 * Per-call cost: sum over spans accepted by @p include of
 * self / width, keyed by span name, restricted to layer modules.
 */
std::map<std::string, double>
layerSelfNs(const std::vector<Span> &spans,
            const std::vector<int64_t> &self,
            const std::function<bool(const Span &)> &include);

/** Where one workload's end-to-end time goes. */
struct Ledger
{
    double endToEndNs = 0;
    std::map<std::string, double> callNs; ///< by span name

    /** Per-module totals (store, profiler, serve, common). */
    std::map<std::string, double> moduleNs() const;

    /** 1 - sum of module shares: time no layer call accounts for. */
    double residualFraction() const;

    /** Module with the largest share ("" when empty). */
    std::string costliestModule() const;

    /** Human-readable table, one line per call and per module. */
    std::string toText(const std::string &workload) const;
};

/** Write @p spans as Chrome trace_event JSON (complete events). */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      std::string *error);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
