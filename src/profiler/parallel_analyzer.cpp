#include "profiler/parallel_analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/report.hpp"
#include "profiler/span_window.hpp"
#include "profiler/stitch.hpp"
#include "store/capture_reader.hpp"

namespace emprof::profiler {

namespace {

/**
 * Worker count actually used: the requested count (0 = all cores)
 * clamped to the hardware concurrency.  The per-span scan is purely
 * CPU-bound, so oversubscription only adds scheduling contention;
 * requests beyond the core count degrade gracefully to it.
 */
std::size_t
effectiveWorkers(std::size_t requested)
{
    const std::size_t hw = common::ThreadPool::hardwareThreads();
    const std::size_t want = requested == 0 ? hw : requested;
    return std::max<std::size_t>(1, std::min(want, hw));
}

/** Expose the effective parallel decomposition as gauges. */
void
recordParallelGauges(std::size_t workers, std::size_t span,
                     std::size_t ranges)
{
    if (!obs::MetricsRegistry::enabled())
        return;
    auto &registry = obs::MetricsRegistry::instance();
    registry.gauge("parallel.workers_effective")
        .set(static_cast<int64_t>(workers));
    registry.gauge("parallel.chunk_samples_effective")
        .set(static_cast<int64_t>(span));
    registry.gauge("parallel.chunks")
        .set(static_cast<int64_t>(ranges));
    registry.gauge("parallel.batch_kernel")
        .set(batchPipelineActive() ? 1 : 0);
}

/**
 * The one decomposition: one contiguous range of [0, n) per effective
 * worker, each of at least one span (so no range spends more on its
 * halo than on its own samples) and ending at the first cut at or past
 * its target; @p cutAt(x) returns the first permitted range end >= x.
 */
struct Range
{
    uint64_t begin;
    uint64_t end;
};

template <class CutAt>
std::vector<Range>
planRanges(uint64_t n, std::size_t workers, std::size_t span,
           const CutAt &cutAt)
{
    const uint64_t target =
        std::max<uint64_t>(span, (n + workers - 1) / workers);
    std::vector<Range> ranges;
    for (uint64_t begin = 0; begin < n;) {
        const uint64_t end = cutAt(std::min(n, begin + target));
        ranges.push_back({begin, end});
        begin = end;
    }
    return ranges;
}

/** Run @p run(0..count) on up to @p workers pool threads (inline on
 *  one). */
template <class Run>
void
runTasks(std::size_t workers, std::size_t count, const Run &run)
{
    if (workers <= 1 || count < 2) {
        for (std::size_t t = 0; t < count; ++t)
            run(t);
        return;
    }
    common::ThreadPool pool(std::min(workers, count));
    std::vector<std::future<void>> pending;
    pending.reserve(count);
    for (std::size_t t = 0; t < count; ++t)
        pending.push_back(pool.submit([&run, t] { run(t); }));
    for (auto &f : pending)
        f.get();
}

/**
 * Sequential tail: feed every range's span results, in range order,
 * through the incremental stitcher (see stitch.hpp), with the event
 * list sized once up front, then quarantine / report.  Each span's
 * event list goes back to the pool once fed.  The serving path drives
 * the same ChunkStitcher one span at a time as uploads arrive.
 */
ProfileResult
finalizeChunks(std::vector<std::vector<ChunkResult>> &ranges,
               const EmProfConfig &config, uint64_t total_samples)
{
    EMPROF_OBS_STAGE("analyze.stitch");
    ChunkStitcher stitcher(config);
    std::size_t events = 0;
    for (const auto &spans : ranges)
        for (const auto &span : spans)
            events += span.events.size() + 1;
    stitcher.reserveEvents(events);
    for (auto &spans : ranges)
        for (auto &span : spans) {
            stitcher.feed(span);
            EventListPool::shared().give(std::move(span.events));
        }
    return stitcher.finalize(total_samples);
}

std::size_t
spanSamples(const ParallelAnalyzerConfig &parallel,
            const EmProfConfig &config)
{
    return parallel.chunkSamples != 0
               ? parallel.chunkSamples
               : SpanWindow::defaultSpanSamples(config);
}

} // namespace

ProfileResult
analyzeParallel(const dsp::TimeSeries &magnitude, EmProfConfig config,
                ParallelAnalyzerConfig parallel)
{
    if (magnitude.sampleRateHz > 0.0)
        config.sampleRateHz = magnitude.sampleRateHz;
    const uint64_t n = magnitude.samples.size();
    const std::size_t workers = effectiveWorkers(parallel.threads);
    const std::size_t span = spanSamples(parallel, config);
    const auto ranges =
        planRanges(n, workers, span, [](uint64_t x) { return x; });
    recordParallelGauges(workers, span, ranges.size());

    EMPROF_OBS_STAGE("analyze.parallel");
    // Each worker runs its range span by span straight off the
    // caller's buffer: the samples are already in memory.
    std::vector<std::vector<ChunkResult>> spans(ranges.size());
    const dsp::Sample *data = magnitude.samples.data();
    runTasks(workers, ranges.size(), [&](std::size_t t) {
        const Range &range = ranges[t];
        const bool last_range = t + 1 == ranges.size();
        for (uint64_t b = range.begin; b < range.end; b += span) {
            const uint64_t e = std::min<uint64_t>(b + span, range.end);
            spans[t].push_back(analyzeChunkAuto(
                data, 0, b, e, last_range && e == range.end, config));
        }
    });
    return finalizeChunks(spans, config, n);
}

bool
analyzeCaptureParallel(const store::CaptureReader &reader,
                       EmProfConfig config, ProfileResult &out,
                       ParallelAnalyzerConfig parallel, std::string *error)
{
    const store::CaptureInfo &info = reader.info();
    if (info.sampleRateHz > 0.0)
        config.sampleRateHz = info.sampleRateHz;

    std::string config_error;
    if (!config.validate(&config_error)) {
        if (error != nullptr)
            *error = "invalid profiler config: " + config_error;
        return false;
    }
    const uint64_t n = info.totalSamples;
    const std::size_t workers = effectiveWorkers(parallel.threads);
    const std::size_t span = spanSamples(parallel, config);
    // Ranges of whole stored chunks: no stored chunk is decoded twice
    // except as a neighbour's halo.
    const auto ranges = planRanges(n, workers, span, [&](uint64_t x) {
        const auto &entry = reader.chunk(reader.chunkContaining(x - 1));
        return entry.firstSample + entry.sampleCount;
    });
    recordParallelGauges(workers, span, ranges.size());

    EMPROF_OBS_STAGE("analyze.parallel");
    std::vector<std::vector<ChunkResult>> spans(ranges.size());
    std::atomic<bool> ok{true};
    std::mutex error_mutex;
    std::string first_error;
    // Each worker streams its range through its own SpanWindow:
    // the halo, then every stored chunk decoded straight into the
    // window, each full span analysed while it is still in cache.
    // Working memory is halo + span + one stored chunk per worker.
    runTasks(workers, ranges.size(), [&](std::size_t t) {
        const Range &range = ranges[t];
        const std::size_t last_chunk =
            reader.chunkContaining(range.end - 1);
        SpanWindow window(config, span, range.begin);
        std::size_t largest = 0;
        for (std::size_t c = reader.chunkContaining(range.begin);
             c <= last_chunk; ++c)
            largest = std::max<std::size_t>(largest,
                                            reader.chunk(c).sampleCount);
        window.reserveForChunks(largest, range.end);

        std::vector<uint8_t> stored;
        std::vector<dsp::Sample> scratch;
        std::string chunk_error;
        bool good = true;
        for (std::size_t c = reader.chunkContaining(window.end());
             good && c <= last_chunk; ++c) {
            if (!ok.load(std::memory_order_relaxed))
                return; // a sibling already failed
            const auto &entry = reader.chunk(c);
            if (entry.firstSample < window.end()) {
                // The one chunk that starts before the halo: decode it
                // aside and keep its tail.
                good = reader.decodeChunk(c, scratch, &chunk_error);
                if (good) {
                    const auto from = static_cast<std::ptrdiff_t>(
                        window.end() - entry.firstSample);
                    std::copy(scratch.begin() + from, scratch.end(),
                              window.extend(scratch.size() -
                                            static_cast<std::size_t>(
                                                from)));
                }
            } else {
                good = reader.decodeChunkInto(
                    c, window.extend(entry.sampleCount), stored,
                    &chunk_error);
            }
            while (good && window.spanReady())
                spans[t].push_back(window.analyzeNextSpan());
        }
        if (!good) {
            ok.store(false, std::memory_order_relaxed);
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (first_error.empty())
                first_error = chunk_error;
            return;
        }
        spans[t].push_back(window.close(t + 1 == ranges.size()));
    });
    if (!ok.load()) {
        if (error != nullptr)
            *error = first_error;
        return false;
    }
    out = finalizeChunks(spans, config, n);
    return true;
}

} // namespace emprof::profiler
