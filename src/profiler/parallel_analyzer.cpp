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
 * clamped to the hardware concurrency.  The per-chunk scan is purely
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
recordParallelGauges(std::size_t workers, std::size_t chunk,
                     std::size_t num_chunks)
{
    if (!obs::MetricsRegistry::enabled())
        return;
    auto &registry = obs::MetricsRegistry::instance();
    registry.gauge("parallel.workers_effective")
        .set(static_cast<int64_t>(workers));
    registry.gauge("parallel.chunk_samples_effective")
        .set(static_cast<int64_t>(chunk));
    registry.gauge("parallel.chunks")
        .set(static_cast<int64_t>(num_chunks));
    registry.gauge("parallel.batch_kernel")
        .set(batchPipelineActive() ? 1 : 0);
}

/**
 * Sequential tail shared by both parallel paths: feed the pool-ordered
 * chunk results through the incremental stitcher (see stitch.hpp),
 * with the event list sized once up front, then quarantine / report.
 * The serving path drives the same ChunkStitcher one chunk at a time as
 * uploads arrive.
 */
ProfileResult
finalizeChunks(const std::vector<ChunkResult> &chunks,
               const EmProfConfig &config, uint64_t total_samples)
{
    EMPROF_OBS_STAGE("analyze.stitch");
    ChunkStitcher stitcher(config);
    std::size_t events = 0;
    for (const auto &chunk : chunks)
        events += chunk.events.size() + 1;
    stitcher.reserveEvents(events);
    for (const auto &chunk : chunks)
        stitcher.feed(chunk);
    return stitcher.finalize(total_samples);
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

} // namespace

ParallelAnalyzer::ParallelAnalyzer(ParallelAnalyzerConfig config)
    : config_(config)
{}

ProfileResult
ParallelAnalyzer::analyze(const dsp::TimeSeries &magnitude,
                          EmProfConfig config) const
{
    if (magnitude.sampleRateHz > 0.0)
        config.sampleRateHz = magnitude.sampleRateHz;

    const std::size_t n = magnitude.samples.size();
    const std::size_t workers = effectiveWorkers(config_.threads);

    std::size_t chunk = config_.chunkSamples;
    if (chunk == 0) {
        // Automatic decomposition.  The chunked path only pays off when
        // there is either real parallelism or the batch kernel; tiny
        // inputs and scalar single-worker runs degrade to streaming.
        if (n < config_.minParallelSamples ||
            (workers <= 1 && !batchPipelineActive()))
            return EmProf::analyze(magnitude, config);
        // One span per worker: static partitioning, no queue
        // contention.  The floor of eight normalisation windows keeps
        // the halo re-feed (one window per chunk) under ~12% of each
        // chunk's work.
        chunk = std::max<std::size_t>(8 * config.normWindowSamples(),
                                      (n + workers - 1) / workers);
    }
    chunk = std::max<std::size_t>(chunk, 1);

    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    if (num_chunks == 0)
        return EmProf::analyze(magnitude, config);
    recordParallelGauges(workers, chunk, num_chunks);

    EMPROF_OBS_STAGE("analyze.parallel");
    std::vector<ChunkResult> results(num_chunks);
    const auto &samples = magnitude.samples;
    const bool fast = config_.fastMathSimd;
    // Explicitly-sized chunks still go through the chunk + stitch
    // machinery on one worker (results are identical; tests rely on
    // exercising the stitcher regardless of core count) — just without
    // spinning up a pool.
    runTasks(workers, num_chunks, [&, chunk, n](std::size_t c) {
        const uint64_t begin = static_cast<uint64_t>(c) * chunk;
        const uint64_t end = std::min<uint64_t>(begin + chunk, n);
        results[c] = analyzeChunkAuto(samples.data(), 0, begin, end,
                                      c + 1 == num_chunks, config, fast);
    });

    return finalizeChunks(results, config, n);
}

bool
ParallelAnalyzer::analyzeCapture(const store::CaptureReader &reader,
                                 EmProfConfig config, ProfileResult &out,
                                 std::string *error) const
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

    const std::size_t workers = effectiveWorkers(config_.threads);

    // Short inputs: decode once, run the streaming path — the same
    // fallback rule (and therefore the same result) as analyze().
    const auto streaming = [&]() {
        dsp::TimeSeries series;
        if (!reader.readAll(series, error))
            return false;
        out = EmProf::analyze(series, config);
        return true;
    };

    if (config_.chunkSamples == 0 &&
        (n < config_.minParallelSamples ||
         (workers <= 1 && !batchPipelineActive())))
        return streaming();
    const std::size_t span =
        config_.chunkSamples != 0
            ? config_.chunkSamples
            : SpanWindow::defaultSpanSamples(config);

    // One range of whole stored chunks per worker (static
    // partitioning: no queue, no stored chunk decoded twice except as
    // a neighbour's halo), floored at one span so no range spends
    // more on its halo than on its own samples.
    struct Range
    {
        std::size_t firstChunk;
        std::size_t endChunk;
        uint64_t begin;
    };
    std::vector<Range> ranges;
    const uint64_t target =
        std::max<uint64_t>(span, (n + workers - 1) / workers);
    uint64_t next_begin = 0;
    std::size_t next_chunk = 0;
    for (std::size_t c = 0; c < reader.chunkCount(); ++c) {
        const auto &entry = reader.chunk(c);
        const uint64_t end = entry.firstSample + entry.sampleCount;
        if (end - next_begin >= target || c + 1 == reader.chunkCount()) {
            ranges.push_back({next_chunk, c + 1, next_begin});
            next_begin = end;
            next_chunk = c + 1;
        }
    }
    if (ranges.empty())
        return streaming();
    recordParallelGauges(workers, span, ranges.size());

    EMPROF_OBS_STAGE("analyze.parallel");
    std::vector<std::vector<ChunkResult>> spans(ranges.size());
    std::atomic<bool> ok{true};
    std::mutex error_mutex;
    std::string first_error;
    const bool fast = config_.fastMathSimd;
    // Each worker streams its range through its own SpanWindow:
    // the halo, then every stored chunk decoded straight into the
    // window, each full span analysed while it is still in cache.
    // Working memory is halo + span + one stored chunk per worker.
    runTasks(workers, ranges.size(), [&](std::size_t t) {
        const Range &range = ranges[t];
        SpanWindow window(config, span, range.begin, fast);
        std::size_t largest = 0;
        for (std::size_t c = range.firstChunk; c < range.endChunk; ++c)
            largest = std::max<std::size_t>(largest,
                                            reader.chunk(c).sampleCount);
        window.reserveForChunks(largest);

        std::vector<uint8_t> stored;
        std::vector<dsp::Sample> scratch;
        std::string chunk_error;
        bool good = true;
        for (std::size_t c = reader.chunkContaining(window.end());
             good && c < range.endChunk; ++c) {
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

    // Stitch in range order.
    std::vector<ChunkResult> results;
    for (auto &range_spans : spans)
        for (auto &r : range_spans)
            results.push_back(std::move(r));
    out = finalizeChunks(results, config, n);
    return true;
}

ProfileResult
analyzeParallel(const dsp::TimeSeries &magnitude, EmProfConfig config,
                ParallelAnalyzerConfig parallel)
{
    return ParallelAnalyzer(parallel).analyze(magnitude, config);
}

bool
analyzeCaptureParallel(const store::CaptureReader &reader,
                       EmProfConfig config, ProfileResult &out,
                       ParallelAnalyzerConfig parallel,
                       std::string *error)
{
    return ParallelAnalyzer(parallel).analyzeCapture(reader, config,
                                                     out, error);
}

ProfileResult
EmProf::analyzeParallel(const dsp::TimeSeries &magnitude,
                        EmProfConfig config, std::size_t threads)
{
    ParallelAnalyzerConfig parallel;
    parallel.threads = threads;
    return profiler::analyzeParallel(magnitude, config, parallel);
}

} // namespace emprof::profiler
