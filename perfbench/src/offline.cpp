/**
 * @file
 * offline_capture: the analyst's batch path, capture file -> Report.
 *
 * Each operation is what emprof_analyze does with an EMCAP file:
 * CaptureReader::open, analyzeCaptureParallel on the system-thread
 * budget, then the report text.  Files are analysed one after another
 * (closed loop).  A 64 Mi-sample capture decodes to 256 MiB, more than
 * the last-level cache, so the store decode and the profiler kernel do
 * nearly all the work and no serve code runs.
 *
 * The traced pass replays each file through the same decomposition
 * analyzeCapture uses (stored-chunk-aligned spans, one per worker,
 * halo re-decode) with a span around every layer call:
 * decodeChunk -> analyzeChunkAuto -> ChunkStitcher -> toText.
 */

#include <algorithm>
#include <future>
#include <memory>

#include "common/thread_pool.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/report.hpp"
#include "profiler/stitch.hpp"
#include "store/capture_reader.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using emprof::profiler::ProfileResult;

using Input = PreparedInput;

constexpr int kSetupRepeats = 3;
const char *const kTitle = kWorkloads[0].title;

double
msSince(int64_t startNs)
{
    return static_cast<double>(SpanRecorder::now() - startNs) / 1e6;
}

emprof::profiler::EmProfConfig
analysisConfig(const emprof::store::CaptureReader &reader)
{
    emprof::profiler::EmProfConfig config;
    if (reader.info().clockHz > 0.0)
        config.clockHz = reader.info().clockHz;
    if (reader.info().sampleRateHz > 0.0)
        config.sampleRateHz = reader.info().sampleRateHz;
    return config;
}

/** One untraced operation, exactly the emprof_analyze EMCAP path. */
bool
analyzeFile(const std::string &path, std::size_t threads,
            ProfileResult &result, std::string &text, std::string *error)
{
    emprof::store::CaptureReader reader;
    if (!reader.open(path, error))
        return false;
    emprof::profiler::ParallelAnalyzerConfig parallel;
    parallel.threads = threads;
    if (!emprof::profiler::analyzeCaptureParallel(
            reader, analysisConfig(reader), result, parallel, error))
        return false;
    text = result.report.toText(kTitle);
    return true;
}

/** Outcome of one file through either path. */
struct FileResult
{
    bool ok = false;
    double ms = 0;
    std::size_t events = 0;
    uint64_t digest = 0;
    std::string error;
};

bool
matches(const FileResult &r, const Reference &ref, const std::string &text,
        std::string &why)
{
    if (!r.ok)
        why = r.error;
    else if (text != ref.text)
        why = "report text differs from the reference";
    else if (r.events != ref.events || r.digest != ref.digest)
        why = "events differ from the reference (" +
              std::to_string(r.events) + " vs " +
              std::to_string(ref.events) + ")";
    else
        return true;
    return false;
}

/** Counts the traced replay accumulates alongside its spans. */
struct ReplayCounts
{
    uint64_t decodedSamples = 0;
    uint64_t spanSamples = 0;
    uint64_t haloSamples = 0;
    uint64_t events = 0;
    uint64_t samples = 0;
};

/**
 * The traced replay of one file: analyzeCapture's decomposition with
 * a span around every layer call.  Spans on pool workers carry width
 * = workers so the ledger charges their wall-time share.
 */
FileResult
replayFile(SpanRecorder &rec, uint64_t trace, const std::string &path,
           std::size_t threads, ReplayCounts &counts, std::string &text)
{
    FileResult out;
    const int64_t t0 = SpanRecorder::now();
    ScopedSpan file(rec, "offline.file", trace);
    const uint64_t fid = file.id();

    emprof::store::CaptureReader reader;
    {
        ScopedSpan s(rec, "store.open", trace, fid);
        if (!reader.open(path, &out.error))
            return out;
    }
    const auto config = analysisConfig(reader);
    const uint64_t n = reader.info().totalSamples;
    const std::size_t workers = std::max<std::size_t>(
        1, std::min(threads, emprof::common::ThreadPool::hardwareThreads()));
    const std::size_t chunk = std::max<std::size_t>(
        8 * config.normWindowSamples(), (n + workers - 1) / workers);

    struct Task
    {
        uint64_t begin;
        uint64_t end;
    };
    std::vector<Task> tasks;
    uint64_t next = 0;
    for (std::size_t c = 0; c < reader.chunkCount(); ++c) {
        const auto &entry = reader.chunk(c);
        const uint64_t end = entry.firstSample + entry.sampleCount;
        if (end - next >= chunk || c + 1 == reader.chunkCount()) {
            tasks.push_back({next, end});
            next = end;
        }
    }

    const uint64_t haloDepth = config.haloSamples();
    const uint32_t width = static_cast<uint32_t>(
        workers <= 1 || tasks.size() < 2
            ? 1
            : std::min(workers, tasks.size()));
    std::vector<emprof::profiler::ChunkResult> results(tasks.size());
    std::vector<std::string> errors(tasks.size());
    std::vector<uint64_t> decoded(tasks.size(), 0);

    const auto run = [&](std::size_t t) {
        ScopedSpan task(rec, "offline.task", trace, fid, width);
        const Task span = tasks[t];
        const uint64_t halo = std::min<uint64_t>(span.begin, haloDepth);
        const uint64_t first = span.begin - halo;
        std::vector<float> local;
        {
            // readRange's work: size the span buffer, decode each
            // covering chunk, copy the part the span needs.
            ScopedSpan rr(rec, "store.read_range", trace, task.id(),
                          width);
            local.resize(static_cast<std::size_t>(span.end - first));
            std::vector<float> scratch;
            uint64_t cursor = first;
            for (std::size_t ci = reader.chunkContaining(first);
                 cursor < span.end; ++ci) {
                const auto &entry = reader.chunk(ci);
                {
                    ScopedSpan d(rec, "store.decode", trace, rr.id(),
                                 width);
                    if (!reader.decodeChunk(ci, scratch, &errors[t]))
                        return;
                }
                decoded[t] += entry.sampleCount;
                const uint64_t lo = cursor - entry.firstSample;
                const uint64_t hi = std::min<uint64_t>(
                    entry.sampleCount, span.end - entry.firstSample);
                std::copy(scratch.begin() + static_cast<long>(lo),
                          scratch.begin() + static_cast<long>(hi),
                          local.begin() + static_cast<long>(cursor - first));
                cursor = entry.firstSample + hi;
            }
        }
        ScopedSpan an(rec, "profiler.analyze", trace, task.id(), width);
        results[t] = emprof::profiler::analyzeChunkAuto(
            local.data(), first, span.begin, span.end,
            t + 1 == tasks.size(), config);
    };

    if (width == 1) {
        for (std::size_t t = 0; t < tasks.size(); ++t)
            run(t);
    } else {
        std::unique_ptr<emprof::common::ThreadPool> pool;
        {
            ScopedSpan s(rec, "common.pool_spawn", trace, fid);
            pool = std::make_unique<emprof::common::ThreadPool>(width);
        }
        {
            ScopedSpan par(rec, "offline.parallel", trace, fid);
            std::vector<std::future<void>> pending;
            for (std::size_t t = 0; t < tasks.size(); ++t) {
                const int64_t submitted = SpanRecorder::now();
                pending.push_back(pool->submit([&, t, submitted] {
                    rec.add("common.pool_wait", trace, fid, submitted,
                            SpanRecorder::now(), width);
                    run(t);
                }));
            }
            for (auto &f : pending)
                f.get();
        }
        ScopedSpan s(rec, "common.pool_join", trace, fid);
        pool.reset();
    }
    for (const auto &e : errors) {
        if (!e.empty()) {
            out.error = e;
            return out;
        }
    }

    ProfileResult result;
    {
        ScopedSpan s(rec, "profiler.stitch", trace, fid);
        emprof::profiler::ChunkStitcher stitcher(config);
        for (const auto &r : results)
            stitcher.feed(r);
        result = stitcher.finalize(n);
    }
    {
        ScopedSpan s(rec, "profiler.report_text", trace, fid);
        text = result.report.toText(kTitle);
    }
    file.end();
    out.ms = msSince(t0);
    out.ok = true;
    out.events = result.events.size();
    out.digest = eventsDigest(result.events);

    for (std::size_t t = 0; t < tasks.size(); ++t) {
        counts.decodedSamples += decoded[t];
        counts.spanSamples += tasks[t].end - tasks[t].begin;
        counts.haloSamples +=
            std::min<uint64_t>(tasks[t].begin, haloDepth);
    }
    counts.events += result.events.size();
    counts.samples += n;
    return out;
}

/** What the closed loop of untraced operations measured. */
struct LoopStats
{
    std::vector<double> ms;
    std::vector<double> rssMib; ///< per-operation peak
    uint64_t okSamples = 0;
    double wallS = 0;
    std::vector<uint64_t> digestByFile;
};

FileResult
runOne(const Input &in, std::size_t threads, RunResult &result)
{
    FileResult r;
    ProfileResult analysis;
    std::string text;
    const int64_t t0 = SpanRecorder::now();
    r.ok = analyzeFile(in.path, threads, analysis, text, &r.error);
    r.ms = msSince(t0);
    r.events = analysis.events.size();
    r.digest = eventsDigest(analysis.events);
    ++result.attempted;
    std::string why;
    if (!matches(r, in.ref, text, why)) {
        r.ok = false;
        result.fail(in.path + ": " + why);
    }
    return r;
}

LoopStats
untracedLoop(const std::vector<Input> &inputs, std::size_t threads,
             double seconds, RunResult &result)
{
    LoopStats loop;
    loop.digestByFile.assign(inputs.size(), 0);
    const int64_t t0 = SpanRecorder::now();
    const int64_t until = t0 + static_cast<int64_t>(seconds * 1e9);
    for (std::size_t i = 0; i == 0 || SpanRecorder::now() < until; ++i) {
        const Input &in = inputs[i % inputs.size()];
        resetPeakRss();
        const FileResult r = runOne(in, threads, result);
        loop.rssMib.push_back(peakRssMib());
        loop.ms.push_back(r.ms);
        if (r.ok) {
            loop.okSamples += in.capture.samples;
            loop.digestByFile[i % inputs.size()] = r.digest;
        }
    }
    loop.wallS = static_cast<double>(SpanRecorder::now() - t0) / 1e9;
    return loop;
}

} // namespace

RunResult
runOffline(const RunOptions &options, const InputSet &set)
{
    RunResult result;
    const std::size_t threads = options.systemThreads;
    const std::vector<Input> &inputs = set.inputs;

    if (!options.trace) {
        // Set-up: the system's first operations from cold, repeated;
        // the median is reported.
        resetPeakRss();
        std::vector<double> setup;
        for (int k = 0; k < kSetupRepeats; ++k) {
            const int64_t t0 = SpanRecorder::now();
            runOne(inputs[0], threads, result);
            setup.push_back(msSince(t0) / 1e3);
        }
        result.add("setup_s", percentile(setup, 0.5), "s", setup.size());

        const LoopStats loop =
            untracedLoop(inputs, threads, options.seconds, result);
        result.add("analyze_msamples_per_s",
                   static_cast<double>(loop.okSamples) / loop.wallS / 1e6,
                   "Msamples/s", loop.ms.size());
        addLatencyMetrics(result, loop.ms);
        result.add("peak_rss_mib", percentile(loop.rssMib, 0.5), "MiB",
                   loop.rssMib.size());
        result.meta["operations"] = std::to_string(loop.ms.size());
        return result;
    }

    // Traced run: an untraced half for the overhead baseline, then the
    // replay half, on the same inputs.
    runOne(inputs[0], threads, result); // warm-up, as in the untraced run
    const LoopStats plain =
        untracedLoop(inputs, threads, options.seconds / 2, result);

    SpanRecorder rec;
    ReplayCounts counts;
    std::vector<double> tracedMs;
    const int64_t until =
        SpanRecorder::now() + static_cast<int64_t>(options.seconds / 2 * 1e9);
    for (std::size_t i = 0; i == 0 || SpanRecorder::now() < until; ++i) {
        const std::size_t f = i % inputs.size();
        std::string text, why;
        const FileResult r =
            replayFile(rec, i, inputs[f].path, threads, counts, text);
        ++result.attempted;
        tracedMs.push_back(r.ms);
        if (!matches(r, inputs[f].ref, text, why))
            result.fail(inputs[f].path + " (replay): " + why);
        else if (plain.digestByFile[f] != 0 &&
                 plain.digestByFile[f] != r.digest)
            result.fail(inputs[f].path +
                        " (replay): events differ from the untraced run");
    }

    const std::vector<Span> spans = rec.spans();
    const std::vector<int64_t> self = selfTimes(spans);
    Ledger ledger;
    std::map<std::string, std::vector<double>> durMs;
    double parallelNs = 0, taskNs = 0;
    uint32_t width = 1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string name = s.name;
        durMs[name].push_back(static_cast<double>(s.duration()) / 1e6);
        if (name == "offline.file")
            ledger.endToEndNs += static_cast<double>(s.duration());
        else if (name == "offline.parallel")
            parallelNs += static_cast<double>(s.duration());
        else if (name == "offline.task") {
            taskNs += static_cast<double>(s.duration());
            width = std::max(width, s.width);
        }
    }
    ledger.callNs =
        layerSelfNs(spans, self, [](const Span &) { return true; });
    const auto total = [&](const char *name) {
        return sum(durMs[name]) * 1e6;
    };
    const auto perSample = [](double x, uint64_t samples) {
        return ratio(x, static_cast<double>(samples));
    };

    const std::size_t files = tracedMs.size();
    result.add("store.open_ms", mean(durMs["store.open"]), "ms", files);
    result.add("store.decode_ns_per_sample",
               perSample(total("store.decode"), counts.decodedSamples),
               "ns", durMs["store.decode"].size());
    result.add("store.bytes_per_sample",
               static_cast<double>(set.encodedBytes) /
                   static_cast<double>(inputs.size() *
                                       inputs[0].capture.samples),
               "B", inputs.size());
    result.add("profiler.analyze_ns_per_sample",
               perSample(total("profiler.analyze"), counts.spanSamples),
               "ns", durMs["profiler.analyze"].size());
    result.add("profiler.analyze_ms_per_call",
               mean(durMs["profiler.analyze"]), "ms",
               durMs["profiler.analyze"].size());
    result.add("profiler.stitch_ms", mean(durMs["profiler.stitch"]), "ms",
               files);
    result.add("profiler.halo_fraction",
               perSample(static_cast<double>(counts.haloSamples),
                         counts.spanSamples),
               "ratio", files);
    result.add("profiler.report_text_ms",
               mean(durMs["profiler.report_text"]), "ms", files);
    result.add("profiler.events_per_msample",
               perSample(static_cast<double>(counts.events) * 1e6,
                         counts.samples),
               "count", files);
    result.add("common.pool_wait_ms", mean(durMs["common.pool_wait"]),
               "ms", durMs["common.pool_wait"].size());
    result.add("common.worker_busy_fraction",
               ratio(taskNs, parallelNs * width),
               "ratio", durMs["offline.task"].size());
    result.add("trace.overhead_fraction",
               mean(tracedMs) / mean(plain.ms) - 1.0, "ratio",
               tracedMs.size());
    result.meta["operations"] = "{\"untraced\":" +
                                std::to_string(plain.ms.size()) +
                                ",\"traced\":" + std::to_string(files) + "}";
    attachTrace(result, options, ledger, spans);
    return result;
}

} // namespace perfbench
