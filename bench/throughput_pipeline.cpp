/**
 * @file
 * End-to-end analysis throughput: streaming vs. parallel analyze, and
 * the offline EMCAP path.
 *
 * Synthesises a 40 MHz capture (default 64 Mi samples, dips every few
 * microseconds like a memory-bound workload), then measures wall-clock
 * samples/s for three modes:
 *
 *  - `streaming`: EmProf::analyze on the in-memory series;
 *  - `parallel`: in-memory ParallelAnalyzer::analyze at 1/2/4/8
 *    threads (the batch kernel times the workers);
 *  - `emcap`: the same series written once through CaptureWriter's
 *    default codec to a temporary file, then CaptureReader::open +
 *    analyzeCaptureParallel at 1/2/4/8 threads — what emprof_analyze
 *    does with an EMCAP file (decode, per-worker span windows, stitch,
 *    report).
 *
 * Every run must produce the same number of events.  Each mode gets an
 * untimed warm-up pass (an eighth of the capture) and the best of N
 * timed runs; the JSON also records the run-to-run variance
 * ((worst - best) / best), the minor page faults per timed run
 * (getrusage, whole process) and a per-stage time breakdown, so a
 * regression can be attributed to decode vs. normalise vs. detect vs.
 * stitch without rerunning under a profiler.  The timed runs execute
 * with the metrics registry *disabled* (the numbers measure the
 * pipeline, not its instrumentation); the stage breakdown comes from
 * one extra untimed instrumented pass per mode.  Results go to stdout
 * and, as machine-readable JSON, to a file (default
 * BENCH_pipeline.json) so the perf trajectory can be tracked across
 * PRs — see tools/bench_pipeline.sh.  The temporary captures
 * (bench_pipeline_*.emcap in the working directory) are deleted
 * before exit.
 *
 *   throughput_pipeline [--samples N] [--runs N] [--json PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/thread_pool.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "obs/metrics.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;

namespace {

dsp::TimeSeries
syntheticCapture(std::size_t total)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(0xca97);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    // Miss-like dips (8-14 samples ~ 200-350 ns) every ~2 us, with an
    // occasional refresh-length stall, roughly Fig. 4's phenomenology.
    std::size_t pos = 1000;
    while (pos + 120 < total) {
        const std::size_t len =
            rng.chance(0.01) ? 100 : 8 + rng.below(7);
        for (std::size_t i = pos; i < pos + len; ++i)
            s.samples[i] = 0.2f;
        pos += len + 40 + rng.below(120);
    }
    return s;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

uint64_t
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_minflt);
}

struct Measurement
{
    std::string mode;    // streaming | parallel | emcap
    std::size_t threads; // 0 = streaming
    double bestSec;
    double variance; // (worst - best) / best over the timed runs
    double samplesPerSec;
    std::size_t events;
    uint64_t minorFaults; // mean over the timed runs
    std::map<std::string, uint64_t> stageNs;
};

/** Stage histograms scraped since the last resetValues(), as total ns
 *  per stage (the `stage.` prefix and `.ns` suffix stripped). */
std::map<std::string, uint64_t>
scrapeStages()
{
    std::map<std::string, uint64_t> out;
    const auto snap = obs::MetricsRegistry::instance().scrape();
    for (const auto &[name, hist] : snap.histograms) {
        constexpr const char *prefix = "stage.";
        constexpr const char *suffix = ".ns";
        if (name.rfind(prefix, 0) != 0 || hist.sum == 0)
            continue;
        std::string stage = name.substr(std::strlen(prefix));
        if (stage.size() > 3 &&
            stage.compare(stage.size() - 3, 3, suffix) == 0)
            stage.resize(stage.size() - 3);
        out[stage] = hist.sum;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t total = std::size_t{1} << 26; // 64 Mi samples
    std::size_t timed_runs = 3;
    std::string json_path = "BENCH_pipeline.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--samples") && i + 1 < argc)
            total = static_cast<std::size_t>(std::atoll(argv[++i]));
        else if (!std::strcmp(argv[i], "--runs") && i + 1 < argc)
            timed_runs = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::atoll(argv[++i])));
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::fprintf(
                stderr,
                "usage: %s [--samples N] [--runs N] [--json PATH]\n",
                argv[0]);
            return 2;
        }
    }

    std::printf("synthesising %zu-sample capture...\n", total);
    const auto sig = syntheticCapture(total);
    // Warm-up input: an eighth of the capture, enough to fault in the
    // code paths and branch predictors without doubling the runtime.
    dsp::TimeSeries warm;
    warm.sampleRateHz = sig.sampleRateHz;
    warm.samples.assign(sig.samples.begin(),
                        sig.samples.begin() +
                            static_cast<std::ptrdiff_t>(total / 8));

    profiler::EmProfConfig config;
    config.clockHz = 1e9;

    std::vector<Measurement> runs;
    std::size_t ref_events = 0;
    bool consistent = true;

    // One mode = warm-up + N metrics-free timed runs (best-of) + one
    // instrumented pass for the stage breakdown.  fn(true) analyses the
    // warm-up input, fn(false) the full capture; nullopt means the
    // analysis failed.
    using Result = std::optional<profiler::ProfileResult>;
    const auto measure = [&](const char *mode, std::size_t threads,
                             auto &&fn) {
        fn(true); // untimed warm-up
        obs::MetricsRegistry::setEnabled(false);
        double best = 0.0, worst = 0.0;
        std::size_t events = 0;
        uint64_t faults = 0;
        for (std::size_t r = 0; r < timed_runs; ++r) {
            const uint64_t f0 = minorFaults();
            const auto t0 = std::chrono::steady_clock::now();
            const Result result = fn(false);
            const auto t1 = std::chrono::steady_clock::now();
            faults += minorFaults() - f0;
            if (!result)
                consistent = false;
            events = result ? result->events.size() : 0;
            const double sec = seconds(t0, t1);
            if (r == 0 || sec < best)
                best = sec;
            if (r == 0 || sec > worst)
                worst = sec;
        }
        obs::MetricsRegistry::setEnabled(true);
        obs::MetricsRegistry::instance().resetValues();
        fn(false); // untimed instrumented pass
        Measurement m;
        m.mode = mode;
        m.threads = threads;
        m.bestSec = best;
        m.variance = (worst - best) / best;
        m.samplesPerSec = static_cast<double>(total) / best;
        m.events = events;
        m.minorFaults = faults / timed_runs;
        m.stageNs = scrapeStages();
        runs.push_back(std::move(m));
        if (runs.size() == 1)
            ref_events = events;
        else if (events != ref_events)
            consistent = false;
        const std::string label =
            threads == 0 ? std::string(mode)
                         : std::string(mode) + " x" +
                               std::to_string(threads);
        std::printf("%-14s: %7.3f s  %8.1f Msamples/s  %zu events  "
                    "%7llu faults  (%.2fx streaming, +-%.1f%%)\n",
                    label.c_str(), best, m.samplesPerSec / 1e6, events,
                    static_cast<unsigned long long>(m.minorFaults),
                    runs.front().bestSec / best, m.variance * 100.0);
    };

    measure("streaming", 0, [&](bool warmUp) -> Result {
        return profiler::EmProf::analyze(warmUp ? warm : sig, config);
    });
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        profiler::ParallelAnalyzerConfig pcfg;
        pcfg.threads = threads;
        measure("parallel", threads, [&, pcfg](bool warmUp) -> Result {
            return profiler::analyzeParallel(warmUp ? warm : sig, config,
                                             pcfg);
        });
    }

    // The offline EMCAP path: encode once, analyse off disk.
    const std::string capture_path = "bench_pipeline_capture.emcap";
    const std::string warm_path = "bench_pipeline_warm.emcap";
    std::string error;
    if (!store::writeCapture(capture_path, sig, store::WriterOptions{},
                             nullptr, &error) ||
        !store::writeCapture(warm_path, warm, store::WriterOptions{},
                             nullptr, &error)) {
        std::fprintf(stderr, "ERROR: cannot write capture: %s\n",
                     error.c_str());
        consistent = false;
    } else {
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            profiler::ParallelAnalyzerConfig pcfg;
            pcfg.threads = threads;
            measure("emcap", threads, [&, pcfg](bool warmUp) -> Result {
                store::CaptureReader reader;
                profiler::ProfileResult result;
                std::string why;
                if (!reader.open(warmUp ? warm_path : capture_path,
                                 &why) ||
                    !profiler::analyzeCaptureParallel(
                        reader, config, result, pcfg, &why)) {
                    std::fprintf(stderr, "ERROR: emcap x%zu: %s\n",
                                 pcfg.threads, why.c_str());
                    return std::nullopt;
                }
                return result;
            });
        }
    }
    std::remove(capture_path.c_str());
    std::remove(warm_path.c_str());
    if (!consistent)
        std::fprintf(stderr, "ERROR: event counts diverged\n");

    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"throughput_pipeline\",\n"
                 "  \"samples\": %zu,\n"
                 "  \"sample_rate_hz\": 40000000.0,\n"
                 "  \"timed_runs_per_mode\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"events\": %zu,\n"
                 "  \"consistent\": %s,\n"
                 "  \"runs\": [\n",
                 total, timed_runs, common::ThreadPool::hardwareThreads(),
                 ref_events, consistent ? "true" : "false");
    const double stream_best = runs.front().bestSec;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i];
        std::fprintf(
            f,
            "    {\"mode\": \"%s\", \"threads\": %zu, "
            "\"seconds\": %.6f, \"samples_per_sec\": %.1f, "
            "\"speedup_vs_streaming\": %.3f, "
            "\"run_variance\": %.4f, \"minor_faults\": %llu,\n"
            "      \"stages_ns\": {",
            r.mode.c_str(), r.threads, r.bestSec, r.samplesPerSec,
            stream_best / r.bestSec, r.variance,
            static_cast<unsigned long long>(r.minorFaults));
        std::size_t k = 0;
        for (const auto &[stage, ns] : r.stageNs)
            std::fprintf(f, "%s\"%s\": %llu",
                         k++ == 0 ? "" : ", ", stage.c_str(),
                         static_cast<unsigned long long>(ns));
        std::fprintf(f, "}}%s\n", i + 1 == runs.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return consistent ? 0 : 1;
}
