/**
 * @file
 * End-to-end analysis throughput, and what only this program measures:
 * the AVX2 kernel against the scalar streaming path, scaling over
 * workers in memory and off an EMCAP file, and the cost of the
 * resilience layer and of impairment injection.  Rows, on harness.hpp's
 * synthetic 40 MHz capture (default 64 Mi samples):
 *
 *  - `streaming`: EmProf::analyze, one scalar span;
 *  - `parallel` x1/2/4/8: in-memory analyzeParallel (the batch kernel
 *    times the workers, each running its range in served-size spans);
 *  - `emcap` x1/2/4/8: CaptureReader::open + analyzeCaptureParallel on
 *    the capture written once with CaptureWriter's default codec, as
 *    emprof_analyze does;
 *  - `streaming` and `parallel` x8 with the resilience layer on.
 *    resilient_overhead_{streaming,parallel} divide their medians by the
 *    classic rows'.  The parallel ratio divides by the classic batch
 *    kernel, so a faster classic path raises it even while resilient
 *    throughput improves: compare samples_per_sec across commits;
 *  - `impair mild` / `impair harsh`: applyImpairments() on a fresh copy
 *    of the capture (the copy is inside the timed run).
 *
 * Each row: an untimed warm-up on a capture an eighth the size, N timed
 * runs (median and quartiles of `seconds`, the wall clock, and of
 * `cpu_seconds`, the process CPU clock).  Each analysis row adds an
 * instrumented pass for its stage breakdown and `chunk_overlap`
 * (harness.hpp), and the rows of one configuration, classic or
 * resilient, must agree on the event count.  The temporary captures
 * (bench_pipeline_*.emcap in the working directory) are deleted before
 * exit.
 *
 *   throughput_pipeline [--samples N] [--runs N] [--json PATH]
 */

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dsp/impairment.hpp"
#include "harness.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;

int
main(int argc, char **argv)
{
    std::size_t total = std::size_t{1} << 26; // 64 Mi samples
    std::size_t runs = 5;
    std::string json = "BENCH_pipeline.json";
    if (!bench::parseArgs(argc, argv,
                          {{"--samples", total}, {"--runs", runs},
                           {"--json", json}}))
        return 2;
    runs = std::max<std::size_t>(runs, 1);
    std::printf("synthesising %zu-sample capture...\n", total);
    const auto sig = bench::syntheticCapture(total);
    const auto warm = bench::syntheticCapture(total / 8);

    // The offline EMCAP path: encode once, analyse off disk.
    const std::string capture_path = "bench_pipeline_capture.emcap";
    const std::string warm_path = "bench_pipeline_warm.emcap";
    std::string error;
    bool consistent = store::writeCapture(capture_path, sig, {}, nullptr,
                                          &error) &&
                      store::writeCapture(warm_path, warm, {}, nullptr,
                                          &error);
    if (!consistent)
        std::fprintf(stderr, "ERROR: cannot write capture: %s\n",
                     error.c_str());

    // One analysis of the warm-up input or of the full capture; nullopt
    // means it failed.
    using Result = std::optional<profiler::ProfileResult>;
    const auto analyze = [&](const std::string &mode, std::size_t threads,
                             const profiler::EmProfConfig &config,
                             bool warmUp) -> Result {
        profiler::ParallelAnalyzerConfig pcfg;
        pcfg.threads = threads;
        if (mode == "streaming")
            return profiler::EmProf::analyze(warmUp ? warm : sig, config);
        if (mode == "parallel")
            return profiler::analyzeParallel(warmUp ? warm : sig, config,
                                             pcfg);
        store::CaptureReader reader;
        profiler::ProfileResult result;
        std::string why;
        if (reader.open(warmUp ? warm_path : capture_path, &why) &&
            profiler::analyzeCaptureParallel(reader, config, result, pcfg,
                                             &why))
            return result;
        std::fprintf(stderr, "ERROR: emcap x%zu: %s\n", threads,
                     why.c_str());
        return std::nullopt;
    };

    std::vector<bench::Json> rows;
    std::map<std::string, double> median; // seconds, by row label
    std::optional<std::size_t> events[2]; // classic, resilient
    const auto analysis = [&](const char *mode, std::size_t threads,
                              const profiler::EmProfConfig &config) {
        const bool resilient = config.signal.enabled;
        std::size_t count = 0;
        const auto run = [&](bool warmUp) {
            const Result result = analyze(mode, threads, config, warmUp);
            consistent = consistent && result.has_value();
            count = result ? result->events.size() : 0;
        };
        const bench::Timing t = bench::timeRuns(
            runs, [&] { run(true); }, [&] { run(false); });
        const bench::Instrumented seen =
            bench::instrumentedPass([&] { run(false); });
        if (!events[resilient])
            events[resilient] = count;
        consistent = consistent && *events[resilient] == count;

        std::string label = mode;
        if (threads != 0)
            label += " x" + std::to_string(threads);
        if (resilient)
            label += " resilient";
        median[label] = t.seconds.median;
        const double speedup =
            median[resilient ? "streaming resilient" : "streaming"] /
            t.seconds.median;
        std::printf("%-24s %7.3f s [%.3f, %.3f]  %7.1f Msamples/s  "
                    "%.2fx streaming  %zu events  overlap %zu\n",
                    label.c_str(), t.seconds.median, t.seconds.q1,
                    t.seconds.q3, total / t.seconds.median / 1e6,
                    speedup, count, seen.chunkOverlap);
        rows.push_back(bench::Json()
                           .add("mode", mode)
                           .add("threads", threads)
                           .add("resilient", resilient)
                           .add("seconds", t.seconds)
                           .add("cpu_seconds", t.cpuSeconds)
                           .add("samples_per_sec", total / t.seconds.median)
                           .add("speedup_vs_streaming", speedup)
                           .add("events", count)
                           .add("minor_faults", t.minorFaults)
                           .add("chunk_overlap", seen.chunkOverlap)
                           .add("stages_ns", seen.stagesNs));
    };

    profiler::EmProfConfig classic;
    classic.clockHz = 1e9;
    profiler::EmProfConfig resilient = classic;
    resilient.signal.enabled = true;
    analysis("streaming", 0, classic);
    for (const char *mode : {"parallel", "emcap"})
        for (const std::size_t threads : {1u, 2u, 4u, 8u})
            analysis(mode, threads, classic);
    analysis("streaming", 0, resilient);
    analysis("parallel", 8, resilient);
    std::remove(capture_path.c_str());
    std::remove(warm_path.c_str());

    // Injection throughput per preset; the injection mutates in place.
    for (const char *preset : {"mild", "harsh"}) {
        dsp::ImpairmentSpec spec;
        if (!dsp::parseImpairmentSpec(preset, spec)) {
            std::fprintf(stderr, "preset %s failed to parse\n", preset);
            return 1;
        }
        auto copy = sig;
        const bench::Timing t = bench::timeRuns(
            runs,
            [&] {
                auto w = warm;
                dsp::applyImpairments(w, spec);
            },
            [&] {
                copy.samples = sig.samples;
                dsp::applyImpairments(copy, spec);
            });
        const std::string mode = std::string("impair ") + preset;
        std::printf("%-24s %7.3f s [%.3f, %.3f]  %7.1f Msamples/s\n",
                    mode.c_str(), t.seconds.median, t.seconds.q1,
                    t.seconds.q3, total / t.seconds.median / 1e6);
        rows.push_back(bench::Json()
                           .add("mode", mode)
                           .add("seconds", t.seconds)
                           .add("cpu_seconds", t.cpuSeconds)
                           .add("samples_per_sec", total / t.seconds.median)
                           .add("minor_faults", t.minorFaults));
    }

    const double overhead_streaming =
        median["streaming resilient"] / median["streaming"];
    const double overhead_parallel =
        median["parallel x8 resilient"] / median["parallel x8"];
    std::printf("resilient overhead: streaming %.2fx, parallel x8 %.2fx\n",
                overhead_streaming, overhead_parallel);
    if (!consistent)
        std::fprintf(stderr, "ERROR: an analysis failed or event counts "
                             "diverged within a configuration\n");

    bench::Json doc = bench::document("throughput_pipeline");
    doc.add("samples", total)
        .add("sample_rate_hz", sig.sampleRateHz)
        .add("timed_runs_per_mode", runs)
        .add("events", events[0].value_or(0))
        .add("events_resilient", events[1].value_or(0))
        .add("consistent", consistent)
        .add("resilient_overhead_streaming", overhead_streaming)
        .add("resilient_overhead_parallel", overhead_parallel)
        .add("runs", rows);
    return bench::writeJson(json, doc) && consistent ? 0 : 1;
}
