/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench prepare --workload <w> --seed <n> --workdir <dir>
 *   perfbench measure --workload <w> --seed <n> --seconds <s>
 *             --trace <0|1> --workdir <dir> [--trace-out <file>]
 *             [--commit <id>] [--source-digest <hex>]
 *
 * <w> is offline_capture, serve_small or serve_large_durable.
 *
 * prepare synthesises the workload's captures from the seed and
 * computes every reference analysis.  measure then runs in a fresh
 * process that receives only those captures and the expected reports:
 * the benchmark's own allocations cannot shape the system's heap, and
 * the peak RSS it reports is the system's (inputs included).
 *
 * measure prints run metadata, one line per metric (value, unit,
 * samples), with --trace 1 the per-layer ledger, and as its last line
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Exits 1 after printing everything when any report differed from
 * the reference analysis, 2 on bad usage, 3 when the build is not an
 * optimised, sanitizer-free one, 4 when the run could not be made.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "profiler/batch_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Reported with --trace 0, on every workload. */
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"analyze_msamples_per_s", "Msamples/s"},
    {"session_p50_ms", "ms"},
    {"session_p95_ms", "ms"},
    {"session_p99_ms", "ms"},
    {"completed_fraction", "ratio"},
    {"peak_rss_mib", "MiB"},
};

/** Reported with --trace 1, on every workload; a layer the workload
 *  does not run reads 0. */
constexpr MetricSpec kPerLayer[] = {
    {"store.open_ms", "ms"},
    {"store.decode_ns_per_sample", "ns"},
    {"store.bytes_per_sample", "B"},
    {"serve.emcap_decode_ns_per_sample", "ns"},
    {"profiler.analyze_ns_per_sample", "ns"},
    {"profiler.analyze_ms_per_call", "ms"},
    {"profiler.stitch_ms", "ms"},
    {"profiler.halo_fraction", "ratio"},
    {"profiler.report_text_ms", "ms"},
    {"profiler.events_per_msample", "count"},
    {"common.pool_wait_ms", "ms"},
    {"common.worker_busy_fraction", "ratio"},
    {"serve.connect_ms", "ms"},
    {"serve.open_ms", "ms"},
    {"serve.finish_ms", "ms"},
    {"serve.residual_ms", "ms"},
    {"serve.upload_ms", "ms"},
    {"serve.frame_parse_ns_per_byte", "ns"},
    {"serve.pipeline_feed_ms", "ms"},
    {"serve.pipeline_finish_ms", "ms"},
    {"serve.spans_per_session", "count"},
    {"serve.report_encode_ms", "ms"},
    {"serve.report_bytes", "B"},
    {"serve.spool_append_ms_p50", "ms"},
    {"serve.spool_append_ms_p99", "ms"},
    {"serve.resume_ms", "ms"},
    {"serve.sessions_parked", "count"},
    {"serve.sessions_resumed", "count"},
    {"serve.ingested_per_capture_byte", "ratio"},
    {"serve.sessions_accepted", "count"},
    {"serve.sessions_completed", "count"},
    {"serve.sessions_rejected", "count"},
    {"serve.sessions_aborted", "count"},
    {"serve.results_spooled", "count"},
    {"serve.completed_per_accepted", "ratio"},
    {"trace.overhead_fraction", "ratio"},
};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench prepare --workload <w> "
                 "--seed <n> --workdir <dir>\n"
                 "       perfbench measure --workload <w> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--trace-out <file>] [--commit <id>] "
                 "[--source-digest <hex>]\n"
                 "  <w>: offline_capture | serve_small | "
                 "serve_large_durable\n",
                 why);
    return 2;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

void
addLatencyMetrics(RunResult &result, const std::vector<double> &ms)
{
    const std::pair<const char *, double> levels[] = {
        {"session_p50_ms", 0.50},
        {"session_p95_ms", 0.95},
        {"session_p99_ms", 0.99}};
    for (const auto &[name, p] : levels)
        result.add(name, percentile(ms, p), "ms", ms.size(),
                   static_cast<long>(samplesBeyond(ms.size(), p)));
}

void
attachTrace(RunResult &result, const RunOptions &options,
            const Ledger &ledger, const std::vector<Span> &spans)
{
    result.ledger = ledger.toText(options.workload) + result.ledger;
    result.meta["ledger"] =
        "{\"residual_fraction\":" + number(ledger.residualFraction()) +
        ",\"costliest_layer\":" + jsonString(ledger.costliestModule()) +
        ",\"spans\":" + std::to_string(spans.size()) + "}";
    std::string error;
    if (!options.traceOut.empty() &&
        !writeChromeTrace(options.traceOut, spans, &error))
        result.errors.push_back(error);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        return usage("missing role");
    const std::string role = argv[1];
    if (role != "prepare" && role != "measure")
        return usage("the role is prepare or measure");
    RunOptions options;
    std::string commit = "unknown", digest = "unknown";
    int trace = -1;
    bool haveSeed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(options.seconds > 0 && options.seconds <= 3600))
                return usage("--seconds must be in (0, 3600]");
        } else if (arg == "--trace") {
            trace = value == "0" ? 0 : value == "1" ? 1 : -1;
        } else if (arg == "--workdir") {
            options.workdir = value;
        } else if (arg == "--trace-out") {
            options.traceOut = value;
        } else if (arg == "--commit") {
            commit = value;
        } else if (arg == "--source-digest") {
            digest = value;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }
    const WorkloadShape *shape = nullptr;
    for (const WorkloadShape &w : kWorkloads)
        if (options.workload == w.name)
            shape = &w;
    if (shape == nullptr)
        return usage("unknown --workload");
    const bool offline = shape == &kWorkloads[0];
    const bool large = shape == &kWorkloads[2];
    if (!haveSeed || options.workdir.empty())
        return usage("--seed and --workdir are required");
    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());

    if (role == "prepare") {
        std::error_code ec;
        std::filesystem::create_directories(options.workdir, ec);
        std::string error;
        if (!prepareInputs(options.workdir, options.seed, shape->inputs,
                           shape->samples, shape->title, nproc, &error)) {
            std::fprintf(stderr, "perfbench: input synthesis: %s\n",
                         error.c_str());
            return 4;
        }
        return 0;
    }
    if (trace < 0)
        return usage("--trace is required");
    options.trace = trace == 1;

    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (kSanitized || kAsserts || buildType != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing to report numbers from a %s%s "
                     "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                     buildType.c_str(),
                     kSanitized ? " sanitizer" : "");
        return 3;
    }
    InputSet inputs;
    std::string loadError;
    if (!loadInputs(options.workdir, inputs, &loadError)) {
        std::fprintf(stderr, "perfbench: %s\n", loadError.c_str());
        return 4;
    }
    if (inputs.inputs.size() != shape->inputs) {
        std::fprintf(stderr, "perfbench: %s holds %zu inputs, not %zu\n",
                     options.workdir.c_str(), inputs.inputs.size(),
                     shape->inputs);
        return 4;
    }

    options.systemThreads = std::max<std::size_t>(1, nproc / 2);
    options.uploaders = std::max<std::size_t>(1, nproc / 2);
    const bool batch = emprof::profiler::batchPipelineActive();
    const char *simdEnv = std::getenv("EMPROF_SIMD");

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, trace);
    std::printf("commit %s, source digest %s, %s build, no sanitizers\n",
                commit.c_str(), digest.c_str(), buildType.c_str());
    std::printf("nproc %zu: %zu system threads (%s)%s; "
                "batch pipeline %s\n",
                nproc, options.systemThreads,
                offline ? "offline workers" : "server pool",
                offline ? ""
                        : (", " + std::to_string(options.uploaders) +
                           " closed-loop uploaders, 1 server I/O thread")
                              .c_str(),
                batch ? "active (AVX2)" : "inactive (scalar)");
    std::fflush(stdout);

    RunResult result = offline ? runOffline(options, inputs)
                               : runServed(options, inputs, large);
    for (const auto &e : result.errors)
        std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    if (!result.ok || result.attempted == 0) {
        std::fprintf(stderr, "perfbench: the run could not be made\n");
        return 4;
    }

    if (!options.trace)
        result.add("completed_fraction",
                   static_cast<double>(result.attempted - result.failed) /
                       static_cast<double>(result.attempted),
                   "ratio", result.attempted);
    char hash[20];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(inputs.hash));
    std::printf("inputs: %zu captures x %llu samples, %llu encoded bytes, "
                "input hash %s\n",
                inputs.inputs.size(),
                static_cast<unsigned long long>(shape->samples),
                static_cast<unsigned long long>(inputs.encodedBytes), hash);
    result.meta["input_hash"] = jsonString(hash);
    result.meta["inputs"] =
        "{\"captures\":" + std::to_string(inputs.inputs.size()) +
        ",\"samples_per_capture\":" + std::to_string(shape->samples) +
        ",\"encoded_bytes\":" + std::to_string(inputs.encodedBytes) +
        ",\"reference_events_per_capture\":" +
        std::to_string(inputs.inputs[0].ref.events) + "}";

    // Every metric the mode reports, in a fixed order; a layer this
    // workload does not run reads 0.
    std::vector<Metric> metrics;
    for (const MetricSpec &spec :
         options.trace ? std::vector<MetricSpec>(std::begin(kPerLayer),
                                                 std::end(kPerLayer))
                       : std::vector<MetricSpec>(std::begin(kEndToEnd),
                                                 std::end(kEndToEnd))) {
        Metric m{spec.name, 0.0, spec.unit, 0, -1};
        for (const Metric &have : result.metrics)
            if (have.name == spec.name)
                m = have;
        if (m.unit != spec.unit || !std::isfinite(m.value)) {
            result.fail("metric " + m.name + " is malformed");
            m.value = 0;
            m.unit = spec.unit;
        }
        metrics.push_back(m);
    }

    if (!result.ledger.empty())
        std::printf("%s", result.ledger.c_str());
    for (const Metric &m : metrics) {
        std::printf("metric %-34s %16.6f %-10s samples=%zu", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
        if (m.beyond >= 0)
            std::printf(" beyond=%ld%s", m.beyond,
                        m.beyond < static_cast<long>(kMinTailSamples)
                            ? " (under-sampled tail)"
                            : "");
        std::printf("\n");
    }

    const bool correct = result.failed == 0;
    std::string meta = "{\"perfbench_meta\":{";
    meta += "\"workload\":" + jsonString(options.workload);
    meta += ",\"seed\":" + std::to_string(options.seed);
    meta += ",\"seconds\":" + number(options.seconds);
    meta += ",\"trace\":" + std::to_string(trace);
    meta += ",\"commit\":" + jsonString(commit);
    meta += ",\"source_digest\":" + jsonString(digest);
    meta += ",\"build_type\":" + jsonString(buildType);
    meta += ",\"sanitizers\":false";
    meta += ",\"nproc\":" + std::to_string(nproc);
    meta += ",\"system_threads\":" + std::to_string(options.systemThreads);
    meta += ",\"uploaders\":" +
            std::to_string(offline ? 0 : options.uploaders);
    meta += ",\"batch_pipeline_active\":";
    meta += batch ? "true" : "false";
    meta += ",\"emprof_simd_env\":" +
            (simdEnv != nullptr ? jsonString(simdEnv) : "null");
    for (const auto &[key, value] : result.meta)
        meta += ",\"" + key + "\":" + value;
    meta += ",\"samples\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        meta += (i ? ",\"" : "\"") + metrics[i].name +
                "\":{\"n\":" + std::to_string(metrics[i].samples);
        if (metrics[i].beyond >= 0)
            meta += ",\"beyond\":" + std::to_string(metrics[i].beyond);
        meta += "}";
    }
    meta += "}}}";
    std::printf("%s\n", meta.c_str());

    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        line += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
