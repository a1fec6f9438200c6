/**
 * @file
 * emprof_analyze — run EMPROF on a recorded signal file.
 *
 * This is the tool you would point at a *real* capture: record the
 * device's emanation around its clock frequency with any SDR, save the
 * IQ or magnitude samples (raw float32 works, e.g. a GNU Radio file
 * sink), and analyse:
 *
 *   emprof_analyze capture.emcap --threads 8
 *   emprof_analyze capture.emsig --clock-ghz 1.008
 *   emprof_analyze iq.f32 --raw-iq --rate-mhz 40 --clock-ghz 1.008
 *
 * The container is detected from the file's magic bytes: EMCAP
 * captures (emprof_capture/emprof_store) are decoded chunk-by-chunk by
 * the analysis workers, .emsig is the legacy one-blob container,
 * and anything unrecognised must be explicitly declared raw with
 * --raw-f32/--raw-iq — a garbage file is an error, not a profile.
 *
 * Options tune the Sec. IV parameters (thresholds, duration floor,
 * normalisation window); --section isolates the part of the signal
 * between marker loops (Sec. V-B); --histogram and --boot add the
 * Fig. 11 / Fig. 13 views; --csv exports events for plotting.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_parse.hpp"
#include "common/io/checked_file.hpp"
#include "common/thread_pool.hpp"
#include "dsp/signal_io.hpp"
#include "obs/stage_profiler.hpp"
#include "obs_cli.hpp"
#include "profiler/boot_profile.hpp"
#include "profiler/marker.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "profiler/report.hpp"
#include "store/capture_reader.hpp"

using namespace emprof;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <signal-file> [options]\n"
        "\n"
        "input (.emcap and .emsig containers are auto-detected from\n"
        "their magic bytes; anything else must be declared raw):\n"
        "  --raw-f32           raw float32 magnitude samples\n"
        "  --raw-iq            raw interleaved float32 I/Q samples\n"
        "  --rate-mhz <f>      sample rate for raw inputs (required)\n"
        "\n"
        "target:\n"
        "  --clock-ghz <f>     processor clock (default: the capture's\n"
        "                      recorded clock, else 1.008)\n"
        "\n"
        "detector (defaults per the paper, Sec. IV):\n"
        "  --enter <f>         dip entry threshold   (default 0.22)\n"
        "  --exit <f>          dip exit threshold    (default 0.38)\n"
        "  --min-stall-ns <f>  duration threshold    (default 60)\n"
        "  --refresh-ns <f>    refresh classifier    (default 1200)\n"
        "  --window-ms <f>     normalisation window  (default 4)\n"
        "\n"
        "resilience (impaired/real-world captures):\n"
        "  --resilient         adaptive envelope recalibration, segment\n"
        "                      quarantine (clipping/dropout/low-SNR)\n"
        "                      and per-event confidence; quarantined\n"
        "                      spans emit no events and the report\n"
        "                      gains a coverage figure\n"
        "\n"
        "performance:\n"
        "  --threads <n>       analysis worker threads (default:\n"
        "                      hardware concurrency); events are\n"
        "                      bit-identical for every count.  The\n"
        "                      AVX2 kernel runs when the CPU has AVX2;\n"
        "                      a -DEMPROF_DISABLE_SIMD=ON build runs\n"
        "                      the scalar reference kernel\n"
        "\n"
        "recovery:\n"
        "  --recover           open a truncated/unfinalized EMCAP\n"
        "                      capture by rebuilding the chunk index\n"
        "                      from per-chunk CRCs (see also\n"
        "                      `emprof_store recover`)\n"
        "\n"
        "views:\n"
        "  --section           analyse only between marker loops\n"
        "  --histogram         print the stall-latency histogram\n"
        "  --boot <bucket-us>  print a boot-style rate-vs-time profile\n"
        "  --events-csv <path> write one line per detected stall\n"
        "  --verbose           print a per-stage timing summary\n"
        "\n"
        "exit codes: 0 ok, 1 error, 2 bad usage, 3 degraded result\n"
        "(recovered capture or signal coverage below 100%%)\n"
        "\n%s",
        argv0, tools::ObsCli::kUsage);
}

const char *
argText(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

double
argDouble(int argc, char **argv, int &i, double lo, double hi)
{
    const char *flag = argv[i];
    return tools::parseDoubleFlag(flag, argText(argc, argv, i), lo, hi);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }

    std::string path = argv[1];
    bool raw_f32 = false, raw_iq = false;
    bool use_section = false, histogram = false;
    bool clock_set = false, recover = false;
    double rate_mhz = 0.0, clock_ghz = 1.008, boot_bucket_us = 0.0;
    std::size_t threads = common::ThreadPool::hardwareThreads();
    std::string events_csv;
    bool verbose = false;
    tools::ObsCli obs_cli;
    profiler::EmProfConfig config;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (obs_cli.parseArg(argc, argv, i))
            continue;
        if (arg == "--raw-f32")
            raw_f32 = true;
        else if (arg == "--raw-iq")
            raw_iq = true;
        else if (arg == "--rate-mhz")
            rate_mhz = argDouble(argc, argv, i, 1e-6, 1e6);
        else if (arg == "--clock-ghz") {
            clock_ghz = argDouble(argc, argv, i, 1e-3, 1e3);
            clock_set = true;
        }
        else if (arg == "--enter")
            config.enterThreshold = argDouble(argc, argv, i, 0.0, 10.0);
        else if (arg == "--exit")
            config.exitThreshold = argDouble(argc, argv, i, 0.0, 10.0);
        else if (arg == "--min-stall-ns")
            config.minStallNs = argDouble(argc, argv, i, 0.0, 1e12);
        else if (arg == "--refresh-ns")
            config.refreshStallNs = argDouble(argc, argv, i, 0.0, 1e12);
        else if (arg == "--window-ms")
            config.normWindowSeconds =
                argDouble(argc, argv, i, 1e-6, 1e6) * 1e-3;
        else if (arg == "--threads")
            threads = static_cast<std::size_t>(tools::parseU64Flag(
                "--threads", argText(argc, argv, i), 1, 4096));
        else if (arg == "--recover")
            recover = true;
        else if (arg == "--resilient")
            config.signal.enabled = true;
        else if (arg == "--section")
            use_section = true;
        else if (arg == "--histogram")
            histogram = true;
        else if (arg == "--boot")
            boot_bucket_us = argDouble(argc, argv, i, 1e-3, 1e9);
        else if (arg == "--events-csv")
            events_csv = argText(argc, argv, i);
        else if (arg == "--verbose")
            verbose = true;
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (verbose)
        tools::ObsCli::enable();

    store::CaptureReader reader;
    dsp::TimeSeries signal;
    bool emcap_direct = false;
    bool recovered_capture = false;

    {
    EMPROF_OBS_STAGE("tool.load");
    if (raw_f32 || raw_iq) {
        if (rate_mhz <= 0.0) {
            std::fprintf(stderr,
                         "--rate-mhz is required for raw inputs\n");
            return 2;
        }
        common::io::IoError io_error;
        if (!dsp::loadRawF32(path, rate_mhz * 1e6, raw_iq, signal,
                             &io_error)) {
            std::fprintf(stderr, "%s\n", io_error.describe().c_str());
            return 1;
        }
    } else if (recover || store::CaptureReader::isEmcap(path)) {
        std::string err;
        bool opened;
        if (recover) {
            store::RecoveryReport rec;
            opened = reader.openRecovered(path, &rec, &err);
            recovered_capture = opened;
            if (opened)
                std::printf(
                    "recovered %llu chunks / %llu samples; dropped "
                    "%llu tail bytes%s%s\n",
                    static_cast<unsigned long long>(rec.salvagedChunks),
                    static_cast<unsigned long long>(
                        rec.salvagedSamples),
                    static_cast<unsigned long long>(
                        rec.droppedTailBytes),
                    rec.stopReason.empty() ? "" : ": ",
                    rec.stopReason.c_str());
        } else {
            opened = reader.open(path, &err);
        }
        if (!opened) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
            return 1;
        }
        const auto &info = reader.info();
        if (!clock_set && info.clockHz > 0.0)
            clock_ghz = info.clockHz / 1e9;
        std::printf("EMCAP capture: %llu samples, %zu chunks, "
                    "codec %s, device '%s'\n",
                    static_cast<unsigned long long>(info.totalSamples),
                    reader.chunkCount(),
                    info.codec == store::SampleCodec::F32
                        ? "f32 (lossless)"
                        : "i16 quantised",
                    info.deviceName.c_str());
        // Marker search needs the whole series in memory; otherwise
        // the workers decode the chunks of their own ranges.
        if (use_section) {
            if (!reader.readAll(signal, &err)) {
                std::fprintf(stderr, "%s: %s\n", path.c_str(),
                             err.c_str());
                return 1;
            }
        } else {
            emcap_direct = true;
        }
    } else if (dsp::isEmsig(path)) {
        common::io::IoError io_error;
        if (!dsp::loadSignal(path, signal, &io_error)) {
            std::fprintf(stderr, "%s\n", io_error.describe().c_str());
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "%s: unrecognised magic — not an .emcap/.emsig "
                     "capture; pass --raw-f32 or --raw-iq (with "
                     "--rate-mhz) if this is a headerless raw dump\n",
                     path.c_str());
        return 1;
    }
    }

    const double sample_rate =
        emcap_direct ? reader.info().sampleRateHz : signal.sampleRateHz;
    uint64_t total_samples =
        emcap_direct ? reader.info().totalSamples : signal.size();
    if (total_samples == 0) {
        std::fprintf(stderr, "no samples in %s\n", path.c_str());
        return 1;
    }

    std::printf("loaded %llu samples at %.3f MHz (%.3f ms)\n",
                static_cast<unsigned long long>(total_samples),
                sample_rate / 1e6,
                static_cast<double>(total_samples) / sample_rate * 1e3);

    if (use_section && !emcap_direct) {
        const auto sections = profiler::findMarkerSections(signal);
        if (sections.measured.empty()) {
            std::fprintf(stderr,
                         "no marker-delimited section found; "
                         "analysing the whole signal\n");
        } else {
            std::printf("markers found; analysing section [%llu, %llu)\n",
                        static_cast<unsigned long long>(
                            sections.measured.begin),
                        static_cast<unsigned long long>(
                            sections.measured.end));
            signal = profiler::slice(signal, sections.measured);
            total_samples = signal.size();
        }
    }

    config.clockHz = clock_ghz * 1e9;
    if (sample_rate > 0.0)
        config.sampleRateHz = sample_rate;
    std::string config_error;
    if (!config.validate(&config_error)) {
        std::fprintf(stderr, "invalid configuration: %s\n",
                     config_error.c_str());
        return 2;
    }
    profiler::ProfileResult result;
    {
        EMPROF_OBS_STAGE("tool.analyze");
        profiler::ParallelAnalyzerConfig pcfg;
        pcfg.threads = threads;
        if (emcap_direct) {
            std::string err;
            if (!profiler::analyzeCaptureParallel(reader, config, result,
                                                  pcfg, &err)) {
                std::fprintf(stderr, "analysis failed: %s\n",
                             err.c_str());
                return 1;
            }
        } else {
            result = profiler::analyzeParallel(signal, config, pcfg);
        }
    }
    int rc = 0;
    {
    EMPROF_OBS_STAGE("tool.report");
    std::printf("\n%s", result.report.toText("EMPROF report:").c_str());

    if (histogram) {
        std::printf("\nstall-latency histogram:\n%s",
                    profiler::latencyHistogram(result.events)
                        .toText("cyc")
                        .c_str());
    }
    if (boot_bucket_us > 0.0) {
        const auto profile = profiler::makeBootProfile(
            result.events, sample_rate, total_samples,
            boot_bucket_us * 1e-6);
        std::printf("\nmiss rate over time:\n%s",
                    profile.toText().c_str());
    }
    if (!events_csv.empty()) {
        // Build the CSV in memory and hand it to the checked I/O layer
        // in one write: a full disk surfaces as a typed error instead
        // of a silently short file.
        std::string csv = "start_s,duration_ns,stall_cycles,kind,"
                          "confidence,level,level_confidence\n";
        char line[200];
        for (const auto &ev : result.events) {
            std::snprintf(line, sizeof(line),
                          "%.9f,%.1f,%.1f,%s,%.3f,%s,%.3f\n",
                          static_cast<double>(ev.startSample) /
                              sample_rate,
                          ev.durationNs, ev.stallCycles,
                          ev.kind ==
                                  profiler::StallKind::RefreshCoincident
                              ? "refresh"
                              : "miss",
                          ev.confidence,
                          profiler::serviceLevelName(ev.level),
                          ev.levelConfidence);
            csv += line;
        }
        common::io::CheckedFile f;
        if (!f.open(events_csv,
                    common::io::CheckedFile::Mode::WriteTruncate) ||
            !f.writeAll(csv.data(), csv.size(), "events csv") ||
            !f.close()) {
            std::fprintf(stderr, "%s\n", f.error().describe().c_str());
            rc = 1;
        } else {
            std::printf("\nwrote %zu events to %s\n",
                        result.events.size(), events_csv.c_str());
        }
    }
    }

    if (verbose) {
        const std::string stages = obs::stageSummaryLine();
        if (!stages.empty())
            std::printf("\n%s\n", stages.c_str());
    }
    if (!obs_cli.finish() && rc == 0)
        rc = 1;

    // Exit 3 flags a *degraded* (but successful) analysis: the capture
    // had to be salvaged, or part of the signal was quarantined.  CI
    // and scripts can treat it as "result present, trust with care".
    const bool degraded =
        recovered_capture ||
        (result.report.quality.enabled &&
         result.report.quality.coverageFraction < 1.0);
    if (rc == 0 && degraded)
        rc = 3;
    return rc;
}
