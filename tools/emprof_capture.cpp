/**
 * @file
 * emprof_capture — simulate a device running a workload and record the
 * received EM signal for emprof_analyze (or any external tool; --csv
 * exports plottable text).
 *
 *   emprof_capture --device olimex --workload mcf --out mcf.emcap
 *   emprof_capture --workload microbench --tm 1024 --cm 10 \
 *                  --bandwidth-mhz 80 --out mb.emcap --quantize-bits 16
 *
 * Outputs named *.emsig get the legacy one-blob container; everything
 * else is written as a chunked EMCAP capture (chunked + checksummed +
 * optionally compressed, see src/store/).  The default EMCAP codec is
 * lossless f32 so analysis results are bit-identical to a raw dump;
 * --quantize-bits 16 halves the file (and more, with compression) at
 * ~1e-5 relative error.
 *
 * This stands in for the paper's probe + spectrum-analyzer setup; on a
 * real bench you would record the signal with an SDR instead and feed
 * it straight to emprof_analyze.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_parse.hpp"
#include "devices/devices.hpp"
#include "obs/stage_profiler.hpp"
#include "obs_cli.hpp"
#include "dsp/impairment.hpp"
#include "dsp/signal_io.hpp"
#include "em/capture.hpp"
#include "serve/client.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"
#include "workloads/boot.hpp"
#include "workloads/microbenchmark.hpp"
#include "workloads/spec.hpp"

using namespace emprof;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options] --out <file.emsig>\n"
        "  --device <alcatel|samsung|olimex>   target (default olimex)\n"
        "  --workload <name>    microbench | boot | one of:",
        argv0);
    for (const auto &name : workloads::specNames())
        std::printf(" %s", name.c_str());
    std::printf(
        "\n"
        "  --scale <ops>        workload size (default 8000000)\n"
        "  --seed <n>           workload seed (default 42)\n"
        "  --tm <n> --cm <n>    microbench parameters (1024 / 10)\n"
        "  --bandwidth-mhz <f>  measurement bandwidth (default 40)\n"
        "  --impair <spec>      inject RF impairments into the capture\n"
        "%s"
        "  --csv <path>         also export the magnitude as CSV\n"
        "  --push <endpoint>    after writing an EMCAP capture, push\n"
        "                       it to a running emprof_served and\n"
        "                       print the returned report (exit code\n"
        "                       carries the report status, 3 =\n"
        "                       degraded, 7 = connection lost after\n"
        "                       all retries)\n"
        "  --push-retries <n>   reconnect attempts when the push\n"
        "                       connection drops (default 3; resumes\n"
        "                       the upload where it left off)\n"
        "EMCAP output (any --out not named *.emsig):\n"
        "  --quantize-bits <n>  quantise samples to n bits (2..16;\n"
        "                       default 0 = lossless float32)\n"
        "  --no-compress        store chunks verbatim (no bit packing)\n"
        "  --chunk-samples <n>  samples per chunk (default 65536)\n"
        "%s",
        dsp::impairmentSpecHelp(), tools::ObsCli::kUsage);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string device_name = "olimex", workload_name = "microbench";
    std::string out_path, csv_path, push_endpoint;
    uint64_t scale = 8'000'000, seed = 42, tm = 1024, cm = 10;
    uint64_t quantize_bits = 0, chunk_samples = 0;
    uint32_t push_retries = 3;
    bool compress = true;
    double bandwidth_mhz = 40.0;
    std::string impair_spec;
    tools::ObsCli obs_cli;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (obs_cli.parseArg(argc, argv, i))
            continue;
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--device")
            device_name = next();
        else if (arg == "--workload")
            workload_name = next();
        else if (arg == "--scale")
            scale = tools::parseU64Flag("--scale", next(), 1,
                                        uint64_t{1} << 40);
        else if (arg == "--seed")
            seed = tools::parseU64Flag("--seed", next(), 0, UINT64_MAX);
        else if (arg == "--tm")
            tm = tools::parseU64Flag("--tm", next(), 1,
                                     uint64_t{1} << 32);
        else if (arg == "--cm")
            cm = tools::parseU64Flag("--cm", next(), 1,
                                     uint64_t{1} << 32);
        else if (arg == "--bandwidth-mhz")
            bandwidth_mhz = tools::parseDoubleFlag("--bandwidth-mhz",
                                                   next(), 1e-6, 1e6);
        else if (arg == "--impair")
            impair_spec = next();
        else if (arg == "--quantize-bits")
            quantize_bits = tools::parseU64Flag("--quantize-bits",
                                                next(), 0, 16);
        else if (arg == "--chunk-samples")
            chunk_samples = tools::parseU64Flag(
                "--chunk-samples", next(), 1, uint64_t{1} << 32);
        else if (arg == "--no-compress")
            compress = false;
        else if (arg == "--out")
            out_path = next();
        else if (arg == "--csv")
            csv_path = next();
        else if (arg == "--push")
            push_endpoint = next();
        else if (arg == "--push-retries")
            push_retries = static_cast<uint32_t>(
                tools::parseU64Flag("--push-retries", next(), 1, 1000));
        else if (tools::isHelp(argv[i])) {
            usage(argv[0]);
            return 0;
        }
        else {
            usage(argv[0]);
            return 2;
        }
    }
    if (out_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    dsp::ImpairmentSpec impair;
    if (!impair_spec.empty()) {
        std::string impair_error;
        if (!dsp::parseImpairmentSpec(impair_spec, impair,
                                      &impair_error)) {
            std::fprintf(stderr, "--impair: %s\n",
                         impair_error.c_str());
            return 2;
        }
    }

    devices::DeviceModel device;
    if (device_name == "alcatel")
        device = devices::makeAlcatel();
    else if (device_name == "samsung")
        device = devices::makeSamsung();
    else if (device_name == "olimex")
        device = devices::makeOlimex();
    else {
        std::fprintf(stderr, "unknown device '%s'\n",
                     device_name.c_str());
        return 2;
    }

    std::unique_ptr<sim::TraceSource> workload;
    if (workload_name == "microbench") {
        workloads::MicrobenchmarkConfig cfg;
        cfg.totalMisses = tm;
        cfg.consecutiveMisses = cm;
        cfg.seed = seed;
        workload = std::make_unique<workloads::Microbenchmark>(cfg);
    } else if (workload_name == "boot") {
        workloads::BootConfig cfg;
        cfg.scaleOps = scale;
        cfg.seed = seed;
        workload = workloads::makeBoot(cfg);
    } else {
        workload = workloads::makeSpec(workload_name, scale, seed);
    }
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return 2;
    }

    auto probe = device.probe;
    probe.receiver.bandwidthHz = bandwidth_mhz * 1e6;

    sim::Simulator simulator(device.sim);
    auto capture = [&] {
        EMPROF_OBS_STAGE("tool.capture");
        return em::captureRun(simulator, *workload, probe);
    }();

    // Impair the recorded magnitude in one batch pass (reference level
    // measured from the clean capture's RMS) rather than inside the
    // probe chain, so one clean run and its impaired variants share the
    // exact same underlying signal.
    if (impair.any()) {
        dsp::ImpairmentStats istats;
        dsp::applyImpairments(capture.magnitude, impair, &istats);
        std::printf("impaired (ref %.4g): %llu impulses, %llu dropout "
                    "samples, %llu clipped samples\n",
                    istats.referenceLevel,
                    static_cast<unsigned long long>(istats.impulses),
                    static_cast<unsigned long long>(
                        istats.dropoutSamples),
                    static_cast<unsigned long long>(
                        istats.clippedSamples));
    }

    std::printf("%s on %s: %llu cycles, %llu raw LLC misses\n",
                workload_name.c_str(), device.name.c_str(),
                static_cast<unsigned long long>(capture.simResult.cycles),
                static_cast<unsigned long long>(
                    capture.simResult.rawLlcMisses));
    std::printf("captured %zu magnitude samples at %.3f MHz\n",
                capture.magnitude.samples.size(),
                capture.magnitude.sampleRateHz / 1e6);

    const bool legacy_emsig =
        out_path.size() >= 6 &&
        out_path.compare(out_path.size() - 6, 6, ".emsig") == 0;
    {
    EMPROF_OBS_STAGE("tool.write");
    if (legacy_emsig) {
        common::io::IoError io_error;
        if (!dsp::saveSignal(out_path, capture.magnitude, &io_error)) {
            std::fprintf(stderr, "%s\n", io_error.describe().c_str());
            return 1;
        }
        std::printf("wrote %s (legacy .emsig)\n", out_path.c_str());
    } else {
        if (quantize_bits != 0 &&
            (quantize_bits < 2 || quantize_bits > 16)) {
            std::fprintf(stderr,
                         "--quantize-bits must be 0 (lossless) or "
                         "2..16\n");
            return 2;
        }
        store::WriterOptions wopt;
        wopt.sampleRateHz = capture.magnitude.sampleRateHz;
        wopt.clockHz = device.clockHz();
        wopt.deviceName = device.name;
        wopt.codec = quantize_bits == 0 ? store::SampleCodec::F32
                                        : store::SampleCodec::QuantI16;
        wopt.quantBits = static_cast<unsigned>(quantize_bits);
        wopt.compress = compress;
        if (chunk_samples > 0)
            wopt.chunkSamples = static_cast<std::size_t>(chunk_samples);
        store::WriterStats wstats;
        std::string write_error;
        if (!store::writeCapture(out_path, capture.magnitude, wopt,
                                 &wstats, &write_error)) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         out_path.c_str(), write_error.c_str());
            return 1;
        }
        std::printf(
            "wrote %s: %llu bytes in %llu chunks, %.2fx vs raw f32 "
            "(%s%s)\n",
            out_path.c_str(),
            static_cast<unsigned long long>(wstats.fileBytes),
            static_cast<unsigned long long>(wstats.chunks),
            wstats.compressionRatio(),
            quantize_bits == 0
                ? "lossless f32"
                : ("i16 @ " + std::to_string(quantize_bits) + " bits")
                      .c_str(),
            compress ? ", packed" : ", raw chunks");
    }
    }
    std::printf("analyse with: emprof_analyze %s --clock-ghz %.3f\n",
                out_path.c_str(), device.clockHz() / 1e9);

    common::io::IoError csv_error;
    if (!csv_path.empty() &&
        !dsp::saveCsv(csv_path, capture.magnitude, &csv_error)) {
        std::fprintf(stderr, "%s\n", csv_error.describe().c_str());
        return 1;
    }
    if (!obs_cli.finish())
        return 1;

    if (!push_endpoint.empty()) {
        if (!store::CaptureReader::isEmcap(out_path)) {
            std::fprintf(stderr, "--push needs an EMCAP output "
                                 "(--out not named *.emsig)\n");
            return 2;
        }
        serve::Endpoint endpoint;
        std::string push_error;
        if (!serve::parseEndpoint(push_endpoint, endpoint,
                                  &push_error)) {
            std::fprintf(stderr, "--push: %s\n", push_error.c_str());
            return 2;
        }
        serve::PushOptions options;
        options.maxAttempts = push_retries;
        const serve::PushResult pushed =
            serve::pushCaptureResumable(endpoint, out_path, options);
        if (!pushed.ok) {
            if (pushed.connectionLost) {
                std::fprintf(stderr,
                             "push failed: connection lost "
                             "(resumable) after %u attempts: %s\n",
                             pushed.attempts, pushed.error.c_str());
                return 7;
            }
            std::fprintf(stderr, "push failed: %s\n",
                         pushed.error.c_str());
            return 1;
        }
        std::fputs(pushed.report.reportText.c_str(), stdout);
        return static_cast<int>(pushed.report.status);
    }
    return 0;
}
