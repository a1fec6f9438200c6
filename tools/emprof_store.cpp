/**
 * @file
 * emprof_store — manage EMCAP capture containers.
 *
 *   emprof_store inspect capture.emcap
 *   emprof_store verify  capture.emcap
 *   emprof_store convert capture.f32 capture.emcap --raw-f32 \
 *                        --rate-mhz 40 --quantize-bits 16
 *   emprof_store convert capture.emcap capture.f32
 *   emprof_store cut     capture.emcap slice.emcap \
 *                        --start-sample 1000000 --num-samples 400000
 *
 * `inspect` prints the header and a chunk-table summary; `verify`
 * re-checks every CRC in the file (exit 1 if anything is damaged,
 * naming the chunks that are); `convert` moves captures between EMCAP,
 * legacy .emsig, and raw float32 (output format chosen by the output
 * extension); `cut` re-encodes a sample range into a new EMCAP file
 * using the footer index to seek — it never decodes the rest of the
 * capture; `recover` salvages a truncated or unfinalized capture
 * (crashed writer, power cut, torn download) by rebuilding the chunk
 * index from the per-chunk headers and CRCs:
 *
 *   emprof_store recover damaged.emcap            # report only
 *   emprof_store recover damaged.emcap fixed.emcap
 *
 * `spool` manages an emprof_served result spool directory (see
 * src/serve/spool.hpp): list the recovered results, fetch one report
 * by session id (exit code carries the report status, like --push),
 * acknowledge collected results, and garbage-collect acked segments:
 *
 *   emprof_store spool list  /var/lib/emprof/spool
 *   emprof_store spool fetch /var/lib/emprof/spool <session-id-hex>
 *   emprof_store spool ack   /var/lib/emprof/spool <session-id-hex>
 *   emprof_store spool gc    /var/lib/emprof/spool
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "dsp/impairment.hpp"
#include "dsp/signal_io.hpp"
#include "obs/stage_profiler.hpp"
#include "obs_cli.hpp"
#include "serve/spool.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> ...\n"
        "  inspect <file.emcap>\n"
        "  verify  <file.emcap>\n"
        "  convert <in> <out> [options]\n"
        "  cut     <in.emcap> <out.emcap> --start-sample <n>"
        " --num-samples <n>\n"
        "  recover <damaged.emcap> [<out.emcap>] [options]\n"
        "  spool   list|gc <dir>\n"
        "  spool   fetch|ack <dir> <session-id-hex>\n"
        "\n"
        "convert input: EMCAP/.emsig auto-detected by magic; raw dumps\n"
        "need --raw-f32 or --raw-iq plus --rate-mhz <f>.\n"
        "convert output by extension: .emcap | .emsig | anything else\n"
        "is written as raw float32.\n"
        "\n"
        "recover salvages every fully-flushed, CRC-valid chunk of a\n"
        "truncated or unfinalized capture; with an output path it\n"
        "re-encodes the salvage as a fresh finalized EMCAP file.\n"
        "\n"
        "EMCAP output options (convert, cut, and recover):\n"
        "  --quantize-bits <n>  0 = lossless f32 (default), 2..16\n"
        "  --no-compress        store chunks verbatim\n"
        "  --chunk-samples <n>  samples per chunk (default 65536)\n"
        "  --clock-ghz <f>      record a target clock in the header\n"
        "  --device <name>      record a device name in the header\n"
        "\n"
        "convert only:\n"
        "  --impair <spec>      inject RF impairments while converting\n"
        "%s"
        "\n%s",
        argv0, dsp::impairmentSpecHelp(), tools::ObsCli::kUsage);
}

bool
hasSuffix(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

int
inspect(const std::string &path)
{
    store::CaptureReader reader;
    std::string error;
    if (!reader.open(path, &error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return 1;
    }
    const auto &info = reader.info();
    std::printf("%s: EMCAP v%u\n", path.c_str(), info.version);
    std::printf("  codec         : %s\n",
                info.codec == store::SampleCodec::F32
                    ? "f32 (lossless)"
                    : ("i16 quantised, " +
                       std::to_string(info.quantBits) + " bits")
                          .c_str());
    std::printf("  sample rate   : %.3f MHz\n", info.sampleRateHz / 1e6);
    std::printf("  clock         : %.3f GHz\n", info.clockHz / 1e9);
    std::printf("  device        : %s\n", info.deviceName.c_str());
    std::printf("  samples       : %llu (%.3f ms)\n",
                static_cast<unsigned long long>(info.totalSamples),
                info.sampleRateHz > 0.0
                    ? static_cast<double>(info.totalSamples) /
                          info.sampleRateHz * 1e3
                    : 0.0);
    std::printf("  chunks        : %zu\n", reader.chunkCount());

    uint64_t stored = 0;
    for (std::size_t i = 0; i < reader.chunkCount(); ++i)
        stored += reader.chunk(i).storedBytes;
    const double raw = static_cast<double>(info.totalSamples) * 4.0;
    std::printf("  chunk bytes   : %llu (%.2fx vs raw f32)\n",
                static_cast<unsigned long long>(stored),
                stored > 0 ? raw / static_cast<double>(stored) : 0.0);
    if (reader.chunkCount() > 0) {
        const auto &first = reader.chunk(0);
        const auto &last = reader.chunk(reader.chunkCount() - 1);
        std::printf("  chunk layout  : %u samples/chunk, last %u\n",
                    first.sampleCount, last.sampleCount);
    }
    return 0;
}

int
verify(const std::string &path)
{
    store::CaptureReader reader;
    std::string error;
    if (!reader.open(path, &error)) {
        std::fprintf(stderr, "%s: FAILED: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    const auto result = reader.verify();
    if (!result.error.empty()) {
        std::fprintf(stderr, "%s: FAILED: %s\n", path.c_str(),
                     result.error.c_str());
        return 1;
    }
    if (!result.ok) {
        std::fprintf(stderr, "%s: FAILED: %zu of %zu chunks corrupt:",
                     path.c_str(), result.badChunks.size(),
                     result.chunksChecked);
        for (const std::size_t i : result.badChunks)
            std::fprintf(stderr, " %zu", i);
        std::fprintf(stderr, "\n");
        return 1;
    }
    std::printf("%s: OK (%zu chunks, all CRCs valid)\n", path.c_str(),
                result.chunksChecked);
    return 0;
}

struct OutputOptions
{
    uint64_t quantizeBits = 0;
    uint64_t chunkSamples = 0;
    bool compress = true;
    double clockGhz = 0.0;
    std::string deviceName;
    bool rawF32 = false;
    bool rawIq = false;
    double rateMhz = 0.0;
    uint64_t startSample = 0;
    uint64_t numSamples = 0;
    bool haveStart = false;
    bool haveCount = false;
    dsp::ImpairmentSpec impair;
};

/** Parse trailing options shared by convert and cut.  -1 on error. */
int
parseOptions(int argc, char **argv, int first, OutputOptions &opt)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quantize-bits")
            opt.quantizeBits = tools::parseU64Flag("--quantize-bits",
                                                   next(), 0, 16);
        else if (arg == "--chunk-samples")
            opt.chunkSamples = tools::parseU64Flag(
                "--chunk-samples", next(), 1, uint64_t{1} << 32);
        else if (arg == "--no-compress")
            opt.compress = false;
        else if (arg == "--clock-ghz")
            opt.clockGhz = tools::parseDoubleFlag("--clock-ghz", next(),
                                                  0.0, 1e3);
        else if (arg == "--device")
            opt.deviceName = next();
        else if (arg == "--raw-f32")
            opt.rawF32 = true;
        else if (arg == "--raw-iq")
            opt.rawIq = true;
        else if (arg == "--rate-mhz")
            opt.rateMhz = tools::parseDoubleFlag("--rate-mhz", next(),
                                                 1e-6, 1e6);
        else if (arg == "--start-sample") {
            opt.startSample = tools::parseU64Flag(
                "--start-sample", next(), 0, UINT64_MAX);
            opt.haveStart = true;
        } else if (arg == "--num-samples") {
            opt.numSamples = tools::parseU64Flag("--num-samples", next(),
                                                 1, UINT64_MAX);
            opt.haveCount = true;
        } else if (arg == "--impair") {
            std::string impair_error;
            if (!dsp::parseImpairmentSpec(next(), opt.impair,
                                          &impair_error)) {
                std::fprintf(stderr, "--impair: %s\n",
                             impair_error.c_str());
                return -1;
            }
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return -1;
        }
    }
    if (opt.quantizeBits == 1) {
        std::fprintf(stderr,
                     "--quantize-bits must be 0 (lossless) or 2..16\n");
        return -1;
    }
    return 0;
}

store::WriterOptions
writerOptions(const OutputOptions &opt, double sample_rate_hz)
{
    store::WriterOptions wopt;
    wopt.sampleRateHz = sample_rate_hz;
    wopt.clockHz = opt.clockGhz * 1e9;
    wopt.deviceName = opt.deviceName;
    wopt.codec = opt.quantizeBits == 0 ? store::SampleCodec::F32
                                       : store::SampleCodec::QuantI16;
    wopt.quantBits = static_cast<unsigned>(opt.quantizeBits);
    wopt.compress = opt.compress;
    if (opt.chunkSamples > 0)
        wopt.chunkSamples = static_cast<std::size_t>(opt.chunkSamples);
    return wopt;
}

bool
writeRawF32(const std::string &path, const dsp::TimeSeries &series,
            std::string &error)
{
    common::io::CheckedFile file;
    const bool ok =
        file.open(path, common::io::CheckedFile::Mode::WriteTruncate) &&
        (series.samples.empty() ||
         file.writeAll(series.samples.data(),
                       series.samples.size() * sizeof(float),
                       "raw f32 payload")) &&
        file.close();
    if (!ok)
        error = file.error().describe();
    return ok;
}

int
convert(const std::string &in, const std::string &out,
        const OutputOptions &opt)
{
    dsp::TimeSeries series;
    double clock_ghz = opt.clockGhz;
    std::string device = opt.deviceName;
    std::string open_error;

    if (opt.rawF32 || opt.rawIq) {
        if (opt.rateMhz <= 0.0) {
            std::fprintf(stderr,
                         "--rate-mhz is required for raw inputs\n");
            return 2;
        }
        common::io::IoError io_error;
        if (!dsp::loadRawF32(in, opt.rateMhz * 1e6, opt.rawIq, series,
                             &io_error)) {
            std::fprintf(stderr, "%s\n", io_error.describe().c_str());
            return 1;
        }
    } else if (store::CaptureReader::isEmcap(in, &open_error)) {
        store::CaptureReader reader;
        std::string error;
        if (!reader.open(in, &error) || !reader.readAll(series, &error)) {
            std::fprintf(stderr, "%s: %s\n", in.c_str(), error.c_str());
            return 1;
        }
        // Metadata travels with the capture unless overridden.
        if (clock_ghz == 0.0)
            clock_ghz = reader.info().clockHz / 1e9;
        if (device.empty())
            device = reader.info().deviceName;
    } else if (!open_error.empty()) {
        std::fprintf(stderr, "%s\n", open_error.c_str());
        return 1;
    } else if (dsp::isEmsig(in)) {
        common::io::IoError io_error;
        if (!dsp::loadSignal(in, series, &io_error)) {
            std::fprintf(stderr, "%s\n", io_error.describe().c_str());
            return 1;
        }
    } else {
        std::fprintf(stderr,
                     "%s: unrecognised magic; pass --raw-f32/--raw-iq "
                     "for headerless dumps\n",
                     in.c_str());
        return 1;
    }

    if (opt.impair.any()) {
        dsp::ImpairmentStats istats;
        dsp::applyImpairments(series, opt.impair, &istats);
        std::printf("impaired (ref %.4g): %llu impulses, %llu dropout "
                    "samples, %llu clipped samples\n",
                    istats.referenceLevel,
                    static_cast<unsigned long long>(istats.impulses),
                    static_cast<unsigned long long>(
                        istats.dropoutSamples),
                    static_cast<unsigned long long>(
                        istats.clippedSamples));
    }

    bool ok;
    std::string write_error;
    if (hasSuffix(out, ".emcap")) {
        OutputOptions emcap_opt = opt;
        emcap_opt.clockGhz = clock_ghz;
        emcap_opt.deviceName = device;
        store::WriterStats stats;
        ok = store::writeCapture(out, series,
                                 writerOptions(emcap_opt,
                                               series.sampleRateHz),
                                 &stats, &write_error);
        if (ok)
            std::printf("wrote %s: %llu samples, %llu chunks, "
                        "%.2fx vs raw f32\n",
                        out.c_str(),
                        static_cast<unsigned long long>(stats.samples),
                        static_cast<unsigned long long>(stats.chunks),
                        stats.compressionRatio());
    } else if (hasSuffix(out, ".emsig")) {
        common::io::IoError io_error;
        ok = dsp::saveSignal(out, series, &io_error);
        if (ok)
            std::printf("wrote %s: %zu samples (.emsig)\n", out.c_str(),
                        series.samples.size());
        else
            write_error = io_error.describe();
    } else {
        ok = writeRawF32(out, series, write_error);
        if (ok)
            std::printf("wrote %s: %zu samples (raw f32)\n",
                        out.c_str(), series.samples.size());
    }
    if (!ok) {
        std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                     write_error.c_str());
        return 1;
    }
    return 0;
}

int
recover(const std::string &in, const std::string &out,
        const OutputOptions &opt)
{
    store::CaptureReader reader;
    store::RecoveryReport report;
    std::string error;
    if (!reader.openRecovered(in, &report, &error)) {
        std::fprintf(stderr, "%s: %s\n", in.c_str(), error.c_str());
        return 1;
    }

    std::printf("%s: salvaged %llu chunks / %llu samples "
                "(%llu bytes intact, %llu tail bytes dropped)\n",
                in.c_str(),
                static_cast<unsigned long long>(report.salvagedChunks),
                static_cast<unsigned long long>(report.salvagedSamples),
                static_cast<unsigned long long>(report.salvagedBytes),
                static_cast<unsigned long long>(
                    report.droppedTailBytes));
    if (!report.stopReason.empty())
        std::printf("  scan stopped: %s\n", report.stopReason.c_str());

    if (out.empty())
        return 0; // report-only dry run

    dsp::TimeSeries series;
    series.sampleRateHz = reader.info().sampleRateHz;
    if (!reader.readAll(series, &error)) {
        std::fprintf(stderr, "%s: %s\n", in.c_str(), error.c_str());
        return 1;
    }

    OutputOptions emcap_opt = opt;
    if (emcap_opt.clockGhz == 0.0)
        emcap_opt.clockGhz = reader.info().clockHz / 1e9;
    if (emcap_opt.deviceName.empty())
        emcap_opt.deviceName = reader.info().deviceName;
    if (emcap_opt.quantizeBits == 0 &&
        reader.info().codec == store::SampleCodec::QuantI16)
        emcap_opt.quantizeBits = reader.info().quantBits;

    store::WriterStats stats;
    std::string write_error;
    if (!store::writeCapture(out, series,
                             writerOptions(emcap_opt,
                                           series.sampleRateHz),
                             &stats, &write_error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                     write_error.c_str());
        return 1;
    }
    std::printf("wrote %s: %llu samples in %llu chunks (finalized)\n",
                out.c_str(),
                static_cast<unsigned long long>(stats.samples),
                static_cast<unsigned long long>(stats.chunks));
    return 0;
}

int
cut(const std::string &in, const std::string &out,
    const OutputOptions &opt)
{
    if (!opt.haveStart || !opt.haveCount || opt.numSamples == 0) {
        std::fprintf(stderr,
                     "cut needs --start-sample and --num-samples\n");
        return 2;
    }
    store::CaptureReader reader;
    std::string error;
    if (!reader.open(in, &error)) {
        std::fprintf(stderr, "%s: %s\n", in.c_str(), error.c_str());
        return 1;
    }

    dsp::TimeSeries slice;
    slice.sampleRateHz = reader.info().sampleRateHz;
    if (!reader.readRange(opt.startSample, opt.numSamples,
                          slice.samples, &error)) {
        std::fprintf(stderr, "%s: %s\n", in.c_str(), error.c_str());
        return 1;
    }

    OutputOptions emcap_opt = opt;
    if (emcap_opt.clockGhz == 0.0)
        emcap_opt.clockGhz = reader.info().clockHz / 1e9;
    if (emcap_opt.deviceName.empty())
        emcap_opt.deviceName = reader.info().deviceName;
    // Preserve the source quantisation unless the caller re-chose it.
    if (emcap_opt.quantizeBits == 0 &&
        reader.info().codec == store::SampleCodec::QuantI16)
        emcap_opt.quantizeBits = reader.info().quantBits;

    store::WriterStats stats;
    if (!store::writeCapture(out, slice,
                             writerOptions(emcap_opt,
                                           slice.sampleRateHz),
                             &stats)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s: samples [%llu, %llu) in %llu chunks\n",
                out.c_str(),
                static_cast<unsigned long long>(opt.startSample),
                static_cast<unsigned long long>(opt.startSample +
                                                opt.numSamples),
                static_cast<unsigned long long>(stats.chunks));
    return 0;
}

int
spoolCmd(int argc, char **argv)
{
    const std::string sub = argv[2];
    if (argc < 4) {
        std::fprintf(stderr, "spool %s needs a directory\n",
                     sub.c_str());
        return 2;
    }
    serve::ResultSpool spool;
    serve::ResultSpool::Options options;
    options.dir = argv[3];
    std::string error;
    if (!spool.open(options, &error)) {
        std::fprintf(stderr, "cannot open spool %s: %s\n", argv[3],
                     error.c_str());
        return 1;
    }

    if (sub == "list") {
        const auto &rec = spool.recovery();
        std::printf("spool %s: %llu result(s) in %llu segment(s), "
                    "%llu acked, %llu torn record(s) skipped\n",
                    argv[3],
                    static_cast<unsigned long long>(rec.results),
                    static_cast<unsigned long long>(rec.segments),
                    static_cast<unsigned long long>(rec.acked),
                    static_cast<unsigned long long>(rec.tornRecords));
        for (const auto &entry : spool.list())
            std::printf("%s  status=%u  %u bytes  t=%llu%s\n",
                        serve::sessionIdToHex(entry.id).c_str(),
                        entry.status, entry.payloadBytes,
                        static_cast<unsigned long long>(
                            entry.unixMillis),
                        entry.acked ? "  (acked)" : "");
        return 0;
    }
    if (sub == "gc") {
        const uint64_t removed = spool.gc(&error);
        if (!error.empty()) {
            std::fprintf(stderr, "spool gc: %s\n", error.c_str());
            return 1;
        }
        std::printf("removed %llu segment(s)\n",
                    static_cast<unsigned long long>(removed));
        return 0;
    }
    if (sub == "fetch" || sub == "ack") {
        if (argc < 5) {
            std::fprintf(stderr, "spool %s needs a session id\n",
                         sub.c_str());
            return 2;
        }
        serve::SessionId id;
        if (!serve::sessionIdFromHex(argv[4], id)) {
            std::fprintf(stderr,
                         "bad session id '%s' (expect 32 hex "
                         "digits)\n",
                         argv[4]);
            return 2;
        }
        if (sub == "ack") {
            if (!spool.ack(id, &error)) {
                std::fprintf(stderr, "spool ack: %s\n", error.c_str());
                return 1;
            }
            std::printf("acked %s\n", argv[4]);
            return 0;
        }
        uint32_t status = 0;
        std::vector<uint8_t> payload;
        if (!spool.fetch(id, status, payload, &error)) {
            std::fprintf(stderr, "spool fetch: %s\n", error.c_str());
            return 1;
        }
        serve::DecodedReport report;
        if (!serve::decodeReportPayload(payload, report, &error)) {
            std::fprintf(stderr, "spool fetch: %s\n", error.c_str());
            return 1;
        }
        std::fputs(report.reportText.c_str(), stdout);
        // Exit code carries the report status, same as --push.
        return static_cast<int>(status);
    }
    std::fprintf(stderr, "unknown spool subcommand: %s\n",
                 sub.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Observability flags are accepted anywhere on the command line
    // and stripped before command dispatch so the per-command option
    // parsers never see them.
    tools::ObsCli obs_cli;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (obs_cli.parseArg(argc, argv, i))
            continue;
        if (tools::isHelp(argv[i])) {
            usage(argv[0]);
            return 0;
        }
        args.push_back(argv[i]);
    }
    argc = static_cast<int>(args.size());
    argv = args.data();

    const int rc = [&]() -> int {
        EMPROF_OBS_STAGE("tool.run");
        if (argc < 3) {
            usage(argv[0]);
            return 2;
        }
        const std::string command = argv[1];

        if (command == "inspect")
            return inspect(argv[2]);
        if (command == "verify")
            return verify(argv[2]);
        if (command == "spool")
            return spoolCmd(argc, argv);

        if (command == "recover") {
            // The optional second path is the output; options may
            // follow either form.
            std::string out;
            int first_option = 3;
            if (argc >= 4 && std::strncmp(argv[3], "--", 2) != 0) {
                out = argv[3];
                first_option = 4;
            }
            OutputOptions opt;
            if (parseOptions(argc, argv, first_option, opt) != 0)
                return 2;
            return recover(argv[2], out, opt);
        }

        if (command == "convert" || command == "cut") {
            if (argc < 4) {
                usage(argv[0]);
                return 2;
            }
            OutputOptions opt;
            if (parseOptions(argc, argv, 4, opt) != 0)
                return 2;
            return command == "convert" ? convert(argv[2], argv[3], opt)
                                        : cut(argv[2], argv[3], opt);
        }

        std::fprintf(stderr, "unknown command: %s\n", command.c_str());
        usage(argv[0]);
        return 2;
    }();
    if (!obs_cli.finish() && rc == 0)
        return 1;
    return rc;
}
