/**
 * @file
 * EMCAP store throughput: encode and decode rates plus compression
 * ratio for each codec mode, on harness.hpp's synthetic capture.
 * Results go to stdout and to machine-readable JSON (default
 * BENCH_store.json).
 *
 *   throughput_store [--samples N] [--runs N] [--json PATH]
 *
 * Rates are MB/s of *raw f32 signal* moved through the codec (how fast
 * a 40 MHz * 4 B/s capture stream can be packed and unpacked), from the
 * median of N timed runs after one untimed run; the JSON keeps each
 * direction's median and quartiles.  Each mode verifies its round-trip
 * before publishing a number.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

using namespace emprof;

int
main(int argc, char **argv)
{
    std::size_t total = 8'000'000;
    std::size_t runs = 5;
    std::string json = "BENCH_store.json";
    if (!bench::parseArgs(argc, argv,
                          {{"--samples", total}, {"--runs", runs},
                           {"--json", json}}))
        return 2;
    runs = std::max<std::size_t>(runs, 1);
    std::printf("synthesising %zu-sample capture...\n", total);
    const auto sig = bench::syntheticCapture(total);
    const double raw_mb = static_cast<double>(total) * sizeof(float) / 1e6;

    const struct Mode
    {
        const char *name;
        store::SampleCodec codec;
        unsigned quantBits;
        bool compress;
    } modes[] = {
        {"f32_packed", store::SampleCodec::F32, 0, true},
        {"f32_raw", store::SampleCodec::F32, 0, false},
        {"i16_packed", store::SampleCodec::QuantI16, 16, true},
        {"i16_raw", store::SampleCodec::QuantI16, 16, false},
        {"i12_packed", store::SampleCodec::QuantI16, 12, true},
    };

    std::vector<bench::Json> rows;
    bool ok = true;
    for (const Mode &mode : modes) {
        store::WriterOptions opt;
        opt.sampleRateHz = sig.sampleRateHz;
        opt.clockHz = 1e9;
        opt.deviceName = "bench";
        opt.codec = mode.codec;
        opt.quantBits = mode.quantBits;
        opt.compress = mode.compress;
        const std::string path =
            std::string("bench_store_") + mode.name + ".emcap";

        store::WriterStats stats;
        const auto encode = [&] {
            if (!store::writeCapture(path, sig, opt, &stats)) {
                std::fprintf(stderr, "%s: write failed\n", mode.name);
                ok = false;
            }
        };
        const bench::Timing enc = bench::timeRuns(runs, encode, encode);

        dsp::TimeSeries loaded;
        const auto decode = [&] {
            store::CaptureReader reader;
            std::string error;
            if (!reader.open(path, &error) ||
                !reader.readAll(loaded, &error)) {
                std::fprintf(stderr, "%s: read failed: %s\n", mode.name,
                             error.c_str());
                ok = false;
            }
        };
        const bench::Timing dec = bench::timeRuns(runs, decode, decode);
        std::remove(path.c_str());

        // Publish no number for a codec that does not round-trip.
        double max_err = 0.0;
        if (loaded.samples.size() != total) {
            std::fprintf(stderr, "%s: sample count mismatch\n", mode.name);
            ok = false;
        } else {
            for (std::size_t i = 0; i < total; ++i)
                max_err = std::max(
                    max_err,
                    std::fabs(static_cast<double>(loaded.samples[i]) -
                              static_cast<double>(sig.samples[i])));
            if (mode.codec == store::SampleCodec::F32 && max_err != 0.0) {
                std::fprintf(stderr, "%s: lossless mode lost bits\n",
                             mode.name);
                ok = false;
            }
        }
        if (!ok)
            return 1;

        std::printf("%-11s: encode %7.1f MB/s  decode %7.1f MB/s  "
                    "%5.2fx  max-err %.2e\n",
                    mode.name, raw_mb / enc.seconds.median,
                    raw_mb / dec.seconds.median,
                    stats.compressionRatio(), max_err);
        rows.push_back(bench::Json()
                           .add("mode", mode.name)
                           .add("encode_seconds", enc.seconds)
                           .add("decode_seconds", dec.seconds)
                           .add("encode_mb_per_sec",
                                raw_mb / enc.seconds.median)
                           .add("decode_mb_per_sec",
                                raw_mb / dec.seconds.median)
                           .add("compression_ratio",
                                stats.compressionRatio())
                           .add("max_abs_error", max_err)
                           .add("file_bytes", stats.fileBytes));
    }

    bench::Json doc = bench::document("throughput_store");
    doc.add("samples", total)
        .add("raw_mb", raw_mb)
        .add("timed_runs_per_mode", runs)
        .add("runs", rows);
    return bench::writeJson(json, doc) ? 0 : 1;
}
