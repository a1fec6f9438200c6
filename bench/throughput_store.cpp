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
 *
 * The kernel rows time the two layers under every chunk decode on their
 * own, over 8 Mi samples' worth of default-size chunks: CRC32C in
 * ns/byte over the lossless payloads (portable tables and SSE4.2), and
 * the miniblock unpack in ns/sample per codec (scalar and AVX2), each
 * from CPU-second medians.  The calls cycle over four stored chunks
 * (under 1 MB of payload), since a reader runs both kernels on a chunk
 * it has just read into its buffer, not on payloads that stream from
 * DRAM.  A path the CPU lacks prints "unavailable" and a path the build
 * leaves out is not listed; neither gets a row.  Each CRC path's digests
 * must equal crc32c()'s and each unpack path's samples decodeChunk's.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"
#include "store/chunk_codec.hpp"
#include "store/chunk_codec_detail.hpp"
#include "store/crc32c.hpp"
#include "store/crc32c_detail.hpp"

using namespace emprof;

namespace {

/** A stored chunk's payload, followed by the unpackers' slack. */
struct PackedChunk
{
    std::vector<uint8_t> bytes;
    std::size_t payloadBytes = 0;
    std::size_t count = 0;
    float scale = 1.0f;
};

/** The chunks of @p sig, at kDefaultChunkSamples each, that the
 *  encoder packs (it stores the rest Raw). */
std::vector<PackedChunk>
packChunks(const dsp::TimeSeries &sig, store::SampleCodec codec)
{
    store::EncoderOptions opt;
    opt.codec = codec;
    std::vector<PackedChunk> chunks;
    for (std::size_t at = 0; at < sig.samples.size();
         at += store::kDefaultChunkSamples) {
        const std::size_t count = std::min(store::kDefaultChunkSamples,
                                           sig.samples.size() - at);
        auto enc = store::encodeChunk(sig.samples.data() + at, count, opt);
        if (enc.encoding != store::ChunkEncoding::DeltaPacked)
            continue;
        const std::size_t payload = enc.payload.size();
        enc.payload.resize(payload + store::detail::kUnpackSlack);
        chunks.push_back({std::move(enc.payload), payload, count, enc.scale});
    }
    return chunks;
}

/** Unpack @p chunk into @p out with @p unpack, block by block as
 *  decodeChunk walks it; false when a block is refused. */
bool
unpackChunk(const PackedChunk &chunk, store::SampleCodec codec,
            store::detail::UnpackFn unpack, dsp::Sample *out)
{
    const uint8_t *p = chunk.bytes.data();
    uint64_t prev = 0;
    std::memcpy(&prev, p, sizeof(prev));
    p += 8;
    out[0] = codec == store::SampleCodec::F32
                 ? std::bit_cast<float>(static_cast<uint32_t>(prev))
                 : static_cast<float>(static_cast<int64_t>(prev)) *
                       chunk.scale;
    for (std::size_t g = 1; g < chunk.count; g += store::detail::kMiniblock) {
        const std::size_t n =
            std::min(store::detail::kMiniblock, chunk.count - g);
        const unsigned width = *p++;
        if (unpack(p, width, n, codec, chunk.scale, prev, out + g) != 0)
            return false;
        p += (n * width + 7) / 8;
    }
    return true;
}

} // namespace

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

    constexpr std::size_t kKernelSamples = std::size_t{1} << 23;
    const auto kernel_sig =
        bench::syntheticCapture(4 * store::kDefaultChunkSamples);
    // Calls @p call on the chunks in turn until kKernelSamples samples'
    // worth; returns the payload bytes covered.
    const auto eachCall = [](const std::vector<PackedChunk> &chunks,
                             auto &&call) {
        std::size_t samples = 0;
        std::size_t bytes = 0;
        for (std::size_t i = 0; samples < kKernelSamples;
             i = (i + 1) % chunks.size()) {
            call(chunks[i]);
            samples += chunks[i].count;
            bytes += chunks[i].payloadBytes;
        }
        return bytes;
    };
    std::vector<bench::Json> kernels;
    const auto kernelRow = [&](const char *kernel, const char *path,
                               const bench::Timing &t, const char *unit,
                               double per) {
        const double ns = t.cpuSeconds.median * 1e9 / per;
        std::printf("%-7s %-14s: %6.3f ns/%s (CPU median)\n", kernel,
                    path, ns, unit);
        const std::string count_key = std::string(unit) + "s";
        const std::string ns_key = std::string("ns_per_") + unit;
        kernels.push_back(bench::Json()
                              .add("kernel", kernel)
                              .add("path", path)
                              .add("cpu_seconds", t.cpuSeconds)
                              .add("seconds", t.seconds)
                              .add(count_key.c_str(),
                                   static_cast<std::size_t>(per))
                              .add(ns_key.c_str(), ns));
    };

    // CRC32C over the lossless payloads, one call per chunk as the
    // readers make it; each path's digests must match crc32c()'s.
    const auto f32_chunks = packChunks(kernel_sig, store::SampleCodec::F32);
    uint32_t want_digest = 0;
    const std::size_t crc_bytes =
        eachCall(f32_chunks, [&](const PackedChunk &chunk) {
            want_digest ^=
                store::crc32c(0, chunk.bytes.data(), chunk.payloadBytes);
        });
    using CrcFn = uint32_t (*)(uint32_t, const void *, std::size_t);
    const struct
    {
        const char *name;
        CrcFn fn;
    } crcs[] = {
        {"portable", store::detail::crc32cPortable},
#if !defined(EMPROF_DISABLE_SIMD)
        {"sse4.2", store::detail::crc32cSse42Available()
                       ? store::detail::crc32cSse42
                       : nullptr},
#endif
    };
    for (const auto &crc : crcs) {
        if (crc.fn == nullptr) {
            std::printf("crc32c  %-14s: unavailable\n", crc.name);
            continue;
        }
        uint32_t digest = 0;
        const auto body = [&] {
            uint32_t d = 0;
            eachCall(f32_chunks, [&](const PackedChunk &chunk) {
                d ^= crc.fn(0, chunk.bytes.data(), chunk.payloadBytes);
            });
            digest = d;
        };
        const bench::Timing t = bench::timeRuns(runs, body, body);
        if (digest != want_digest) {
            std::fprintf(stderr, "crc32c %s: digests differ\n", crc.name);
            return 1;
        }
        kernelRow("crc32c", crc.name, t, "byte",
                  static_cast<double>(crc_bytes));
    }

    // The miniblock unpack, per codec and path, into one chunk-sized
    // buffer (as a reader decodes into its window), after a pass that
    // holds every path's samples to decodeChunk's.
    const struct
    {
        const char *name;
        store::detail::UnpackFn fn;
    } unpackers[] = {
        {"scalar", store::detail::unpackBlockScalar},
#if !defined(EMPROF_DISABLE_SIMD)
        {"avx2", store::detail::unpackAvx2Available()
                     ? store::detail::unpackBlockAvx2
                     : nullptr},
#endif
    };
    std::vector<dsp::Sample> want(store::kDefaultChunkSamples);
    std::vector<dsp::Sample> got(store::kDefaultChunkSamples);
    for (const auto codec :
         {store::SampleCodec::F32, store::SampleCodec::QuantI16}) {
        const bool f32 = codec == store::SampleCodec::F32;
        const auto chunks =
            f32 ? f32_chunks : packChunks(kernel_sig, codec);
        if (chunks.empty()) {
            std::fprintf(stderr, "unpack: no chunk packed\n");
            return 1;
        }
        for (const auto &unpacker : unpackers) {
            const std::string path =
                std::string(f32 ? "f32 " : "i16 ") + unpacker.name;
            if (unpacker.fn == nullptr) {
                std::printf("unpack  %-14s: unavailable\n", path.c_str());
                continue;
            }
            for (const PackedChunk &chunk : chunks) {
                const std::size_t bytes = chunk.count * sizeof(float);
                if (!store::decodeChunk(chunk.bytes.data(),
                                        chunk.payloadBytes,
                                        store::ChunkEncoding::DeltaPacked,
                                        codec, chunk.scale, chunk.count,
                                        want.data()) ||
                    !unpackChunk(chunk, codec, unpacker.fn, got.data()) ||
                    std::memcmp(got.data(), want.data(), bytes) != 0) {
                    std::fprintf(stderr, "unpack %s: samples differ from "
                                         "decodeChunk\n",
                                 path.c_str());
                    return 1;
                }
            }
            const auto body = [&] {
                eachCall(chunks, [&](const PackedChunk &chunk) {
                    ok = unpackChunk(chunk, codec, unpacker.fn,
                                     got.data()) &&
                         ok;
                });
            };
            const bench::Timing t = bench::timeRuns(runs, body, body);
            if (!ok)
                return 1;
            kernelRow("unpack", path.c_str(), t, "sample",
                      static_cast<double>(kKernelSamples));
        }
    }

    bench::Json doc = bench::document("throughput_store");
    doc.add("samples", total)
        .add("raw_mb", raw_mb)
        .add("timed_runs_per_mode", runs)
        .add("runs", rows)
        .add("kernel_samples", kKernelSamples)
        .add("kernels", kernels);
    return bench::writeJson(json, doc) ? 0 : 1;
}
