/**
 * @file
 * Shared definitions for the golden end-to-end regression fixture.
 *
 * The generator (golden_gen.cpp), the regression test
 * (test_golden_pipeline.cpp) and the served-path suites include this
 * header, so the signal, the analysis configuration and the
 * expected-events file format are defined exactly once; events are
 * compared with parity::eventsDiff (tests/parity.hpp).  The fixture
 * is checked in; the generator exists to (re)create it deliberately
 * when the pipeline's *intended* output changes — never as part of
 * the build.
 *
 * Doubles are serialised as the hex of their IEEE-754 bit pattern, so
 * the comparison in the test is bit-exact: a change of a single ULP in
 * any event field fails the suite.
 */

#ifndef EMPROF_TESTS_E2E_GOLDEN_COMMON_HPP
#define EMPROF_TESTS_E2E_GOLDEN_COMMON_HPP

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "profiler/events.hpp"
#include "profiler/profiler.hpp"
#include "store/capture_writer.hpp"

#include "../parity.hpp"

namespace emprof::golden {

/// Fixture file names inside EMPROF_GOLDEN_DIR.
inline constexpr const char *kCaptureFile = "golden.emcap";
inline constexpr const char *kTruncatedFile = "golden_truncated.emcap";
inline constexpr const char *kExpectedFile = "golden_expected.json";
inline constexpr const char *kTruncatedExpectedFile =
    "golden_truncated_expected.json";

/// Signal shape.
inline constexpr std::size_t kSamples = 8192;
inline constexpr double kSampleRateHz = 40e6;
inline constexpr uint64_t kSeed = 0x601dfeedull;

/// Capture container shape: 8 full chunks of 1024 samples.
inline constexpr std::size_t kChunkSamples = 1024;

/// The truncated variant ends mid-way through the 6th chunk, so
/// recovery salvages exactly 5 chunks (5120 samples).
inline constexpr std::size_t kTruncatedSalvagedChunks = 5;

/// Device name exercises JSON escaping in the metrics label path.
inline constexpr const char *kDeviceName = "golden \"probe\\1\"";

/**
 * Deterministic synthetic magnitude trace: a noisy plateau around 1.0
 * with planted dips of varying width and depth, including two wide
 * (refresh-class) dips.  Pure dsp::Rng arithmetic — no time, no
 * platform dependence.
 */
inline dsp::TimeSeries
goldenSignal()
{
    dsp::TimeSeries s;
    s.sampleRateHz = kSampleRateHz;
    s.samples.resize(kSamples);
    dsp::Rng rng(kSeed);
    for (std::size_t i = 0; i < kSamples; ++i)
        s.samples[i] =
            static_cast<dsp::Sample>(1.0 + rng.uniform(-0.05, 0.05));

    // Dips every 512 samples; width cycles 4..18 samples, floor level
    // cycles between deep (0.08) and shallow-but-valid (0.25).
    for (std::size_t start = 256; start + 64 < kSamples; start += 512) {
        const std::size_t width = 4 + (start / 512) % 15;
        const double floor_level = (start / 512) % 2 == 0 ? 0.08 : 0.25;
        for (std::size_t i = 0; i < width; ++i)
            s.samples[start + i] = static_cast<dsp::Sample>(
                floor_level + rng.uniform(0.0, 0.02));
    }
    // Two refresh-class dips (>1200 ns = >48 samples at 40 MHz).
    for (std::size_t start : {std::size_t{3000}, std::size_t{6500}}) {
        for (std::size_t i = 0; i < 60; ++i)
            s.samples[start + i] = static_cast<dsp::Sample>(
                0.1 + rng.uniform(0.0, 0.02));
    }
    return s;
}

/** Analysis configuration the whole fixture is pinned to. */
inline profiler::EmProfConfig
goldenConfig()
{
    profiler::EmProfConfig config;
    config.sampleRateHz = kSampleRateHz;
    config.clockHz = 1e9;
    // 1024-sample normalisation window (25.6 us at 40 MHz).
    config.normWindowSeconds = 25.6e-6;
    return config;
}

/** Writer options for the checked-in capture. */
inline store::WriterOptions
goldenWriterOptions()
{
    store::WriterOptions wopt;
    wopt.sampleRateHz = kSampleRateHz;
    wopt.clockHz = 1e9;
    wopt.deviceName = kDeviceName;
    wopt.codec = store::SampleCodec::F32;
    wopt.chunkSamples = kChunkSamples;
    return wopt;
}

inline std::string
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
    return buf;
}

inline double
bitsToDouble(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Render events as JSON: valid JSON for external tooling, and
 * line-per-event so the test can parse it back with sscanf alone.
 */
inline std::string
eventsToJson(const std::vector<profiler::StallEvent> &events)
{
    // Version 2 added the service-level attribution fields (level as
    // its enum integer, level_confidence as IEEE-754 bits).
    std::string out = "{\n\"version\": 2,\n\"count\": " +
                      std::to_string(events.size()) +
                      ",\n\"events\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &ev = events[i];
        char line[320];
        std::snprintf(
            line, sizeof(line),
            "{\"start\": %llu, \"end\": %llu, \"depth\": \"%s\", "
            "\"duration_ns\": \"%s\", \"stall_cycles\": \"%s\", "
            "\"kind\": %d, \"level\": %d, "
            "\"level_confidence\": \"%s\"}%s\n",
            static_cast<unsigned long long>(ev.startSample),
            static_cast<unsigned long long>(ev.endSample),
            doubleBits(ev.depth).c_str(),
            doubleBits(ev.durationNs).c_str(),
            doubleBits(ev.stallCycles).c_str(),
            static_cast<int>(ev.kind), static_cast<int>(ev.level),
            doubleBits(ev.levelConfidence).c_str(),
            i + 1 < events.size() ? "," : "");
        out += line;
    }
    out += "]\n}\n";
    return out;
}

/**
 * Parse the eventsToJson format.  Returns false (with a reason) on any
 * structural mismatch, including a count that disagrees with the
 * number of event lines.  The format does not record `confidence`, so
 * parsed events carry the classic value, 1.0.
 */
inline bool
eventsFromJson(const std::string &text,
               std::vector<profiler::StallEvent> &events,
               std::string *why = nullptr)
{
    const auto fail = [&](const char *reason) {
        if (why != nullptr)
            *why = reason;
        return false;
    };
    events.clear();
    long long declared = -1;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;

        if (std::sscanf(line.c_str(), "\"count\": %lld", &declared) == 1)
            continue;
        unsigned long long start = 0, end = 0;
        uint64_t depth = 0, duration = 0, cycles = 0, level_conf = 0;
        int kind = 0, level = 0;
        if (std::sscanf(line.c_str(),
                        "{\"start\": %llu, \"end\": %llu, "
                        "\"depth\": \"%" SCNx64 "\", "
                        "\"duration_ns\": \"%" SCNx64 "\", "
                        "\"stall_cycles\": \"%" SCNx64 "\", "
                        "\"kind\": %d, \"level\": %d, "
                        "\"level_confidence\": \"%" SCNx64 "\"",
                        &start, &end, &depth, &duration, &cycles, &kind,
                        &level, &level_conf) == 8) {
            profiler::StallEvent ev;
            ev.startSample = start;
            ev.endSample = end;
            ev.depth = bitsToDouble(depth);
            ev.durationNs = bitsToDouble(duration);
            ev.stallCycles = bitsToDouble(cycles);
            ev.kind = static_cast<profiler::StallKind>(kind);
            ev.level = static_cast<profiler::ServiceLevel>(level);
            ev.levelConfidence = bitsToDouble(level_conf);
            events.push_back(ev);
        }
    }
    if (declared < 0)
        return fail("no count line");
    if (static_cast<std::size_t>(declared) != events.size())
        return fail("count disagrees with number of event lines");
    return true;
}

} // namespace emprof::golden

#endif // EMPROF_TESTS_E2E_GOLDEN_COMMON_HPP
