/**
 * @file
 * The one event comparator of every parity suite.  Two event lists
 * match when they agree event for event in all nine StallEvent fields,
 * each double compared by its IEEE-754 bit pattern: a one-ulp change
 * fails, and so does -0.0 in place of 0.0, which a comparison by value
 * lets through.
 */

#ifndef EMPROF_TESTS_PARITY_HPP
#define EMPROF_TESTS_PARITY_HPP

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "profiler/events.hpp"

namespace emprof::parity {

/** The IEEE-754 bit pattern of @p v. */
inline uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/**
 * Empty when @p actual matches @p expected (see file comment);
 * otherwise the first difference, naming the event and the field
 * (values in hex).
 */
inline std::string
eventsDiff(const std::vector<profiler::StallEvent> &expected,
           const std::vector<profiler::StallEvent> &actual)
{
    if (expected.size() != actual.size())
        return std::to_string(actual.size()) + " events, expected " +
               std::to_string(expected.size());
    const auto hex = [](uint64_t v) {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
        return std::string(buf);
    };
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const profiler::StallEvent &e = expected[i];
        const profiler::StallEvent &a = actual[i];
        const struct
        {
            const char *name;
            uint64_t want, got;
        } fields[] = {
            {"startSample", e.startSample, a.startSample},
            {"endSample", e.endSample, a.endSample},
            {"depth", bits(e.depth), bits(a.depth)},
            {"durationNs", bits(e.durationNs), bits(a.durationNs)},
            {"stallCycles", bits(e.stallCycles), bits(a.stallCycles)},
            {"confidence", bits(e.confidence), bits(a.confidence)},
            {"kind", static_cast<uint64_t>(e.kind),
             static_cast<uint64_t>(a.kind)},
            {"level", static_cast<uint64_t>(e.level),
             static_cast<uint64_t>(a.level)},
            {"levelConfidence", bits(e.levelConfidence),
             bits(a.levelConfidence)},
        };
        for (const auto &f : fields)
            if (f.want != f.got)
                return "event " + std::to_string(i) + " " + f.name +
                       ": expected " + hex(f.want) + ", got " + hex(f.got);
    }
    return "";
}

} // namespace emprof::parity

#endif // EMPROF_TESTS_PARITY_HPP
