/**
 * @file
 * The timing harness every bench/throughput_* program shares: the
 * synthetic capture, one flag parser, an untimed warm-up plus N timed
 * runs reported as median and quartiles, one instrumented pass for the
 * stage breakdown and worker overlap, and one JSON emitter that stamps
 * `bench`, `hardware_threads` and `commit`.
 */

#ifndef EMPROF_BENCH_HARNESS_HPP
#define EMPROF_BENCH_HARNESS_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <time.h>

#include "common/thread_pool.hpp"
#include "dsp/rng.hpp"
#include "dsp/series_ops.hpp"
#include "dsp/types.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "obs/tracer.hpp"

namespace emprof::bench {

/**
 * A 40 MHz capture of @p total samples from a memory-bound workload: a
 * busy level of 1.0, miss-like dips to 0.2 (8-14 samples, 200-350 ns)
 * every ~2 us and an occasional refresh-length stall, roughly Fig. 4's
 * phenomenology.  The dips carry the same sensor noise as the busy
 * level: an exactly constant floor would (correctly) read as a
 * stuck-sample dropout to the resilient classifier.
 */
inline dsp::TimeSeries
syntheticCapture(std::size_t total)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(0xca97);
    const auto noise = [&] {
        return static_cast<float>(0.02 * (rng.uniform() - 0.5));
    };
    for (auto &x : s.samples)
        x += noise();
    std::size_t pos = 1000;
    while (pos + 120 < total) {
        const std::size_t len = rng.chance(0.01) ? 100 : 8 + rng.below(7);
        for (std::size_t i = pos; i < pos + len; ++i)
            s.samples[i] = 0.2f + noise();
        pos += len + 40 + rng.below(120);
    }
    return s;
}

/** One flag and the variable it sets: a count, a real number or a
 *  path, or a switch (a bool) that takes no value. */
struct Flag
{
    template <typename T>
    Flag(const char *flag, T &to)
        : name(flag), takesValue(!std::is_same_v<T, bool>),
          set([&to](const char *v) {
              if constexpr (std::is_same_v<T, bool>)
                  to = true;
              else if constexpr (std::is_same_v<T, double>)
                  to = std::atof(v);
              else if constexpr (std::is_same_v<T, std::string>)
                  to = v;
              else
                  to = static_cast<T>(std::strtoull(v, nullptr, 10));
          })
    {}

    const char *name;
    bool takesValue;
    std::function<void(const char *)> set;
};

/** Parse @p argv into @p flags (every program spells its sample
 *  count, timed runs and output `--samples`, `--runs` and `--json`); on
 *  anything else print the usage line and return false. */
inline bool
parseArgs(int argc, char **argv, const std::vector<Flag> &flags)
{
    for (int i = 1; i < argc; ++i) {
        const auto flag =
            std::find_if(flags.begin(), flags.end(), [&](const Flag &f) {
                return !std::strcmp(argv[i], f.name) &&
                       (i + 1 < argc || !f.takesValue);
            });
        if (flag == flags.end()) {
            std::string usage = std::string("usage: ") + argv[0];
            for (const Flag &f : flags)
                usage += std::string(" [") + f.name +
                         (f.takesValue ? " V]" : "]");
            std::fprintf(stderr, "%s\n", usage.c_str());
            return false;
        }
        flag->set(flag->takesValue ? argv[++i] : nullptr);
    }
    return true;
}

/** Median and quartiles of a set of measurements. */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

inline Quartiles
quartiles(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return {dsp::percentileSorted(values, 25.0),
            dsp::percentileSorted(values, 50.0),
            dsp::percentileSorted(values, 75.0)};
}

/** What timeRuns() measured. */
struct Timing
{
    Quartiles seconds;        ///< steady clock
    Quartiles cpuSeconds;     ///< CPU time of the whole process
    Quartiles sysSeconds;     ///< of which in the kernel (ru_stime)
    double minorFaults = 0.0; ///< median per timed run, whole process
};

/**
 * Run @p warmUp once untimed, then @p body @p runs (>= 1) times, each
 * timed on the steady clock and on the process CPU clock, with the
 * process's system time and minor page faults beside them.  A run on
 * the calling thread alone reads about the same on both clocks on a
 * quiet host; other processes on the host stretch only the steady
 * clock.  Metrics and tracing are off throughout, so the numbers
 * measure the program, not its instrumentation.
 */
template <typename WarmUp, typename Body>
Timing
timeRuns(std::size_t runs, WarmUp &&warmUp, Body &&body)
{
    obs::MetricsRegistry::setEnabled(false);
    obs::Tracer::setEnabled(false);
    const auto usageNow = [] {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        return usage;
    };
    const auto sysSeconds = [](const rusage &usage) {
        return static_cast<double>(usage.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
    };
    const auto cpuNow = [] {
        timespec ts{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    };
    warmUp();
    std::vector<double> seconds, cpu, sys, faults;
    for (std::size_t r = 0; r < runs; ++r) {
        const rusage usage0 = usageNow();
        const double cpu0 = cpuNow();
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        cpu.push_back(cpuNow() - cpu0);
        const rusage usage1 = usageNow();
        sys.push_back(sysSeconds(usage1) - sysSeconds(usage0));
        faults.push_back(
            static_cast<double>(usage1.ru_minflt - usage0.ru_minflt));
        seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    return {quartiles(std::move(seconds)), quartiles(std::move(cpu)),
            quartiles(std::move(sys)), quartiles(std::move(faults)).median};
}

/** One JSON object, fields in insertion order.  text(false) writes it
 *  on one line; text(true) one field per line, as in BENCH_*.json. */
class Json
{
  public:
    Json &
    add(const char *key, double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), std::fabs(v) < 1e6 ? "%.6g" : "%.0f",
                      v);
        return raw(key, std::isfinite(v) ? buf : "null");
    }

    template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
    Json &
    add(const char *key, T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return raw(key, v ? "true" : "false");
        else
            return raw(key, std::to_string(v));
    }

    Json &
    add(const char *key, const std::string &v)
    {
        std::string quoted = "\"";
        for (const char c : v)
            if (static_cast<unsigned char>(c) >= 0x20)
                quoted += c == '"' || c == '\\' ? std::string("\\") + c
                                                 : std::string(1, c);
        return raw(key, quoted + "\"");
    }

    Json &
    add(const char *key, const Json &v)
    {
        return raw(key, v.text(false));
    }

    Json &
    add(const char *key, const Quartiles &q)
    {
        Json v;
        v.add("median", q.median).add("q1", q.q1).add("q3", q.q3);
        return add(key, v);
    }

    /** An array, one element per line. */
    Json &
    add(const char *key, const std::vector<Json> &rows)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < rows.size(); ++i)
            text += (i == 0 ? "\n    " : ",\n    ") + rows[i].text(false);
        return raw(key, text + "\n  ]");
    }

    std::string
    text(bool multiline) const
    {
        std::string out = multiline ? "{\n  " : "{";
        for (std::size_t i = 0; i < fields_.size(); ++i)
            out += (i == 0 ? "" : multiline ? ",\n  " : ", ") +
                   ("\"" + fields_[i].first + "\": ") + fields_[i].second;
        return out + (multiline ? "\n}\n" : "}");
    }

  private:
    Json &
    raw(const char *key, std::string value)
    {
        fields_.emplace_back(key, std::move(value));
        return *this;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

/** What one instrumented pass saw. */
struct Instrumented
{
    /// Total ns per stage, keyed without the `stage.` and `.ns` affixes.
    Json stagesNs;
    /// Most `analyzer.chunk` spans open at one instant.  A thread's
    /// chunk spans never nest: 2 or more means workers ran together.
    std::size_t chunkOverlap = 0;
};

/** Run @p body once, untimed, with metrics and tracing on. */
template <typename Body>
Instrumented
instrumentedPass(Body &&body)
{
    obs::MetricsRegistry::setEnabled(true);
    obs::MetricsRegistry::instance().resetValues();
    obs::Tracer::setEnabled(true);
    const uint64_t since = obs::Tracer::nowNs();
    body();
    obs::Tracer::setEnabled(false);
    obs::MetricsRegistry::setEnabled(false);

    // Every `stage.` histogram is EMPROF_OBS_STAGE's `stage.<name>.ns`.
    Instrumented out;
    const std::string prefix = obs::kStageMetricPrefix;
    const std::size_t affixes =
        prefix.size() + std::strlen(obs::kStageMetricSuffix);
    for (const auto &[name, hist] :
         obs::MetricsRegistry::instance().scrape().histograms)
        if (hist.sum != 0 && name.rfind(prefix, 0) == 0 &&
            name.size() > affixes)
            out.stagesNs.add(
                name.substr(prefix.size(), name.size() - affixes).c_str(),
                hist.sum);

    // Sweep the chunk spans' edges in time order; at one instant an end
    // sorts before a start, so spans that merely touch do not overlap.
    std::vector<std::pair<uint64_t, int>> edges;
    for (const obs::SpanRecord &span : obs::Tracer::instance().snapshot())
        if (span.startNs >= since &&
            std::strcmp(span.name, "analyzer.chunk") == 0) {
            edges.emplace_back(span.startNs, 1);
            edges.emplace_back(span.startNs + span.durationNs, -1);
        }
    std::sort(edges.begin(), edges.end());
    long open = 0;
    for (const auto &edge : edges) {
        open += edge.second;
        out.chunkOverlap =
            std::max(out.chunkOverlap, static_cast<std::size_t>(open));
    }
    return out;
}

/** `git describe --always --dirty` of the source tree, or "unknown"
 *  outside a checkout. */
inline std::string
sourceCommit()
{
    std::string out;
    if (std::FILE *pipe = ::popen("git -C '" EMPROF_SOURCE_DIR
                                  "' describe --always --dirty 2>/dev/null",
                                  "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), pipe) != nullptr)
            out += buf;
        if (::pclose(pipe) != 0)
            out.clear();
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

/** A BENCH_*.json document, opening with `bench`, `hardware_threads`
 *  and `commit`; the program adds its own fields after them. */
inline Json
document(const char *bench)
{
    return Json()
        .add("bench", std::string(bench))
        .add("hardware_threads", common::ThreadPool::hardwareThreads())
        .add("commit", sourceCommit());
}

/** Write @p doc to @p path; false, with a message, when it cannot. */
inline bool
writeJson(const std::string &path, const Json &doc)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    const bool ok = f != nullptr && std::fputs(doc.text(true).c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace emprof::bench

#endif // EMPROF_BENCH_HARNESS_HPP
