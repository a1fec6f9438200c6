/**
 * @file
 * What a workload run receives and what it reports.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/** The inputs that define a workload. */
struct WorkloadShape
{
    const char *name;
    std::size_t inputs; ///< distinct captures
    uint64_t samples;   ///< per capture
    const char *title;  ///< report title the reference renders
};

constexpr WorkloadShape kWorkloads[] = {
    {"offline_capture", 2, uint64_t{1} << 26, "EMPROF report:"},
    {"serve_small", 64, 4096, "served capture"},
    {"serve_large_durable", 8, uint64_t{1} << 21, "served capture"},
};

struct RunOptions
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workdir;  ///< scratch directory, relative to the cwd
    std::string traceOut; ///< Chrome trace file (trace runs)
    std::size_t systemThreads = 1; ///< server pool / offline workers
    std::size_t uploaders = 1;     ///< closed-loop client threads
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0; ///< observations behind the value
    /** For a percentile: observations strictly beyond it. */
    long beyond = -1;
};

struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra run metadata, as key -> JSON value text. */
    std::map<std::string, std::string> meta;
    std::string ledger;              ///< human-readable ledger
    std::vector<std::string> errors; ///< first mismatches, for stderr
    bool ok = true; ///< false when the run itself broke (not a mismatch)

    void
    add(const std::string &name, double value, const std::string &unit,
        std::size_t samples, long beyond = -1)
    {
        metrics.push_back({name, value, unit, samples, beyond});
    }

    /** Record a failed operation (kept to a few descriptions). */
    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }
};

/** Latency percentiles of one set of operations, in ms. */
void addLatencyMetrics(RunResult &result, const std::vector<double> &ms);

RunResult runOffline(const RunOptions &options, const InputSet &inputs);
RunResult runServed(const RunOptions &options, const InputSet &inputs,
                    bool large);

/** Put @p ledger into @p result and write @p spans to the trace file. */
void attachTrace(RunResult &result, const RunOptions &options,
                 const Ledger &ledger, const std::vector<Span> &spans);

/** JSON string literal for @p s. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
