/**
 * @file
 * Real-time feasibility of the streaming DSP stages.
 *
 * EMPROF must keep up with the SDR stream: at a 160 MHz measurement
 * bandwidth the profiler consumes 160 Msamples/s of magnitude data,
 * and the synthesis chain used for experiments consumes one sample per
 * core cycle.  Each row pushes one input stream sample by sample
 * through a fresh stage, as an untimed warm-up on an eighth of the
 * stream plus N timed runs (harness.hpp), and reports samples per
 * second:
 *
 *  - `minmax_filter` float and double, windows 1024 and 160 000;
 *  - `normalizer`: the classic MovingMinMaxNormalizer, window 160 000;
 *  - `decimating_fir` at factors 6, 25 and 50 (63 complex taps);
 *  - `probe_chain` at 20, 40 and 160 MHz receiver bandwidth, on an
 *    eighth of the stream (one push costs about ten filter pushes).
 *
 * The default stream (4 Mi samples) keeps every timed run in the tens
 * of milliseconds.  EmProf::analyze is timed by throughput_pipeline's
 * `streaming` row.
 *
 *   throughput_dsp [--samples N] [--runs N] [--json PATH]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "dsp/fir.hpp"
#include "dsp/minmax_filter.hpp"
#include "dsp/rng.hpp"
#include "em/capture.hpp"
#include "harness.hpp"
#include "profiler/normalizer.hpp"

using namespace emprof;

namespace {

/** Busy level ~1.0 with noise and a dip to ~0.2 one sample in 40. */
std::vector<float>
noisySignal(std::size_t n)
{
    std::vector<float> v(n);
    dsp::Rng rng(7);
    for (auto &x : v)
        x = static_cast<float>(1.0 + 0.1 * rng.uniform() -
                               ((rng.below(40) == 0) ? 0.8 : 0.0));
    return v;
}

template <typename T>
double
minMaxPass(const float *x, std::size_t n, std::size_t window)
{
    dsp::MinMaxFilter<T> mm(window);
    for (std::size_t i = 0; i < n; ++i)
        mm.push(static_cast<T>(x[i]));
    return static_cast<double>(mm.min()) + static_cast<double>(mm.max());
}

double
normalizerPass(const float *x, std::size_t n)
{
    profiler::MovingMinMaxNormalizer norm(160'000);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += norm.push(x[i]);
    return acc;
}

double
firPass(const float *x, std::size_t n, std::size_t factor)
{
    dsp::DecimatingFir<dsp::Complex> fir(
        dsp::designLowPass(63, 0.45 / static_cast<double>(factor)),
        factor);
    dsp::Complex out;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (fir.push({x[i], 0.5f * x[i]}, out))
            acc += out.real();
    return acc;
}

double
probeChainPass(const float *x, std::size_t n, double bandwidthMhz)
{
    em::ProbeChainConfig cfg;
    cfg.receiver.bandwidthHz = bandwidthMhz * 1e6;
    em::ProbeChain chain(cfg, 1.008e9);
    dsp::Sample out;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (chain.push(0.7f * x[i], out))
            acc += out;
    return acc;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t total = std::size_t{1} << 22; // 4 Mi samples
    std::size_t runs = 5;
    std::string json;
    if (!bench::parseArgs(argc, argv,
                          {{"--samples", total}, {"--runs", runs},
                           {"--json", json}}))
        return 2;
    runs = std::max<std::size_t>(runs, 1);
    const std::vector<float> input = noisySignal(total);

    std::vector<bench::Json> rows;
    // Every pass's result lands here, so no pass can be optimised away.
    volatile double sink = 0.0;
    // One row: @p pass(x, n) pushes the first n samples of the input.
    const auto row = [&](const std::string &stage, const std::string &arg,
                         std::size_t n, auto pass) {
        const bench::Timing t = bench::timeRuns(
            runs, [&] { sink = pass(input.data(), n / 8); },
            [&] { sink = pass(input.data(), n); });
        const std::string label = stage + " " + arg;
        std::printf("%-28s %7.1f ms [%.1f, %.1f]  %8.1f Msamples/s\n",
                    label.c_str(), 1e3 * t.seconds.median,
                    1e3 * t.seconds.q1, 1e3 * t.seconds.q3,
                    n / t.seconds.median / 1e6);
        rows.push_back(bench::Json()
                           .add("stage", stage)
                           .add("arg", arg)
                           .add("samples", n)
                           .add("seconds", t.seconds)
                           .add("samples_per_sec", n / t.seconds.median));
    };

    for (const std::size_t w : {std::size_t{1024}, std::size_t{160'000}}) {
        row("minmax_filter float", std::to_string(w), total,
            [w](const float *x, std::size_t n) {
                return minMaxPass<float>(x, n, w);
            });
        row("minmax_filter double", std::to_string(w), total,
            [w](const float *x, std::size_t n) {
                return minMaxPass<double>(x, n, w);
            });
    }
    row("normalizer", "160000", total, normalizerPass);
    for (const std::size_t factor : {6u, 25u, 50u})
        row("decimating_fir", std::to_string(factor), total,
            [factor](const float *x, std::size_t n) {
                return firPass(x, n, factor);
            });
    for (const double mhz : {20.0, 40.0, 160.0})
        row("probe_chain", std::to_string(static_cast<int>(mhz)) + "MHz",
            total / 8, [mhz](const float *x, std::size_t n) {
                return probeChainPass(x, n, mhz);
            });

    if (json.empty())
        return 0;
    bench::Json doc = bench::document("throughput_dsp");
    doc.add("timed_runs_per_row", runs).add("rows", rows);
    return bench::writeJson(json, doc) ? 0 : 1;
}
