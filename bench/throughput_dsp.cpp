/**
 * @file
 * Real-time feasibility microbenchmarks (google-benchmark).
 *
 * EMPROF must keep up with the SDR stream: at a 160 MHz measurement
 * bandwidth the profiler consumes 160 Msamples/s of magnitude data,
 * and the synthesis chain used for experiments consumes one sample per
 * core cycle.  These benchmarks report samples/s for every streaming
 * stage.
 */

#include <benchmark/benchmark.h>

#include "dsp/fir.hpp"
#include "dsp/minmax_filter.hpp"
#include "dsp/moving_stats.hpp"
#include "dsp/rng.hpp"
#include "em/capture.hpp"
#include "profiler/normalizer.hpp"
#include "profiler/profiler.hpp"

using namespace emprof;

namespace {

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

void
BM_MovingMinMax(benchmark::State &state)
{
    const auto input = noisySignal(1 << 16);
    dsp::MovingMinMax mm(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        for (float x : input)
            mm.push(x);
        benchmark::DoNotOptimize(mm.min());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_MovingMinMax)->Arg(1024)->Arg(160'000);

template <typename T>
void
BM_MinMaxFilter(benchmark::State &state)
{
    const auto input = noisySignal(1 << 16);
    dsp::MinMaxFilter<T> mm(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        for (float x : input)
            mm.push(static_cast<T>(x));
        benchmark::DoNotOptimize(mm.min());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.size()));
}
BENCHMARK_TEMPLATE(BM_MinMaxFilter, float)->Arg(1024)->Arg(160'000);
BENCHMARK_TEMPLATE(BM_MinMaxFilter, double)->Arg(1024)->Arg(160'000);

void
BM_Normalizer(benchmark::State &state)
{
    const auto input = noisySignal(1 << 16);
    profiler::MovingMinMaxNormalizer norm(160'000);
    double acc = 0.0;
    for (auto _ : state) {
        for (float x : input)
            acc += norm.push(x);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Normalizer);

void
BM_EmProfAnalyze(benchmark::State &state)
{
    dsp::TimeSeries input;
    input.sampleRateHz = 160e6;
    input.samples = noisySignal(1 << 16);
    const profiler::EmProfConfig cfg;
    for (auto _ : state) {
        const auto result = profiler::EmProf::analyze(input, cfg);
        benchmark::DoNotOptimize(result.events.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.samples.size()));
}
BENCHMARK(BM_EmProfAnalyze);

void
BM_DecimatingFirComplex(benchmark::State &state)
{
    const auto factor = static_cast<std::size_t>(state.range(0));
    dsp::DecimatingFir<dsp::Complex> fir(
        dsp::designLowPass(63, 0.45 / static_cast<double>(factor)),
        factor);
    dsp::Complex out;
    for (auto _ : state) {
        for (int i = 0; i < (1 << 14); ++i) {
            if (fir.push({1.0f, 0.5f}, out))
                benchmark::DoNotOptimize(out);
        }
    }
    state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_DecimatingFirComplex)->Arg(6)->Arg(25)->Arg(50);

void
BM_ProbeChain(benchmark::State &state)
{
    em::ProbeChainConfig cfg;
    cfg.receiver.bandwidthHz = static_cast<double>(state.range(0)) * 1e6;
    em::ProbeChain chain(cfg, 1.008e9);
    dsp::Sample out;
    for (auto _ : state) {
        for (int i = 0; i < (1 << 14); ++i) {
            if (chain.push(0.7f, out))
                benchmark::DoNotOptimize(out);
        }
    }
    state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_ProbeChain)->Arg(20)->Arg(40)->Arg(160);

} // namespace

BENCHMARK_MAIN();
