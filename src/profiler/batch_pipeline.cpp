/**
 * @file
 * Streaming reference implementation of the per-chunk analysis plus
 * the choice of the AVX2 batch kernel.
 */

#include "profiler/batch_pipeline.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "profiler/normalizer.hpp"

namespace emprof::profiler {

EventListPool &
EventListPool::shared()
{
    static EventListPool pool;
    return pool;
}

std::vector<StallEvent>
EventListPool::take()
{
    std::vector<StallEvent> list;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!lists_.empty()) {
            list.swap(lists_.back());
            lists_.pop_back();
            bytes_ -= list.capacity() * sizeof(StallEvent);
        }
    }
    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter reused =
            registry.counter("profiler.event_lists_reused");
        static const obs::Counter fresh =
            registry.counter("profiler.event_lists_fresh");
        (list.capacity() != 0 ? reused : fresh).inc();
    }
    return list;
}

void
EventListPool::give(std::vector<StallEvent> &&list)
{
    // A dropped list is freed after the lock is released.
    std::vector<StallEvent> held = std::move(list);
    held.clear();
    const std::size_t bytes = held.capacity() * sizeof(StallEvent);
    if (bytes == 0 || bytes > kMaxListBytes)
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (bytes > kCapBytes - bytes_)
        return;
    bytes_ += bytes;
    lists_.push_back(std::move(held));
}

std::size_t
EventListPool::bytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

bool
batchPipelineActive()
{
#if !defined(EMPROF_DISABLE_SIMD)
    static const bool active = __builtin_cpu_supports("avx2") != 0;
    return active;
#else
    return false;
#endif
}

ChunkResult
analyzeChunkAuto(const dsp::Sample *data, uint64_t dataBegin,
                 uint64_t begin, uint64_t end, bool is_final,
                 const EmProfConfig &config)
{
    // Per-worker chunk timing: the span carries the worker's thread
    // number, the stage histogram aggregates the distribution.
    EMPROF_OBS_STAGE("analyzer.chunk");
    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter chunks =
            registry.counter("analyzer.chunks_analyzed");
        static const obs::Counter normalized =
            registry.counter("normalizer.samples_normalized");
        chunks.inc();
        normalized.add(end - begin);
    }

#if !defined(EMPROF_DISABLE_SIMD)
    if (batchPipelineActive())
        return detail::analyzeChunkBatchAvx2(data, dataBegin, begin,
                                             end, is_final, config);
#endif
    return detail::analyzeChunkStreaming(data, dataBegin, begin, end,
                                         is_final, config);
}

namespace detail {

/**
 * Analyse samples [begin, end): re-feed the halo to warm the
 * normaliser, then run a fresh dip detector over the chunk, recording
 * the prefix and the end-of-chunk open-dip state for the stitcher.
 */
ChunkResult
analyzeChunkStreaming(const dsp::Sample *data, uint64_t dataBegin,
                      uint64_t begin, uint64_t end, bool is_final,
                      const EmProfConfig &config)
{
    ChunkResult r;
    r.begin = begin;
    r.end = end;
    r.events = EventListPool::shared().take();

    const bool resilient = config.signal.enabled;
    const uint64_t halo = std::min<uint64_t>(begin, config.haloSamples());
    const auto at = [&](uint64_t i) {
        return data[static_cast<std::size_t>(i - dataBegin)];
    };
    // A window longer than the samples this call sees holds them all
    // either way (see file comment of batch_pipeline.hpp).
    const std::size_t window = static_cast<std::size_t>(
        std::min<uint64_t>(config.normWindowSamples(), end - begin + halo));

    // Warm the normaliser this config uses (the other is sized to one
    // sample) by re-feeding the halo: both are pure functions of a
    // bounded trailing history (haloSamples() covers it), so the values
    // from `begin` on are bit-identical to streaming.
    MovingMinMaxNormalizer classic(resilient ? 1 : window,
                                   config.minContrast);
    AdaptiveNormalizer adaptive(
        resilient ? window : 1, resilient ? config.smootherSamples() : 1,
        config.signal.driftToleranceFraction > 0.0
            ? config.signal.driftToleranceFraction
            : 0.05,
        config.minContrast);
    const auto norm = [&](double x) {
        return resilient ? adaptive.push(x) : classic.push(x);
    };
    for (uint64_t i = begin - halo; i < begin; ++i)
        norm(at(i));

    DipDetector detector(config.detectorConfig());
    bool in_prefix = true;
    StallEvent ev;
    for (uint64_t i = begin; i < end; ++i) {
        const double normalized = norm(at(i));
        if (in_prefix) {
            // The prefix ends at the first sample that would close any
            // incoming dip; from there on chunk-local detection is
            // independent of the incoming state.
            if (normalized > config.exitThreshold)
                in_prefix = false;
            else
                r.prefixNorms.push_back(normalized);
        }
        if (detector.push(normalized, ev)) {
            ev.startSample += begin;
            ev.endSample += begin;
            classifyStall(ev, config);
            r.events.push_back(ev);
        }
    }

    r.open = detector.state();
    if (r.open.inDip) {
        r.open.start += begin;
        r.open.lastBelowExit += begin;
    }

    if (resilient) {
        // Quality blocks are absolute-index aligned and each is owned
        // by exactly one chunk: the one containing its last sample
        // (the final chunk also owns the trailing partial block).  The
        // owner recomputes the whole block from scratch in index
        // order, so the block is bit-identical to streaming no matter
        // how the capture was chunked.  haloSamples() >= Q - 1
        // guarantees the owner's data covers a block that started in
        // the previous chunk.
        const uint64_t q =
            std::max<uint64_t>(config.qualityBlockSamples(), 1);
        BlockAccumulator acc;
        for (uint64_t bs = (begin / q) * q; bs < end; bs += q) {
            uint64_t be = bs + q;
            if (be > end) {
                if (!is_final)
                    break; // next chunk owns it
                be = end;
            }
            acc.begin(bs);
            for (uint64_t i = bs; i < be; ++i)
                acc.push(at(i));
            r.blocks.push_back(acc.finish(be, config.signal));
        }
    }
    return r;
}

} // namespace detail

} // namespace emprof::profiler
