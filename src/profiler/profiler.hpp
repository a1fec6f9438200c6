/**
 * @file
 * The EMPROF profiler facade (the paper's primary contribution).
 *
 * Pipeline, per Sec. IV: magnitude samples -> moving min/max
 * normalisation -> duration-thresholded dip detection -> event
 * classification (ordinary miss vs. refresh-coincident) -> report.
 * Every stage is a bounded-history streaming computation, so a recorded
 * signal can be analysed in spans (batch_pipeline.hpp) and stitched
 * back (stitch.hpp) bit-identically — which is how EmProf::analyze, the
 * parallel analyzer and the ingest service all run it.
 */

#ifndef EMPROF_PROFILER_PROFILER_HPP
#define EMPROF_PROFILER_PROFILER_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dsp/types.hpp"
#include "profiler/dip_detector.hpp"
#include "profiler/events.hpp"
#include "profiler/report.hpp"
#include "profiler/signal_quality.hpp"

namespace emprof::profiler {

/** Complete EMPROF configuration. */
struct EmProfConfig
{
    /** Target processor clock (Hz); converts durations to cycles. */
    double clockHz = 1.008e9;

    /** Signal sample rate (Hz); usually the receiver bandwidth. */
    double sampleRateHz = 40e6;

    /**
     * Normalisation envelope window in seconds.  Must exceed the
     * longest expected stall by a wide margin so the envelope always
     * sees busy level; 4 ms covers refresh-coincident stalls (2-3 us)
     * a thousand-fold.
     */
    double normWindowSeconds = 4e-3;

    /** Minimum window contrast to look for dips (see normaliser). */
    double minContrast = 0.2;

    /**
     * Dip entry/exit thresholds on the normalised signal.  A full
     * stall normalises to ~0 (the moving minimum IS the stall floor),
     * while even 1-IPC code sits well above 0.25; the gap between
     * enter and exit is hysteresis against edge noise.
     */
    double enterThreshold = 0.22;
    double exitThreshold = 0.38;

    /**
     * Duration threshold in nanoseconds: significantly shorter than
     * the memory latency, significantly longer than on-chip latencies
     * (Sec. IV).  60 ns ~= 60 cycles at 1 GHz.
     */
    double minStallNs = 60.0;

    /** Stalls at least this long are classified refresh-coincident. */
    double refreshStallNs = 1200.0;

    /**
     * Service-level attribution boundaries (duration bands, see
     * DESIGN.md §16).  Durations below llcHitMaxNs are attributed to
     * the LLC (a hit long enough to stall a dependent chain but far
     * below DRAM latency); durations in [llcHitMaxNs,
     * prefetchMaskedMaxNs) to a prefetch-masked miss (residual latency
     * of a line already in flight); [prefetchMaskedMaxNs,
     * refreshStallNs) to an ordinary DRAM demand miss; and
     * refreshStallNs and above to a refresh-lengthened DRAM access.
     * prefetchMaskedMaxNs == 0 disables the prefetch-masked band (no
     * prefetcher on the target): the DRAM band then starts at
     * llcHitMaxNs.
     */
    double llcHitMaxNs = 90.0;
    double prefetchMaskedMaxNs = 0.0;

    /**
     * Minimum dip width in samples regardless of minStallNs.  A dip
     * must contain several consecutive low samples to be
     * distinguishable from noise over multi-second captures; this is
     * the mechanism behind Sec. VI-B's bandwidth effect — at 20 MHz a
     * 4-sample requirement is ~200+ processor cycles, so the Alcatel's
     * short stalls become undetectable while very long stalls remain.
     */
    uint64_t minDurationFloorSamples = 4;

    /**
     * Signal-domain resilience layer (adaptive normalisation, segment
     * quarantine, per-event confidence).  Off by default: with
     * signal.enabled == false the pipeline is bit-identical to the
     * classic one.
     */
    SignalQualityConfig signal;

    /** Derived: envelope window in samples. */
    std::size_t
    normWindowSamples() const
    {
        const double w = normWindowSeconds * sampleRateHz;
        return w < 2.0 ? 2 : static_cast<std::size_t>(w);
    }

    /** Derived: minimum dip duration in samples.  Floored at two
     *  samples: a single low sample is indistinguishable from noise,
     *  which is what makes very narrow bandwidths lose short stalls
     *  (Sec. VI-B). */
    uint64_t
    minDurationSamples() const
    {
        const double s = minStallNs * 1e-9 * sampleRateHz;
        const auto from_ns =
            s < 1.0 ? uint64_t{1} : static_cast<uint64_t>(s + 0.5);
        return std::max(from_ns, minDurationFloorSamples);
    }

    /** Derived: adaptive pre-smoother length in samples (resilient
     *  path only).  About half the minimum dip duration, so a genuine
     *  dip still swings the smoothed signal, clamped to [2, 16]. */
    std::size_t
    smootherSamples() const
    {
        if (signal.smootherSamples != 0)
            return signal.smootherSamples;
        const uint64_t half = minDurationSamples() / 2;
        return static_cast<std::size_t>(
            std::clamp<uint64_t>(half, 2, 16));
    }

    /** Derived: quality-block length in samples. */
    std::size_t
    qualityBlockSamples() const
    {
        return signal.blockSamples != 0 ? signal.blockSamples
                                        : normWindowSamples();
    }

    /**
     * Derived: the duration threshold the dip detector actually uses.
     * The resilient path's pre-smoother widens every dip by up to
     * S - 1 samples of ramp, so the detector threshold is relaxed by
     * the same amount to keep the effective duration cut in raw
     * samples unchanged (floored at 2 — a single low sample is still
     * indistinguishable from noise).
     */
    uint64_t
    effectiveMinDurationSamples() const
    {
        const uint64_t base = minDurationSamples();
        if (!signal.enabled)
            return base;
        const uint64_t widen =
            static_cast<uint64_t>(smootherSamples()) - 1;
        return std::max<uint64_t>(
            base > widen ? base - widen : 0, 2);
    }

    /**
     * Derived: how many samples of history one output depends on —
     * the halo a parallel chunk must re-feed for bit parity.  Classic
     * path: the envelope window.  Resilient path: the envelope window
     * over smoothed values (each a function of the smoother window)
     * plus whole-block ownership of quality blocks.
     */
    std::size_t
    haloSamples() const
    {
        const std::size_t w = normWindowSamples();
        if (!signal.enabled)
            return w - 1;
        const std::size_t s = smootherSamples();
        const std::size_t q = qualityBlockSamples();
        return std::max(w + s - 2, q - 1);
    }

    /**
     * Check the config for values that would poison the analysis
     * (non-finite or non-positive rates, inverted hysteresis, negative
     * durations).  classifyStall and makeReport divide by
     * sampleRateHz / clockHz-derived quantities; an unvalidated config
     * would turn those into NaN/Inf event fields and a garbage report
     * rather than an error.  Callers with an error channel (the
     * analyzers, the tools) must validate before analysing.
     *
     * @param why Receives a one-line reason on failure.
     */
    bool validate(std::string *why = nullptr) const;

    /** Derived: the dip-detector thresholds this config implies. */
    DipDetectorConfig
    detectorConfig() const
    {
        DipDetectorConfig dc;
        dc.enterThreshold = enterThreshold;
        dc.exitThreshold = exitThreshold;
        dc.minDurationSamples = effectiveMinDurationSamples();
        return dc;
    }
};

/** Result of analysing a signal. */
struct ProfileResult
{
    std::vector<StallEvent> events;
    ProfileReport report;
};

/**
 * Convert a raw dip (sample indices + depth) into a classified stall:
 * duration in ns and cycles, ordinary miss vs. refresh-coincident.
 * Shared by both analysis kernels and the stitcher so every path
 * classifies identically.
 */
void classifyStall(StallEvent &ev, const EmProfConfig &config);

/** The whole-signal scalar reference analysis. */
class EmProf
{
  public:
    /**
     * Analyse a whole recorded magnitude series as one scalar span:
     * detail::analyzeChunkStreaming over [0, n), stitched and reported
     * by one ChunkStitcher.  It never dispatches to the AVX2 kernel, so
     * it stays the reference the figure/table programs and the
     * benchmark's report check compare against; analyzeParallel()
     * (parallel_analyzer.hpp) gives bit-identical results on the pool.
     *
     * The series' own sample rate overrides config.sampleRateHz.
     */
    static ProfileResult analyze(const dsp::TimeSeries &magnitude,
                                 EmProfConfig config);
};

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_PROFILER_HPP
