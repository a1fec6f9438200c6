#include "serve/session_pipeline.hpp"

#include <chrono>
#include <vector>

#include "obs/metrics.hpp"

namespace emprof::serve {

SessionPipeline::SessionPipeline(const profiler::EmProfConfig &base,
                                 std::size_t spanSamples)
    : config_(base), spanSamples_(spanSamples)
{
}

bool
SessionPipeline::poison(std::string *error, const std::string &message)
{
    poisoned_ = true;
    poisonReason_ = message;
    if (window_)
        window_->release();
    if (error != nullptr)
        *error = message;
    return false;
}

bool
SessionPipeline::onHeader(std::string *error)
{
    const store::CaptureInfo &info = decoder_.info();
    config_.sampleRateHz = info.sampleRateHz;
    if (info.clockHz > 0.0)
        config_.clockHz = info.clockHz;
    std::string why;
    if (!config_.validate(&why))
        return poison(error, "capture metadata yields an invalid "
                             "analysis config: " +
                                 why);
    if (spanSamples_ == 0)
        spanSamples_ = profiler::SpanWindow::defaultSpanSamples(config_);
    window_.emplace(config_, spanSamples_, /*first=*/0);
    stitcher_.emplace(config_);
    return true;
}

void
SessionPipeline::analyzeSpan(bool closing)
{
    static const auto span_hist =
        obs::MetricsRegistry::instance().histogram(
            "emprof.serve.stage.analyze_span_us");
    const auto t0 = std::chrono::steady_clock::now();

    stitcher_->feed(closing ? window_->close(/*is_final=*/true)
                            : window_->analyzeNextSpan());

    if (obs::MetricsRegistry::enabled())
        span_hist.observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
}

bool
SessionPipeline::feed(const uint8_t *data, std::size_t n,
                      std::string *error)
{
    if (poisoned_)
        return poison(error, poisonReason_);
    if (finished_)
        return poison(error, "feed() after finish()");

    // The window needs the header's config; samples decoded in the
    // same call as the header land in `early` and become its buffer.
    std::vector<dsp::Sample> early;
    if (!decoder_.feed(data, n, window_ ? window_->buffer() : early,
                       error))
        return poison(error, error != nullptr ? *error
                                              : "malformed stream");
    if (!window_ && decoder_.headerReady()) {
        if (!onHeader(error))
            return false;
        window_->buffer().swap(early);
    }

    // Analyse every full span, but always hold back at least one
    // sample so the closing span can carry is_final (see file doc).
    while (window_ && window_->spanReady())
        analyzeSpan(/*closing=*/false);
    return true;
}

bool
SessionPipeline::finish(profiler::ProfileResult &out, std::string *error)
{
    if (poisoned_)
        return poison(error, poisonReason_);
    if (finished_)
        return poison(error, "finish() called twice");
    finished_ = true;

    if (!decoder_.complete(error)) {
        poisoned_ = true;
        poisonReason_ = error != nullptr ? *error : "incomplete upload";
        return false;
    }

    // complete() implies every declared sample was decoded, and the
    // strict > in feed() left at least one of them unanalysed.
    analyzeSpan(/*closing=*/true);
    out = stitcher_->finalize(decoder_.info().totalSamples);
    window_->release();
    return true;
}

} // namespace emprof::serve
