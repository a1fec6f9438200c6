#include "profiler/span_window.hpp"

#include <algorithm>

#include "store/emcap_format.hpp"

namespace emprof::profiler {

std::size_t
SpanWindow::defaultSpanSamples(const EmProfConfig &config)
{
    return std::max(store::kDefaultChunkSamples,
                    8 * config.normWindowSamples());
}

SpanWindow::SpanWindow(const EmProfConfig &config, std::size_t spanSamples,
                       uint64_t first)
    : config_(config), spanSamples_(std::max<std::size_t>(spanSamples, 1)),
      bufferBegin_(first - std::min<uint64_t>(first, config.haloSamples())),
      next_(first)
{}

void
SpanWindow::reserveForChunks(std::size_t chunkSamples, uint64_t last)
{
    buffer_.reserve(static_cast<std::size_t>(std::min<uint64_t>(
        config_.haloSamples() + spanSamples_ + chunkSamples,
        last - bufferBegin_)));
}

dsp::Sample *
SpanWindow::extend(std::size_t n)
{
    const std::size_t at = buffer_.size();
    buffer_.resize(at + n);
    return buffer_.data() + at;
}

ChunkResult
SpanWindow::analyzeSpan(uint64_t end, bool is_final)
{
    ChunkResult result =
        analyzeChunkAuto(buffer_.data(), bufferBegin_, next_, end,
                         is_final, config_);
    ++spansAnalyzed_;
    next_ = end;
    return result;
}

ChunkResult
SpanWindow::analyzeNextSpan()
{
    ChunkResult result = analyzeSpan(next_ + spanSamples_, false);

    // Trim back to the halo the next span will re-feed.
    const uint64_t keep_from =
        next_ - std::min<uint64_t>(next_, config_.haloSamples());
    if (keep_from > bufferBegin_) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(
                                            keep_from - bufferBegin_));
        bufferBegin_ = keep_from;
    }
    return result;
}

ChunkResult
SpanWindow::close(bool is_final)
{
    return analyzeSpan(end(), is_final);
}

void
SpanWindow::release()
{
    buffer_.clear();
    buffer_.shrink_to_fit();
}

} // namespace emprof::profiler
