#include "obs/tracer.hpp"

#include <chrono>

namespace emprof::obs {

std::atomic<bool> Tracer::enabled_{false};

Tracer &
Tracer::instance()
{
    // Leaked for the same reason as MetricsRegistry: spans may be
    // recorded from worker threads during static destruction.
    static Tracer *tracer = new Tracer();
    return *tracer;
}

uint64_t
Tracer::nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - epoch)
            .count());
}

uint32_t
Tracer::currentThreadNumber()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t tid =
        next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

namespace {
thread_local uint64_t tls_current_span = 0;
} // namespace

uint64_t
Tracer::exchangeCurrentSpan(uint64_t id)
{
    const uint64_t old = tls_current_span;
    tls_current_span = id;
    return old;
}

void
Tracer::record(const SpanRecord &span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < capacity_) {
        ring_.push_back(span);
    } else if (capacity_ > 0) {
        ring_[static_cast<std::size_t>(total_ % capacity_)] = span;
    }
    ++total_;
}

std::vector<SpanRecord>
Tracer::snapshot() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (total_ <= capacity_ || capacity_ == 0)
        return ring_;
    // The ring wrapped: rotate so the oldest surviving span is first.
    std::vector<SpanRecord> out;
    out.reserve(ring_.size());
    const std::size_t head =
        static_cast<std::size_t>(total_ % capacity_);
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head));
    return out;
}

uint64_t
Tracer::droppedSpans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_ > capacity_ ? total_ - capacity_ : 0;
}

std::size_t
Tracer::capacity() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void
Tracer::resetForTest(std::size_t capacity)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    capacity_ = capacity;
    total_ = 0;
}

SpanScope::SpanScope(const char *name, const char *category)
{
    if (!Tracer::enabled())
        return;
    active_ = true;
    name_ = name;
    category_ = category;
    startNs_ = Tracer::nowNs();
    id_ = Tracer::instance().nextId_.fetch_add(
        1, std::memory_order_relaxed);
    parent_ = Tracer::exchangeCurrentSpan(id_);
}

SpanScope::~SpanScope()
{
    if (!active_)
        return;
    Tracer::exchangeCurrentSpan(parent_);
    SpanRecord span;
    span.name = name_;
    span.category = category_;
    span.startNs = startNs_;
    span.durationNs = Tracer::nowNs() - startNs_;
    span.id = id_;
    span.parent = parent_;
    span.tid = Tracer::currentThreadNumber();
    Tracer::instance().record(span);
}

} // namespace emprof::obs
