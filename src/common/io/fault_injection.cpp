#include "common/io/fault_injection.hpp"

#include <atomic>
#include <cerrno>
#include <mutex>

namespace emprof::common::io {

namespace {

// `enabled` is the only thing the hot path reads while disarmed; the
// rest of the state is mutex-protected because arming and transfers
// may race in multi-threaded tests.
std::atomic<bool> enabled{false};

std::mutex state_mutex;
FaultPlan plan;            // guarded by state_mutex
bool plan_fired = false;   // guarded by state_mutex
uint64_t written_bytes = 0; // guarded by state_mutex
uint64_t read_bytes = 0;    // guarded by state_mutex

FaultInjector::Decision
decide(std::size_t want, uint64_t &stream, bool applies)
{
    FaultInjector::Decision d;
    d.allow = want;

    const uint64_t begin = stream;
    stream += want;
    if (want == 0 || !applies || plan_fired ||
        plan.kind == FaultPlan::Kind::None)
        return d;
    if (plan.triggerByte < begin || plan.triggerByte >= begin + want)
        return d; // trigger not inside this transfer

    plan_fired = true;
    const auto partial =
        static_cast<std::size_t>(plan.triggerByte - begin);
    switch (plan.kind) {
    case FaultPlan::Kind::FailWrite:
    case FaultPlan::Kind::FailRead:
        d.allow = 0;
        d.failErrno = EIO;
        break;
    case FaultPlan::Kind::TornWrite:
        d.allow = partial;
        d.failErrno = EIO;
        break;
    case FaultPlan::Kind::NoSpace:
        d.allow = partial;
        d.failErrno = ENOSPC;
        break;
    case FaultPlan::Kind::Eintr:
        d.allow = partial;
        d.eintr = true;
        break;
    case FaultPlan::Kind::ShortRead:
        d.allow = partial;
        d.failErrno = -1; // sentinel: EOF, not an errno failure
        break;
    case FaultPlan::Kind::None:
        break;
    }
    return d;
}

} // namespace

void
FaultInjector::arm(const FaultPlan &p)
{
    const std::lock_guard<std::mutex> lock(state_mutex);
    plan = p;
    plan_fired = false;
    written_bytes = 0;
    read_bytes = 0;
    enabled.store(true, std::memory_order_release);
}

void
FaultInjector::disarm()
{
    const std::lock_guard<std::mutex> lock(state_mutex);
    enabled.store(false, std::memory_order_release);
    plan = FaultPlan{};
    plan_fired = false;
}

bool
FaultInjector::armed()
{
    return enabled.load(std::memory_order_acquire);
}

bool
FaultInjector::fired()
{
    const std::lock_guard<std::mutex> lock(state_mutex);
    return plan_fired;
}

FaultInjector::Decision
FaultInjector::onWrite(std::size_t want)
{
    Decision d;
    d.allow = want;
    if (!enabled.load(std::memory_order_acquire))
        return d;
    const std::lock_guard<std::mutex> lock(state_mutex);
    return decide(want, written_bytes, plan.isWriteKind());
}

FaultInjector::Decision
FaultInjector::onRead(std::size_t want)
{
    Decision d;
    d.allow = want;
    if (!enabled.load(std::memory_order_acquire))
        return d;
    const std::lock_guard<std::mutex> lock(state_mutex);
    return decide(want, read_bytes, plan.isReadKind());
}

} // namespace emprof::common::io
