#include "serve/governor.hpp"

#include <algorithm>

namespace emprof::serve {

namespace {

/** value/limit as an overload ratio; 0 when the limit is disabled. */
double
ratio(uint64_t value, uint64_t limit)
{
    if (limit == 0)
        return 0.0;
    return static_cast<double>(value) / static_cast<double>(limit);
}

bool
breached(uint64_t value, uint64_t limit)
{
    return limit != 0 && value >= limit;
}

} // namespace

LoadGovernor::Level
LoadGovernor::classify(const LoadSnapshot &snap) const
{
    if (breached(snap.queueBytes, marks_.hardQueueBytes) ||
        breached(snap.activeSessions, marks_.hardSessions) ||
        breached(snap.connections, marks_.fdBudget))
        return Level::Hard;
    if (breached(snap.queueBytes, marks_.softQueueBytes) ||
        breached(snap.activeSessions, marks_.softSessions))
        return Level::Soft;
    return Level::Normal;
}

double
LoadGovernor::softExcessRatio(const LoadSnapshot &snap) const
{
    double worst = 0.0;
    worst = std::max(worst, ratio(snap.queueBytes, marks_.softQueueBytes));
    worst =
        std::max(worst, ratio(snap.activeSessions, marks_.softSessions));
    worst = std::max(worst, ratio(snap.connections, marks_.fdBudget));
    return worst;
}

uint32_t
LoadGovernor::suggestedBackoffMs(const LoadSnapshot &snap) const
{
    const uint32_t base = marks_.retryAfterBaseMs;
    const uint32_t cap = std::max(marks_.retryAfterMaxMs, base);
    const double excess = softExcessRatio(snap);
    if (excess <= 1.0)
        return base;
    // Linear ramp: base at the line (ratio 1), cap at/beyond 2x.
    const double t = std::min(excess - 1.0, 1.0);
    return base + static_cast<uint32_t>(t * static_cast<double>(cap - base));
}

uint64_t
LoadGovernor::shedTarget(const LoadSnapshot &snap) const
{
    if (classify(snap) != Level::Hard)
        return 0;
    uint64_t target = 0;
    if (breached(snap.activeSessions, marks_.hardSessions))
        target = std::max(target,
                          snap.activeSessions - marks_.hardSessions + 1);
    // Queue-byte or fd overload: shed one per tick and re-evaluate
    // next tick (a shed frees an unknown number of bytes/fds).
    if (breached(snap.queueBytes, marks_.hardQueueBytes) ||
        breached(snap.connections, marks_.fdBudget))
        target = std::max<uint64_t>(target, 1);
    return target;
}

} // namespace emprof::serve
