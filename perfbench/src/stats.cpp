#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace {

std::size_t
nearestRank(std::size_t n, double p)
{
    const double rank = std::ceil(p * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const std::size_t k = nearestRank(values.size(), p) - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
sum(const std::vector<double> &values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

double
mean(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : sum(values) / static_cast<double>(values.size());
}

double
peakRssMib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return -1.0;
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib < 0.0 ? -1.0 : kib / 1024.0;
}

bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
