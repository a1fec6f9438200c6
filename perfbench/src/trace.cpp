#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_recorderSerial{1};

/** The calling thread's lane, cached per recorder instance. */
struct LaneCache
{
    uint64_t serial = 0;
    void *lane = nullptr;
};
thread_local LaneCache t_lane;

constexpr int kIndexBits = 40;
constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;

} // namespace

SpanRecorder::SpanRecorder(std::size_t maxSpans)
    : serial_(g_recorderSerial.fetch_add(1)), maxSpans_(maxSpans)
{
}

int64_t
SpanRecorder::now()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanRecorder::Lane &
SpanRecorder::lane()
{
    if (t_lane.serial != serial_) {
        std::lock_guard<std::mutex> lock(lanesMutex_);
        lanes_.push_back(std::make_unique<Lane>());
        lanes_.back()->index = static_cast<uint32_t>(lanes_.size() - 1);
        t_lane.serial = serial_;
        t_lane.lane = lanes_.back().get();
    }
    return *static_cast<Lane *>(t_lane.lane);
}

Span *
SpanRecorder::reserve(Lane &l)
{
    if (used_.fetch_add(1, std::memory_order_relaxed) >= maxSpans_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    l.spans.emplace_back();
    Span &s = l.spans.back();
    s.lane = l.index;
    s.id = (uint64_t{l.index + 1} << kIndexBits) | l.spans.size();
    return &s;
}

uint64_t
SpanRecorder::open(const char *name, uint64_t trace, uint64_t parent,
                   uint32_t width)
{
    Span *s = reserve(lane());
    if (s == nullptr)
        return 0;
    s->name = name;
    s->trace = trace;
    s->parent = parent;
    s->width = width;
    s->startNs = now();
    s->endNs = s->startNs;
    return s->id;
}

void
SpanRecorder::close(uint64_t id)
{
    const int64_t t = now();
    Lane &l = lane();
    if ((id >> kIndexBits) == uint64_t{l.index + 1})
        l.spans[(id & kIndexMask) - 1].endNs = t;
}

uint64_t
SpanRecorder::add(const char *name, uint64_t trace, uint64_t parent,
                  int64_t startNs, int64_t endNs, uint32_t width)
{
    Span *s = reserve(lane());
    if (s == nullptr)
        return 0;
    s->name = name;
    s->trace = trace;
    s->parent = parent;
    s->width = width;
    s->startNs = startNs;
    s->endNs = endNs;
    return s->id;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(lanesMutex_);
    std::vector<Span> all;
    for (const auto &l : lanes_)
        all.insert(all.end(), l->spans.begin(), l->spans.end());
    return all;
}

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::size_t> byId;
    byId.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        byId.emplace(spans[i].id, i);

    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto it = byId.find(spans[i].parent);
        if (spans[i].parent != 0 && it != byId.end() &&
            spans[it->second].lane == spans[i].lane)
            children[it->second].push_back(i);
    }

    std::vector<int64_t> self(spans.size());
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        cover.clear();
        for (std::size_t c : children[i]) {
            const int64_t a = std::max(p.startNs, spans[c].startNs);
            const int64_t b = std::min(p.endNs, spans[c].endNs);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        int64_t covered = 0, reach = p.startNs;
        for (const auto &[a, b] : cover) {
            const int64_t from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        self[i] = p.duration() - covered;
    }
    return self;
}

std::string
moduleOf(const char *name)
{
    const std::string s = name;
    return s.substr(0, s.find('.'));
}

bool
isLayer(const std::string &module)
{
    return module == "store" || module == "profiler" ||
           module == "serve" || module == "common";
}

std::map<std::string, double>
layerSelfNs(const std::vector<Span> &spans,
            const std::vector<int64_t> &self,
            const std::function<bool(const Span &)> &include)
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!include(spans[i]) || !isLayer(moduleOf(spans[i].name)))
            continue;
        out[spans[i].name] += static_cast<double>(self[i]) /
                              static_cast<double>(spans[i].width);
    }
    return out;
}

std::map<std::string, double>
Ledger::moduleNs() const
{
    std::map<std::string, double> out;
    for (const char *m : {"store", "profiler", "serve", "common"})
        out[m] = 0.0;
    for (const auto &[name, ns] : callNs)
        out[moduleOf(name.c_str())] += ns;
    return out;
}

double
Ledger::residualFraction() const
{
    if (endToEndNs <= 0)
        return 0.0;
    double covered = 0;
    for (const auto &[module, ns] : moduleNs())
        covered += ns;
    return 1.0 - covered / endToEndNs;
}

std::string
Ledger::costliestModule() const
{
    std::string best;
    double most = 0;
    for (const auto &[module, ns] : moduleNs()) {
        if (ns > most) {
            most = ns;
            best = module;
        }
    }
    return best;
}

std::string
Ledger::toText(const std::string &workload) const
{
    std::string out;
    char line[160];
    const auto share = [&](double ns) {
        return endToEndNs > 0 ? 100.0 * ns / endToEndNs : 0.0;
    };
    std::snprintf(line, sizeof(line),
                  "ledger %s: end-to-end %.3f ms in total\n",
                  workload.c_str(), endToEndNs / 1e6);
    out += line;
    for (const auto &[name, ns] : callNs) {
        std::snprintf(line, sizeof(line), "  call   %-26s %7.2f%%\n",
                      name.c_str(), share(ns));
        out += line;
    }
    for (const auto &[module, ns] : moduleNs()) {
        std::snprintf(line, sizeof(line), "  layer  %-26s %7.2f%%\n",
                      module.c_str(), share(ns));
        out += line;
    }
    std::snprintf(line, sizeof(line), "  residual %-24s %7.2f%%\n", "",
                  100.0 * residualFraction());
    out += line;
    std::snprintf(line, sizeof(line), "  costliest layer: %s\n",
                  costliestModule().c_str());
    out += line;
    return out;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        *error = "cannot create " + path;
        return false;
    }
    int64_t epoch = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        epoch = std::min(epoch, s.startNs);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"trace\":%llu,\"id\":%llu,"
                     "\"parent\":%llu,\"width\":%u}}\n",
                     i == 0 ? "" : ",", s.name,
                     moduleOf(s.name).c_str(), s.lane,
                     static_cast<double>(s.startNs - epoch) / 1e3,
                     static_cast<double>(s.duration()) / 1e3,
                     static_cast<unsigned long long>(s.trace),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.width);
    }
    std::fputs("]}\n", f);
    if (std::fclose(f) != 0) {
        *error = "write failed on " + path;
        return false;
    }
    return true;
}

} // namespace perfbench
