#include "inputs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "dsp/types.hpp"
#include "profiler/profiler.hpp"
#include "profiler/report.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

namespace perfbench {

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::below(uint64_t n)
{
    return next() % n;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ull));
    rng.next();
    return rng.next();
}

SignalSynth::SignalSynth(uint64_t seed, uint64_t totalSamples)
    : rng_(seed), total_(totalSamples)
{
}

void
SignalSynth::fill(float *out, std::size_t n)
{
    constexpr float kDip = 0.2f;
    for (std::size_t k = 0; k < n; ++k, ++pos_) {
        if (pos_ == nextDip_ && pos_ + 120 < total_) {
            const uint64_t len =
                rng_.uniform() < 0.01 ? 100 : 8 + rng_.below(7);
            dipEnd_ = pos_ + len;
            nextDip_ = dipEnd_ + 40 + rng_.below(120);
        }
        out[k] = pos_ < dipEnd_
                     ? kDip
                     : 1.0f + static_cast<float>(
                                  0.02 * (rng_.uniform() - 0.5));
    }
}

void
Hash64::addWords(const uint32_t *words, std::size_t n)
{
    uint64_t h = h_;
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ words[i]) * 0x100000001b3ull;
    h_ = h;
}

void
Hash64::addU64(uint64_t v)
{
    const uint32_t w[2] = {static_cast<uint32_t>(v),
                           static_cast<uint32_t>(v >> 32)};
    addWords(w, 2);
}

void
Hash64::addDouble(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    addU64(bits);
}

namespace {

void
hashSamples(Hash64 &hash, const float *samples, std::size_t n)
{
    static_assert(sizeof(float) == sizeof(uint32_t));
    uint32_t words[256];
    for (std::size_t i = 0; i < n; i += 256) {
        const std::size_t m = std::min<std::size_t>(256, n - i);
        std::memcpy(words, samples + i, m * sizeof(float));
        hash.addWords(words, m);
    }
}

} // namespace

uint64_t
signalHash(uint64_t seed, uint64_t samples, std::size_t blockSamples)
{
    SignalSynth synth(seed, samples);
    Hash64 hash;
    std::vector<float> block(blockSamples);
    while (synth.remaining() > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<uint64_t>(blockSamples, synth.remaining()));
        synth.fill(block.data(), n);
        hashSamples(hash, block.data(), n);
    }
    return hash.value();
}

bool
writeCapture(const std::string &path, uint64_t seed, uint64_t samples,
             Capture &out, std::string *error)
{
    emprof::store::WriterOptions options;
    options.sampleRateHz = kSampleRateHz;
    options.clockHz = kClockHz;
    options.deviceName = "perfbench";
    emprof::store::CaptureWriter writer;
    if (!writer.open(path, options)) {
        *error = writer.lastError().describe();
        return false;
    }
    SignalSynth synth(seed, samples);
    Hash64 hash;
    std::vector<float> block(std::size_t{1} << 16);
    while (synth.remaining() > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<uint64_t>(block.size(), synth.remaining()));
        synth.fill(block.data(), n);
        hashSamples(hash, block.data(), n);
        if (!writer.append(block.data(), n))
            break;
    }
    if (!writer.finalize()) {
        *error = writer.lastError().describe();
        return false;
    }
    out.seed = seed;
    out.samples = samples;
    out.fileBytes = writer.stats().fileBytes;
    out.signalHash = hash.value();
    return true;
}

bool
readFileBytes(const std::string &path, std::vector<uint8_t> &out,
              std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        *error = "cannot open " + path;
        return false;
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    out.assign(static_cast<std::size_t>(size < 0 ? 0 : size), 0);
    const bool ok = size >= 0 &&
                    std::fread(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (!ok)
        *error = "read failed on " + path;
    return ok;
}

uint64_t
eventsDigest(const std::vector<emprof::profiler::StallEvent> &events)
{
    Hash64 hash;
    hash.addU64(events.size());
    for (const auto &ev : events) {
        hash.addU64(ev.startSample);
        hash.addU64(ev.endSample);
        hash.addDouble(ev.depth);
        hash.addDouble(ev.durationNs);
        hash.addDouble(ev.stallCycles);
        hash.addDouble(ev.confidence);
        hash.addU64(static_cast<uint64_t>(ev.kind));
        hash.addU64(static_cast<uint64_t>(ev.level));
        hash.addDouble(ev.levelConfidence);
    }
    return hash.value();
}

bool
referenceAnalysis(const std::string &capturePath,
                  const std::string &title, Reference &out,
                  std::string *error)
{
    emprof::store::CaptureReader reader;
    if (!reader.open(capturePath, error))
        return false;
    emprof::dsp::TimeSeries series;
    if (!reader.readAll(series, error))
        return false;
    emprof::profiler::EmProfConfig config;
    config.clockHz = reader.info().clockHz;
    const auto result = emprof::profiler::EmProf::analyze(series, config);
    out.samples = series.samples.size();
    out.events = result.events.size();
    out.digest = eventsDigest(result.events);
    out.text = result.report.toText(title);
    return true;
}

namespace {

std::string
capturePath(const std::string &dir, std::size_t i)
{
    return dir + "/capture-" + std::to_string(i) + ".emcap";
}

std::string
referencePath(const std::string &dir, std::size_t i)
{
    return dir + "/reference-" + std::to_string(i) + ".txt";
}

} // namespace

bool
prepareInputs(const std::string &dir, uint64_t seed, std::size_t count,
              uint64_t samples, const std::string &title,
              std::size_t threads, std::string *error)
{
    std::vector<PreparedInput> inputs(count);
    std::vector<std::string> errors(count);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t)
        workers.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < count;) {
                PreparedInput &in = inputs[i];
                in.path = capturePath(dir, i);
                if (writeCapture(in.path, mixSeed(seed, i), samples,
                                 in.capture, &errors[i]))
                    referenceAnalysis(in.path, title, in.ref, &errors[i]);
            }
        });
    for (auto &w : workers)
        w.join();

    std::ofstream manifest(dir + "/manifest");
    for (std::size_t i = 0; i < count; ++i) {
        if (!errors[i].empty()) {
            *error = errors[i];
            return false;
        }
        const PreparedInput &in = inputs[i];
        std::ofstream ref(referencePath(dir, i), std::ios::binary);
        ref << in.ref.text;
        manifest << in.capture.seed << ' ' << in.capture.samples << ' '
                 << in.capture.fileBytes << ' ' << in.capture.signalHash
                 << ' ' << in.ref.events << ' ' << in.ref.digest << '\n';
        if (!ref) {
            *error = "cannot write " + referencePath(dir, i);
            return false;
        }
    }
    if (!manifest.flush()) {
        *error = "cannot write " + dir + "/manifest";
        return false;
    }
    return true;
}

bool
loadInputs(const std::string &dir, InputSet &out, std::string *error)
{
    std::ifstream manifest(dir + "/manifest");
    if (!manifest) {
        *error = "no manifest in " + dir + " (run prepare first)";
        return false;
    }
    out = InputSet{};
    Hash64 hash;
    std::string line;
    while (std::getline(manifest, line)) {
        PreparedInput in;
        std::istringstream fields(line);
        fields >> in.capture.seed >> in.capture.samples >>
            in.capture.fileBytes >> in.capture.signalHash >> in.ref.events >>
            in.ref.digest;
        const std::size_t i = out.inputs.size();
        std::ifstream ref(referencePath(dir, i), std::ios::binary);
        std::ostringstream text;
        text << ref.rdbuf();
        if (!fields || !ref) {
            *error = "malformed manifest entry " + std::to_string(i);
            return false;
        }
        in.path = capturePath(dir, i);
        in.ref.samples = in.capture.samples;
        in.ref.text = text.str();
        hash.addU64(in.capture.signalHash);
        out.encodedBytes += in.capture.fileBytes;
        out.inputs.push_back(std::move(in));
    }
    out.hash = hash.value();
    if (out.inputs.empty()) {
        *error = "empty manifest in " + dir;
        return false;
    }
    return true;
}

} // namespace perfbench
