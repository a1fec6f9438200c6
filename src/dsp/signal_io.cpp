#include "dsp/signal_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace emprof::dsp {

namespace {

using common::io::CheckedFile;
using common::io::IoError;

constexpr char kMagic[4] = {'E', 'M', 'S', 'G'};
constexpr uint32_t kVersion = 1;

struct FileHeader
{
    char magic[4];
    uint32_t version;
    uint32_t kind;
    uint32_t reserved;
    double sampleRateHz;
    uint64_t sampleCount; // floats in the payload
};

static_assert(sizeof(FileHeader) == 32, "header layout is the format");

bool
reportFileError(const CheckedFile &file, IoError *error)
{
    if (error != nullptr)
        *error = file.error();
    return false;
}

bool
reportFormat(const std::string &path, const std::string &what,
             IoError *error)
{
    if (error != nullptr)
        *error = common::io::formatError(path, what);
    return false;
}

bool
writePayload(const std::string &path, SignalKind kind,
             double sample_rate_hz, const float *data, uint64_t count,
             IoError *error)
{
    CheckedFile file;
    if (!file.open(path, CheckedFile::Mode::WriteTruncate))
        return reportFileError(file, error);

    FileHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.kind = static_cast<uint32_t>(kind);
    header.sampleRateHz = sample_rate_hz;
    header.sampleCount = count;

    const bool ok =
        file.writeAll(&header, sizeof(header), "emsig header") &&
        (count == 0 ||
         file.writeAll(data, count * sizeof(float), "emsig payload")) &&
        file.syncToDisk("emsig fsync") && file.close();
    if (!ok)
        return reportFileError(file, error);
    return true;
}

} // namespace

bool
saveSignal(const std::string &path, const TimeSeries &series,
           IoError *error)
{
    return writePayload(path, SignalKind::Magnitude, series.sampleRateHz,
                        series.samples.data(), series.samples.size(),
                        error);
}

bool
saveSignal(const std::string &path, const ComplexSeries &series,
           IoError *error)
{
    // std::complex<float> is layout-compatible with float[2].
    return writePayload(
        path, SignalKind::Iq, series.sampleRateHz,
        reinterpret_cast<const float *>(series.samples.data()),
        series.samples.size() * 2, error);
}

bool
loadSignal(const std::string &path, TimeSeries &out, IoError *error)
{
    CheckedFile file;
    if (!file.open(path, CheckedFile::Mode::Read))
        return reportFileError(file, error);

    uint64_t file_size = 0;
    if (!file.size(file_size, "emsig stat"))
        return reportFileError(file, error);
    if (file_size < sizeof(FileHeader))
        return reportFormat(path, "shorter than an .emsig header",
                            error);

    FileHeader header{};
    if (!file.readAll(&header, sizeof(header), "emsig header"))
        return reportFileError(file, error);
    if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0 ||
        header.version != kVersion)
        return reportFormat(path, "bad magic or version", error);

    // The header's count must agree with the bytes actually present;
    // checking before the allocation also stops a hostile count from
    // requesting terabytes.
    if (header.sampleCount !=
        (file_size - sizeof(FileHeader)) / sizeof(float) ||
        header.sampleCount * sizeof(float) !=
            file_size - sizeof(FileHeader))
        return reportFormat(
            path, "payload size disagrees with header (truncated?)",
            error);

    const bool is_magnitude =
        header.kind == static_cast<uint32_t>(SignalKind::Magnitude);
    const bool is_iq =
        header.kind == static_cast<uint32_t>(SignalKind::Iq);
    if (!is_magnitude && !is_iq)
        return reportFormat(path, "unknown payload kind", error);
    if (is_iq && header.sampleCount % 2 != 0)
        return reportFormat(path, "odd float count in an I/Q payload",
                            error);

    std::vector<float> payload(
        static_cast<std::size_t>(header.sampleCount));
    if (!payload.empty() &&
        !file.readAll(payload.data(), payload.size() * sizeof(float),
                      "emsig payload"))
        return reportFileError(file, error);

    out.sampleRateHz = header.sampleRateHz;
    out.samples.clear();
    if (is_magnitude) {
        out.samples = std::move(payload);
        return true;
    }
    out.samples.reserve(payload.size() / 2);
    for (std::size_t i = 0; i + 1 < payload.size(); i += 2)
        out.samples.push_back(std::hypot(payload[i], payload[i + 1]));
    return true;
}

bool
isEmsig(const std::string &path)
{
    CheckedFile file;
    char magic[sizeof(kMagic)] = {};
    return file.open(path, CheckedFile::Mode::Read) &&
           file.preadAt(0, magic, sizeof(magic), "magic", nullptr) &&
           std::memcmp(magic, kMagic, sizeof(magic)) == 0;
}

bool
loadRawF32(const std::string &path, double sample_rate_hz, bool iq,
           TimeSeries &out, IoError *error)
{
    CheckedFile file;
    if (!file.open(path, CheckedFile::Mode::Read))
        return reportFileError(file, error);

    // A raw capture is an exact array of f32 (or f32 I/Q pairs); a
    // remainder means truncation or a non-raw file.  Refuse rather
    // than analyse a silently-mangled signal.
    uint64_t bytes = 0;
    if (!file.size(bytes, "raw stat"))
        return reportFileError(file, error);
    const uint64_t sample_bytes =
        iq ? 2 * sizeof(float) : sizeof(float);
    if (bytes % sample_bytes != 0)
        return reportFormat(path,
                            "byte count is not a multiple of the "
                            "sample size (truncated or not raw f32)",
                            error);

    out.sampleRateHz = sample_rate_hz;
    out.samples.clear();
    out.samples.reserve(static_cast<std::size_t>(bytes / sample_bytes));

    float buf[4096];
    uint64_t remaining = bytes / sizeof(float);
    while (remaining > 0) {
        const std::size_t got = static_cast<std::size_t>(
            std::min<uint64_t>(remaining, 4096));
        if (!file.readAll(buf, got * sizeof(float), "raw payload"))
            return reportFileError(file, error);
        remaining -= got;
        if (!iq) {
            out.samples.insert(out.samples.end(), buf, buf + got);
            continue;
        }
        // got is even: 4096 is even and the total float count is even.
        for (std::size_t i = 0; i + 1 < got; i += 2)
            out.samples.push_back(std::hypot(buf[i], buf[i + 1]));
    }
    return true;
}

bool
saveCsv(const std::string &path, const TimeSeries &series,
        IoError *error)
{
    CheckedFile file;
    if (!file.open(path, CheckedFile::Mode::WriteTruncate))
        return reportFileError(file, error);

    std::string block = "time_s,magnitude\n";
    char line[64];
    for (std::size_t i = 0; i < series.samples.size(); ++i) {
        std::snprintf(line, sizeof(line), "%.9f,%.6f\n",
                      static_cast<double>(i) / series.sampleRateHz,
                      static_cast<double>(series.samples[i]));
        block += line;
        if (block.size() >= 64 * 1024) {
            if (!file.writeAll(block.data(), block.size(), "csv rows"))
                return reportFileError(file, error);
            block.clear();
        }
    }
    const bool ok = (block.empty() ||
                     file.writeAll(block.data(), block.size(),
                                   "csv rows")) &&
                    file.close();
    if (!ok)
        return reportFileError(file, error);
    return true;
}

} // namespace emprof::dsp
