#include "store/capture_reader.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "store/chunk_codec.hpp"
#include "store/crc32c.hpp"

namespace emprof::store {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

void
countCrcFailure()
{
    if (!obs::MetricsRegistry::enabled())
        return;
    static const obs::Counter failures =
        obs::MetricsRegistry::instance().counter(
            "store.read.crc_failures");
    failures.inc();
}

} // namespace

bool
CaptureReader::preadAt(uint64_t offset, void *buf, std::size_t len,
                       const char *context, std::string *error) const
{
    common::io::IoError e;
    if (file_.preadAt(offset, buf, len, context, &e))
        return true;
    return fail(error, e.describe());
}

void
CaptureReader::close()
{
    file_.reset();
    index_.clear();
    info_ = CaptureInfo{};
    fileSize_ = 0;
}

bool
CaptureReader::openHeader(const std::string &path, std::string &why)
{
    close();
    FileHeader header{};
    if (!file_.open(path, common::io::CheckedFile::Mode::Read))
        why = "cannot open " + path + ": " + file_.error().describe();
    else if (!file_.size(fileSize_, "stat"))
        why = "cannot stat " + path;
    // The 72-byte header is written first, before any chunk, and never
    // moves; without it there is no codec to decode chunks with.
    else if (fileSize_ < sizeof(FileHeader))
        why = "file shorter than the EMCAP header";
    else
        return preadAt(0, &header, sizeof(header), "file header", &why) &&
               checkFileHeader(header, info_, &why);
    return false;
}

bool
CaptureReader::open(const std::string &path, std::string *error)
{
    const auto bail = [&](const std::string &message) {
        close();
        return fail(error, message);
    };
    std::string why;
    if (!openHeader(path, why))
        return bail(why);
    if (fileSize_ < sizeof(FileHeader) + sizeof(FooterTail))
        return bail("file too short to be an EMCAP capture");

    FooterTail tail{};
    if (!preadAt(fileSize_ - sizeof(tail), &tail, sizeof(tail),
                 "footer tail", &why))
        return bail(why);
    if (std::memcmp(tail.magic, kFooterMagic, sizeof(kFooterMagic)) != 0)
        return bail("bad footer magic (truncated file? try recovery)");

    // Each chunk needs >= 20 bytes of body plus its 24-byte index
    // entry, which bounds the plausible chunk count before we allocate.
    const uint64_t non_chunk_bytes =
        sizeof(FileHeader) + sizeof(FooterTail);
    if (tail.chunkCount >
        (fileSize_ - non_chunk_bytes) /
            (sizeof(ChunkHeader) + sizeof(ChunkIndexEntry)))
        return bail("footer chunk count impossible for file size");

    const uint64_t index_bytes =
        tail.chunkCount * sizeof(ChunkIndexEntry);
    const uint64_t footer_start =
        fileSize_ - sizeof(FooterTail) - index_bytes;

    index_.resize(static_cast<std::size_t>(tail.chunkCount));
    if (index_bytes != 0 &&
        !preadAt(footer_start, index_.data(), index_bytes,
                 "footer index", &why))
        return bail(why);
    uint32_t crc = crc32c(0, index_.data(), index_bytes);
    crc = crc32c(crc, &tail, offsetof(FooterTail, footerCrc));
    if (crc != tail.footerCrc)
        return bail("footer CRC mismatch");
    if (tail.totalSamples != info_.totalSamples)
        return bail("header/footer sample counts disagree");

    // The chunk stream must tile [header, footer) exactly, and no
    // entry may claim more samples than its bytes hold under either
    // encoding (the index does not say which): the counts size every
    // decode buffer downstream.
    uint64_t offset = sizeof(FileHeader);
    uint64_t samples = 0;
    for (std::size_t i = 0; i < index_.size(); ++i) {
        const ChunkIndexEntry &entry = index_[i];
        if (entry.fileOffset != offset ||
            entry.firstSample != samples ||
            entry.sampleCount == 0 ||
            entry.storedBytes < sizeof(ChunkHeader))
            return bail("footer index inconsistent");
        const uint64_t payload = entry.storedBytes - sizeof(ChunkHeader);
        if (entry.sampleCount >
            std::max(
                maxChunkSamples(payload, ChunkEncoding::Raw, info_.codec),
                maxChunkSamples(payload, ChunkEncoding::DeltaPacked,
                                info_.codec)))
            return bail("footer index: chunk " + std::to_string(i) +
                        " declares more samples than its payload can "
                        "encode");
        offset += entry.storedBytes;
        samples += entry.sampleCount;
    }
    if (offset != footer_start || samples != tail.totalSamples)
        return bail("chunks do not tile the file");

    // Device names are user input: the JSON export escapes them, which
    // is exactly what the obs escaping tests pin down.
    obs::MetricsRegistry::instance().setLabel("store.device",
                                              info_.deviceName);
    return true;
}

bool
CaptureReader::openRecovered(const std::string &path,
                             RecoveryReport *report, std::string *error)
{
    EMPROF_OBS_STAGE("store.recover");
    std::string why;
    if (!openHeader(path, why)) {
        close();
        return fail(error, why + "; nothing recoverable");
    }

    // Walk the chunk stream from the front.  A chunk counts as
    // salvaged only if its full header + payload are present and pass
    // the verifier's header bounds and CRC; the first that fails ends
    // the salvageable prefix (it is a torn write, corruption, or the
    // start of a footer index).
    const char *const kScanEnd = " (footer, torn write, or corruption)";
    std::string stop_reason;
    std::vector<uint8_t> payload;
    uint64_t offset = sizeof(FileHeader);
    uint64_t samples = 0;
    while (offset < fileSize_) {
        if (fileSize_ - offset < sizeof(ChunkHeader)) {
            stop_reason = "truncated mid chunk header";
            break;
        }
        ChunkHeader chunk{};
        if (!preadAt(offset, &chunk, sizeof(chunk), "chunk header",
                     &stop_reason))
            break;
        const uint64_t i = index_.size();
        if (!checkChunkHeader(i, chunk, info_.codec, &stop_reason)) {
            stop_reason += chunk.sampleCount == 0 ? " (footer or torn write)"
                                                  : kScanEnd;
            break;
        }
        if (chunk.payloadBytes > fileSize_ - offset - sizeof(ChunkHeader)) {
            stop_reason = "truncated mid chunk payload";
            break;
        }
        payload.resize(chunk.payloadBytes);
        if (!preadAt(offset + sizeof(ChunkHeader), payload.data(),
                     payload.size(), "chunk payload", &stop_reason))
            break;
        if (!checkChunkCrc(i, chunk, payload.data(), payload.size(),
                           &stop_reason)) {
            countCrcFailure();
            stop_reason += kScanEnd;
            break;
        }
        index_.push_back({offset, samples, chunk.sampleCount,
                          static_cast<uint32_t>(sizeof(ChunkHeader) +
                                                chunk.payloadBytes)});
        samples += chunk.sampleCount;
        offset += index_.back().storedBytes;
    }
    // The header's own count is untrustworthy here (a crashed capture
    // still carries the provisional 0); the scan is the truth.
    info_.totalSamples = samples;

    if (report != nullptr) {
        *report = RecoveryReport{};
        report->salvagedChunks = index_.size();
        report->salvagedSamples = samples;
        report->salvagedBytes = offset;
        report->droppedTailBytes = fileSize_ - offset;
        report->stopReason = stop_reason;
    }
    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter recoveries =
            registry.counter("store.recovery.opens");
        static const obs::Counter salvaged_chunks =
            registry.counter("store.recovery.salvaged_chunks");
        static const obs::Counter salvaged_samples =
            registry.counter("store.recovery.salvaged_samples");
        static const obs::Counter dropped_bytes =
            registry.counter("store.recovery.dropped_tail_bytes");
        recoveries.inc();
        salvaged_chunks.add(index_.size());
        salvaged_samples.add(samples);
        dropped_bytes.add(fileSize_ - offset);
    }
    return true;
}

std::size_t
CaptureReader::chunkContaining(uint64_t sample) const
{
    const auto it = std::upper_bound(
        index_.begin(), index_.end(), sample,
        [](uint64_t s, const ChunkIndexEntry &e) {
            return s < e.firstSample;
        });
    return it == index_.begin()
               ? 0
               : static_cast<std::size_t>(it - index_.begin() - 1);
}

bool
CaptureReader::decodeStored(std::size_t i, std::vector<uint8_t> &stored,
                            dsp::Sample *out,
                            std::vector<dsp::Sample> *sized,
                            std::string *error) const
{
    if (!isOpen() || i >= index_.size())
        return fail(error, "chunk index out of range");
    const ChunkIndexEntry &entry = index_[i];

    // open() bounded the entry by the file, so the stored chunk is read
    // at once; nothing is sized from its header before the verifier
    // has passed it.
    stored.resize(entry.storedBytes);
    if (!preadAt(entry.fileOffset, stored.data(), stored.size(),
                 "chunk body", error))
        return false;
    ChunkHeader header{};
    std::memcpy(&header, stored.data(), sizeof(header));
    const uint8_t *payload = stored.data() + sizeof(header);
    const std::size_t payload_bytes = stored.size() - sizeof(header);

    if (!checkChunkHeader(i, header, info_.codec, error))
        return false;
    if (!checkChunkCrc(i, header, payload, payload_bytes, error)) {
        countCrcFailure();
        return false;
    }
    // A CRC-valid header that disagrees with the CRC-valid index is a
    // forgery; the decode below trusts both.
    if (header.sampleCount != entry.sampleCount ||
        header.payloadBytes != payload_bytes)
        return fail(error, "chunk " + std::to_string(i) +
                               " header disagrees with footer index");
    if (sized != nullptr) {
        sized->resize(entry.sampleCount);
        out = sized->data();
    }
    if (!decodeVerifiedChunk(i, header, payload, info_.codec, out, error))
        return false;
    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter chunks =
            registry.counter("store.read.chunks_decoded");
        static const obs::Counter samples =
            registry.counter("store.read.samples");
        static const obs::Counter bytes =
            registry.counter("store.read.bytes");
        chunks.inc();
        samples.add(entry.sampleCount);
        bytes.add(entry.storedBytes);
    }
    return true;
}

bool
CaptureReader::decodeChunkInto(std::size_t i, dsp::Sample *out,
                               std::vector<uint8_t> &stored,
                               std::string *error) const
{
    EMPROF_OBS_STAGE("store.decode_chunk");
    return decodeStored(i, stored, out, nullptr, error);
}

bool
CaptureReader::decodeChunk(std::size_t i, std::vector<dsp::Sample> &out,
                           std::string *error) const
{
    EMPROF_OBS_STAGE("store.decode_chunk");
    std::vector<uint8_t> stored;
    return decodeStored(i, stored, nullptr, &out, error);
}

bool
CaptureReader::readRange(uint64_t first, uint64_t count,
                         std::vector<dsp::Sample> &out,
                         std::string *error) const
{
    if (!isOpen())
        return fail(error, "reader not open");
    if (first + count < first || first + count > info_.totalSamples)
        return fail(error, "sample range exceeds capture");

    out.resize(static_cast<std::size_t>(count));
    std::vector<dsp::Sample> chunk;
    for (uint64_t at = first; at < first + count;) {
        const std::size_t ci = chunkContaining(at);
        if (!decodeChunk(ci, chunk, error))
            return false;
        const uint64_t lo = at - index_[ci].firstSample;
        const uint64_t n = std::min<uint64_t>(chunk.size() - lo,
                                              first + count - at);
        std::copy_n(chunk.begin() + static_cast<std::ptrdiff_t>(lo), n,
                    out.begin() + static_cast<std::ptrdiff_t>(at - first));
        at += n;
    }
    return true;
}

bool
CaptureReader::readAll(dsp::TimeSeries &out, std::string *error) const
{
    out.sampleRateHz = info_.sampleRateHz;
    return readRange(0, info_.totalSamples, out.samples, error);
}

CaptureReader::VerifyResult
CaptureReader::verify() const
{
    VerifyResult result;
    if (!isOpen()) {
        result.error = "reader not open";
        return result;
    }

    // open() already vetted header + footer; walk every payload too.
    std::vector<dsp::Sample> scratch;
    for (std::size_t i = 0; i < index_.size(); ++i) {
        ++result.chunksChecked;
        if (!decodeChunk(i, scratch))
            result.badChunks.push_back(i);
    }
    result.ok = result.badChunks.empty();
    return result;
}

bool
CaptureReader::isEmcap(const std::string &path, std::string *openError)
{
    common::io::CheckedFile file;
    if (!file.open(path, common::io::CheckedFile::Mode::Read)) {
        if (openError != nullptr)
            *openError =
                "cannot open " + path + ": " + file.error().describe();
        return false;
    }
    char magic[sizeof(kEmcapMagic)] = {};
    return file.preadAt(0, magic, sizeof(magic), "magic", nullptr) &&
           std::memcmp(magic, kEmcapMagic, sizeof(magic)) == 0;
}

} // namespace emprof::store
