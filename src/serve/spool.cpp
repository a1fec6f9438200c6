#include "serve/spool.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>

#include "store/crc32c.hpp"

namespace emprof::serve {

namespace fs = std::filesystem;

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

uint64_t
nowUnixMillis()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::string
segmentName(uint64_t seq)
{
    return "spool-" + std::to_string(seq) + ".emspool";
}

/** Parse "spool-<seq>.emspool"; false for anything else. */
bool
parseSegmentName(const std::string &name, uint64_t &seq)
{
    const std::string prefix = "spool-";
    const std::string suffix = ".emspool";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty())
        return false;
    seq = 0;
    for (const char c : digits) {
        if (c < '0' || c > '9')
            return false;
        seq = seq * 10 + static_cast<uint64_t>(c - '0');
    }
    return true;
}

uint32_t
recordCrc(const SpoolRecordHeader &header,
          const uint8_t *payload, std::size_t payloadBytes)
{
    SpoolRecordHeader h = header;
    h.crc = 0;
    uint32_t crc = store::crc32c(0, &h, sizeof(h));
    return store::crc32c(crc, payload, payloadBytes);
}

/** Hard sanity bound: no legitimate report payload approaches this. */
constexpr uint32_t kMaxSpoolPayload = 256u << 20;

} // namespace

bool
ResultSpool::isOpen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return open_;
}

bool
ResultSpool::open(const Options &options, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (open_)
        return fail(error, "spool already open");
    if (options.dir.empty())
        return fail(error, "spool directory not set");

    std::error_code ec;
    fs::create_directories(options.dir, ec);
    if (ec)
        return fail(error, "cannot create spool directory " +
                               options.dir + ": " + ec.message());

    options_ = options;
    index_.clear();
    recovery_ = RecoveryStats{};
    nextOrder_ = 0;
    expiredByRetention_ = 0;

    // Recover every existing segment in append (seq) order so the
    // index ends up with the newest record per session and acks land
    // after the results they refer to.
    std::set<uint64_t> seqs;
    for (const auto &entry : fs::directory_iterator(options.dir, ec)) {
        uint64_t seq;
        if (entry.is_regular_file() &&
            parseSegmentName(entry.path().filename().string(), seq))
            seqs.insert(seq);
    }
    if (ec)
        return fail(error, "cannot list spool directory " +
                               options.dir + ": " + ec.message());
    uint64_t max_seq = 0;
    for (const uint64_t seq : seqs) {
        scanSegment((fs::path(options.dir) / segmentName(seq)).string(),
                    seq);
        max_seq = std::max(max_seq, seq + 1);
        ++recovery_.segments;
    }

    // A fresh process always appends to a NEW segment: a torn tail
    // left by a crash is never extended, only skipped (and GC'd).
    nextSeq_ = max_seq;
    activePath_.clear();
    activeBytes_ = 0;
    open_ = true;
    return true;
}

bool
ResultSpool::scanSegment(const std::string &path, uint64_t /*seq*/)
{
    common::io::CheckedFile file;
    if (!file.open(path, common::io::CheckedFile::Mode::Read))
        return false;
    uint64_t size = 0;
    if (!file.size(size, "spool segment size"))
        return false;

    uint64_t offset = 0;
    for (;;) {
        if (offset + sizeof(SpoolRecordHeader) > size) {
            if (offset != size)
                ++recovery_.tornRecords;
            break;
        }
        SpoolRecordHeader header;
        common::io::IoError io;
        if (!file.preadAt(offset, &header, sizeof(header),
                          "spool record header", &io)) {
            ++recovery_.tornRecords;
            break;
        }
        if (std::memcmp(header.magic, kSpoolMagic,
                        sizeof(kSpoolMagic)) != 0 ||
            header.version != kSpoolVersion ||
            header.payloadBytes > kMaxSpoolPayload ||
            offset + sizeof(header) + header.payloadBytes > size) {
            ++recovery_.tornRecords;
            break;
        }
        std::vector<uint8_t> payload(header.payloadBytes);
        if (header.payloadBytes > 0 &&
            !file.preadAt(offset + sizeof(header), payload.data(),
                          payload.size(), "spool record payload",
                          &io)) {
            ++recovery_.tornRecords;
            break;
        }
        if (recordCrc(header, payload.data(), payload.size()) !=
            header.crc) {
            ++recovery_.tornRecords;
            break;
        }

        SessionId id;
        std::memcpy(id.data(), header.sessionId, id.size());
        const std::string hex = sessionIdToHex(id);
        if (header.kind ==
            static_cast<uint32_t>(SpoolRecordKind::Result)) {
            IndexEntry entry;
            entry.segment = path;
            entry.offset = offset;
            entry.payloadBytes = header.payloadBytes;
            entry.status = header.status;
            entry.unixMillis = header.unixMillis;
            entry.order = nextOrder_++;
            index_[hex] = entry;
            ++recovery_.results;
        } else if (header.kind ==
                   static_cast<uint32_t>(SpoolRecordKind::Ack)) {
            const auto it = index_.find(hex);
            if (it != index_.end() && !it->second.acked) {
                it->second.acked = true;
                ++recovery_.acked;
            }
        } else {
            ++recovery_.tornRecords;
            break;
        }
        offset += sizeof(header) + header.payloadBytes;
    }
    return true;
}

bool
ResultSpool::rotateLocked(std::string *error)
{
    if (active_.isOpen()) {
        if (!active_.close()) {
            const std::string why = active_.error().describe();
            active_.reset();
            activePath_.clear();
            activeBytes_ = 0;
            return fail(error, why);
        }
    }
    activePath_ =
        (fs::path(options_.dir) / segmentName(nextSeq_++)).string();
    activeBytes_ = 0;
    if (!active_.open(activePath_,
                      common::io::CheckedFile::Mode::WriteTruncate)) {
        const std::string why = active_.error().describe();
        active_.reset();
        activePath_.clear();
        return fail(error, why);
    }
    return true;
}

bool
ResultSpool::appendRecordLocked(SpoolRecordKind kind,
                                const SessionId &id, uint32_t status,
                                const std::vector<uint8_t> &payload,
                                std::string *error)
{
    if (!open_)
        return fail(error, "spool is not open");
    if (payload.size() > kMaxSpoolPayload)
        return fail(error, "spool record payload too large");
    if ((!active_.isOpen() || activeBytes_ >= options_.segmentBytes) &&
        !rotateLocked(error))
        return false;

    SpoolRecordHeader header{};
    std::memcpy(header.magic, kSpoolMagic, sizeof(header.magic));
    header.version = kSpoolVersion;
    header.kind = static_cast<uint32_t>(kind);
    header.status = status;
    std::memcpy(header.sessionId, id.data(), id.size());
    header.unixMillis = nowUnixMillis();
    header.payloadBytes = static_cast<uint32_t>(payload.size());
    header.crc = recordCrc(header, payload.data(), payload.size());

    // fsync BEFORE reporting success: append() returning true is the
    // durability point the Report reply is ordered after.
    if (!active_.writeAll(&header, sizeof(header),
                          "spool record header") ||
        (!payload.empty() &&
         !active_.writeAll(payload.data(), payload.size(),
                           "spool record payload")) ||
        !active_.syncToDisk("spool record")) {
        const std::string why = active_.error().describe();
        // The active segment now has a torn tail; abandon it so the
        // next append starts a fresh segment (recovery skips the
        // tail, exactly like a crash).
        active_.reset();
        activePath_.clear();
        activeBytes_ = 0;
        return fail(error, why);
    }
    activeBytes_ += sizeof(header) + payload.size();
    return true;
}

bool
ResultSpool::append(const SessionId &id, uint32_t status,
                    const std::vector<uint8_t> &reportPayload,
                    std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!appendRecordLocked(SpoolRecordKind::Result, id, status,
                            reportPayload, error))
        return false;

    IndexEntry entry;
    entry.segment = activePath_;
    entry.offset =
        activeBytes_ - sizeof(SpoolRecordHeader) - reportPayload.size();
    entry.payloadBytes = static_cast<uint32_t>(reportPayload.size());
    entry.status = status;
    entry.unixMillis = nowUnixMillis();
    entry.order = nextOrder_++;
    index_[sessionIdToHex(id)] = entry;
    enforceRetentionLocked();
    return true;
}

void
ResultSpool::enforceRetentionLocked()
{
    for (;;) {
        uint64_t live = 0;
        auto oldest = index_.end();
        for (auto it = index_.begin(); it != index_.end(); ++it) {
            if (it->second.acked)
                continue;
            ++live;
            if (oldest == index_.end() ||
                it->second.order < oldest->second.order)
                oldest = it;
        }
        if (live <= options_.maxResults || oldest == index_.end())
            return;
        index_.erase(oldest);
        ++expiredByRetention_;
    }
}

bool
ResultSpool::ack(const SessionId &id, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!open_)
        return fail(error, "spool is not open");
    const std::string hex = sessionIdToHex(id);
    const auto it = index_.find(hex);
    if (it == index_.end())
        return fail(error, "no spooled result for session " + hex);
    if (it->second.acked)
        return fail(error,
                    "session " + hex + " already acknowledged");
    if (!appendRecordLocked(SpoolRecordKind::Ack, id, 0, {}, error))
        return false;
    it->second.acked = true;
    return true;
}

bool
ResultSpool::has(const SessionId &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.find(sessionIdToHex(id)) != index_.end();
}

bool
ResultSpool::fetch(const SessionId &id, uint32_t &status,
                   std::vector<uint8_t> &reportPayload,
                   std::string *error) const
{
    std::string segment;
    uint64_t offset = 0;
    uint32_t payload_bytes = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(sessionIdToHex(id));
        if (it == index_.end())
            return fail(error, "no spooled result for session " +
                                   sessionIdToHex(id));
        segment = it->second.segment;
        offset = it->second.offset;
        payload_bytes = it->second.payloadBytes;
    }

    // Read back from disk and re-verify the CRC: a result damaged at
    // rest must be a typed error, never a silently wrong report.
    common::io::CheckedFile file;
    if (!file.open(segment, common::io::CheckedFile::Mode::Read))
        return fail(error, file.error().describe());
    SpoolRecordHeader header;
    common::io::IoError io;
    if (!file.preadAt(offset, &header, sizeof(header),
                      "spool record header", &io))
        return fail(error, io.describe());
    std::vector<uint8_t> payload(payload_bytes);
    if (payload_bytes > 0 &&
        !file.preadAt(offset + sizeof(header), payload.data(),
                      payload.size(), "spool record payload", &io))
        return fail(error, io.describe());
    if (header.payloadBytes != payload_bytes ||
        recordCrc(header, payload.data(), payload.size()) !=
            header.crc)
        return fail(error, "spool record for session " +
                               sessionIdToHex(id) +
                               " is damaged (CRC mismatch)");
    status = header.status;
    reportPayload = std::move(payload);
    return true;
}

std::vector<ResultSpool::Entry>
ResultSpool::list() const
{
    std::vector<std::pair<uint64_t, Entry>> ordered;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ordered.reserve(index_.size());
        for (const auto &[hex, ie] : index_) {
            Entry e;
            (void)sessionIdFromHex(hex, e.id);
            e.status = ie.status;
            e.unixMillis = ie.unixMillis;
            e.payloadBytes = ie.payloadBytes;
            e.acked = ie.acked;
            ordered.emplace_back(ie.order, e);
        }
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::vector<Entry> out;
    out.reserve(ordered.size());
    for (auto &[order, e] : ordered)
        out.push_back(e);
    return out;
}

uint64_t
ResultSpool::resultCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

uint64_t
ResultSpool::expiredByRetention() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return expiredByRetention_;
}

uint64_t
ResultSpool::gc(std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!open_) {
        fail(error, "spool is not open");
        return 0;
    }

    // A segment is reclaimable when no un-acked result lives in it
    // and it is not the active append target.
    std::set<std::string> keep;
    if (active_.isOpen())
        keep.insert(activePath_);
    for (const auto &[hex, ie] : index_)
        if (!ie.acked)
            keep.insert(ie.segment);

    uint64_t removed = 0;
    std::error_code ec;
    std::vector<std::string> doomed;
    for (const auto &entry :
         fs::directory_iterator(options_.dir, ec)) {
        uint64_t seq;
        const std::string path = entry.path().string();
        if (entry.is_regular_file() &&
            parseSegmentName(entry.path().filename().string(), seq) &&
            keep.find(path) == keep.end())
            doomed.push_back(path);
    }
    for (const auto &path : doomed) {
        if (fs::remove(path, ec) && !ec)
            ++removed;
        // Drop index entries (all acked by construction) that lived
        // in the reclaimed segment.
        for (auto it = index_.begin(); it != index_.end();) {
            if (it->second.segment == path)
                it = index_.erase(it);
            else
                ++it;
        }
    }
    return removed;
}

void
ResultSpool::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_.isOpen())
        (void)active_.close();
    active_.reset();
    activePath_.clear();
    activeBytes_ = 0;
    open_ = false;
}

} // namespace emprof::serve
