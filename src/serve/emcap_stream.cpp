#include "serve/emcap_stream.hpp"

#include <cstring>

#include "store/chunk_codec.hpp"
#include "store/crc32c.hpp"

namespace emprof::serve {

bool
EmcapStreamDecoder::poison(std::string *error, const std::string &message)
{
    state_ = State::Poisoned;
    poisonReason_ = message;
    pending_.clear();
    pending_.shrink_to_fit();
    if (error != nullptr)
        *error = message;
    return false;
}

bool
EmcapStreamDecoder::onFileHeader(std::string *error)
{
    store::FileHeader header{};
    std::memcpy(&header, pending_.data(), sizeof(header));
    if (std::memcmp(header.magic, store::kEmcapMagic,
                    sizeof(store::kEmcapMagic)) != 0)
        return poison(error, "bad magic: not an EMCAP stream");
    if (header.version != store::kEmcapVersion)
        return poison(error, "unsupported EMCAP version");
    if (store::crc32c(0, &header,
                      offsetof(store::FileHeader, headerCrc)) !=
        header.headerCrc)
        return poison(error, "file header CRC mismatch");
    if (header.codec != static_cast<uint32_t>(store::SampleCodec::F32) &&
        header.codec !=
            static_cast<uint32_t>(store::SampleCodec::QuantI16))
        return poison(error, "unknown sample codec");
    if (header.totalSamples == 0)
        return poison(error, "capture declares zero samples "
                             "(unfinalized or empty upload)");

    info_.version = header.version;
    info_.codec = static_cast<store::SampleCodec>(header.codec);
    info_.quantBits = header.quantBits;
    info_.sampleRateHz = header.sampleRateHz;
    info_.clockHz = header.clockHz;
    info_.totalSamples = header.totalSamples;
    char name[sizeof(header.deviceName) + 1] = {};
    std::memcpy(name, header.deviceName, sizeof(header.deviceName));
    info_.deviceName = name;
    headerReady_ = true;
    return true;
}

bool
EmcapStreamDecoder::onChunk(std::vector<dsp::Sample> &out,
                            std::string *error)
{
    // pending_ holds header + payload; the CRC covers the first 16
    // header bytes and then the payload, same as the on-disk reader.
    uint32_t crc = store::crc32c(0, pending_.data(),
                                 offsetof(store::ChunkHeader, crc));
    crc = store::crc32c(crc,
                        pending_.data() + sizeof(store::ChunkHeader),
                        chunkHeader_.payloadBytes);
    if (crc != chunkHeader_.crc)
        return poison(error, "chunk " +
                                 std::to_string(chunksDecoded_) +
                                 " CRC mismatch");

    const std::size_t base = out.size();
    out.resize(base + chunkHeader_.sampleCount);
    if (!store::decodeChunk(
            pending_.data() + sizeof(store::ChunkHeader),
            chunkHeader_.payloadBytes,
            static_cast<store::ChunkEncoding>(chunkHeader_.encoding),
            info_.codec, chunkHeader_.scale, chunkHeader_.sampleCount,
            out.data() + base)) {
        out.resize(base);
        return poison(error, "chunk " +
                                 std::to_string(chunksDecoded_) +
                                 " payload is malformed");
    }
    samplesDecoded_ += chunkHeader_.sampleCount;
    ++chunksDecoded_;
    if (samplesDecoded_ > info_.totalSamples)
        return poison(error,
                      "chunk stream overruns the declared "
                      "sample count");
    return true;
}

bool
EmcapStreamDecoder::feed(const uint8_t *data, std::size_t n,
                         std::vector<dsp::Sample> &out,
                         std::string *error)
{
    if (state_ == State::Poisoned)
        return poison(error, poisonReason_);

    while (n > 0) {
        if (state_ == State::Footer) {
            // Past the chunk region everything is footer: count it
            // and remember the last four bytes for the EMCF check.
            footerBytes_ += n;
            bytesConsumed_ += n;
            if (n >= sizeof(tail4_)) {
                std::memcpy(tail4_, data + n - sizeof(tail4_),
                            sizeof(tail4_));
            } else {
                uint8_t merged[8];
                std::memcpy(merged, tail4_, sizeof(tail4_));
                std::memcpy(merged + sizeof(tail4_), data, n);
                std::memcpy(tail4_, merged + n, sizeof(tail4_));
            }
            return true;
        }

        const std::size_t take = std::min(n, need_ - pending_.size());
        pending_.insert(pending_.end(), data, data + take);
        data += take;
        n -= take;
        bytesConsumed_ += take;
        if (pending_.size() < need_)
            return true; // mid-element; wait for more bytes

        switch (state_) {
        case State::FileHeader:
            if (!onFileHeader(error))
                return false;
            state_ = State::ChunkHeader;
            need_ = sizeof(store::ChunkHeader);
            break;
        case State::ChunkHeader: {
            std::memcpy(&chunkHeader_, pending_.data(),
                        sizeof(chunkHeader_));
            if (chunkHeader_.sampleCount == 0)
                return poison(error, "chunk declares zero samples");
            // No payload encodes more than maxChunkSamples() samples
            // (even width-0 packing needs a byte per 128), and nothing
            // legitimate inflates past 4 bytes/sample + slack: reject
            // absurd headers before buffering the payload or
            // allocating its samples.
            const uint64_t count = chunkHeader_.sampleCount;
            if (count > store::maxChunkSamples(
                            chunkHeader_.payloadBytes,
                            static_cast<store::ChunkEncoding>(
                                chunkHeader_.encoding),
                            info_.codec) ||
                chunkHeader_.payloadBytes > count * 8 + 64 ||
                count > info_.totalSamples)
                return poison(error,
                              "chunk header implausible (corrupt "
                              "stream?)");
            need_ = sizeof(store::ChunkHeader) +
                    chunkHeader_.payloadBytes;
            state_ = State::ChunkPayload;
            break;
        }
        case State::ChunkPayload:
            if (!onChunk(out, error))
                return false;
            pending_.clear();
            if (samplesDecoded_ == info_.totalSamples) {
                state_ = State::Footer;
                need_ = 0;
            } else {
                state_ = State::ChunkHeader;
                need_ = sizeof(store::ChunkHeader);
            }
            break;
        case State::Footer:
        case State::Poisoned:
            break; // unreachable: handled above
        }
        if (state_ != State::ChunkPayload)
            pending_.clear();
    }
    return true;
}

bool
EmcapStreamDecoder::complete(std::string *error) const
{
    const auto fail = [error](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return false;
    };
    if (state_ == State::Poisoned)
        return fail(poisonReason_);
    if (!headerReady_)
        return fail("upload ended before the EMCAP header");
    if (state_ != State::Footer)
        return fail("upload truncated: " +
                    std::to_string(samplesDecoded_) + " of " +
                    std::to_string(info_.totalSamples) +
                    " samples received");
    const uint64_t expected =
        chunksDecoded_ * sizeof(store::ChunkIndexEntry) +
        sizeof(store::FooterTail);
    if (footerBytes_ != expected)
        return fail("upload truncated mid-footer (" +
                    std::to_string(footerBytes_) + " of " +
                    std::to_string(expected) + " footer bytes)");
    if (std::memcmp(tail4_, store::kFooterMagic,
                    sizeof(store::kFooterMagic)) != 0)
        return fail("footer magic missing at end of upload");
    return true;
}

} // namespace emprof::serve
