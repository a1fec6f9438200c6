#include "serve/emcap_stream.hpp"

#include <cstring>

namespace emprof::serve {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

bool
EmcapStreamDecoder::poison(std::string *error, const std::string &message)
{
    state_ = State::Poisoned;
    poisonReason_ = message;
    pending_.clear();
    pending_.shrink_to_fit();
    return fail(error, message);
}

bool
EmcapStreamDecoder::onFileHeader(std::string *error)
{
    store::FileHeader header{};
    std::memcpy(&header, pending_.data(), sizeof(header));
    std::string why;
    if (!store::checkFileHeader(header, info_, &why))
        return poison(error, why);
    if (info_.totalSamples == 0)
        return poison(error, "capture declares zero samples "
                             "(unfinalized or empty upload)");
    headerReady_ = true;
    return true;
}

bool
EmcapStreamDecoder::onChunk(std::vector<dsp::Sample> &out,
                            std::string *error)
{
    // pending_ holds header + payload.  The declared total is checked
    // after the CRC, so corruption reads as corruption, and before the
    // samples are allocated.
    const uint8_t *payload = pending_.data() + sizeof(store::ChunkHeader);
    const uint32_t count = chunkHeader_.sampleCount;
    std::string why;
    if (!store::checkChunkCrc(chunksDecoded_, chunkHeader_, payload,
                              chunkHeader_.payloadBytes, &why))
        return poison(error, why);
    if (count > info_.totalSamples - samplesDecoded_)
        return poison(error,
                      "chunk stream overruns the declared sample count");
    const std::size_t base = out.size();
    out.resize(base + count);
    if (!store::decodeVerifiedChunk(chunksDecoded_, chunkHeader_, payload,
                                    info_.codec, &out[base], &why)) {
        out.resize(base);
        return poison(error, why);
    }
    samplesDecoded_ += count;
    ++chunksDecoded_;
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
            for (std::size_t k = n > 4 ? n - 4 : 0; k < n; ++k) {
                std::memmove(tail4_, tail4_ + 1, sizeof(tail4_) - 1);
                tail4_[sizeof(tail4_) - 1] = data[k];
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
            std::string why;
            if (!store::checkChunkHeader(chunksDecoded_, chunkHeader_,
                                         info_.codec, &why))
                return poison(error, why);
            need_ = sizeof(store::ChunkHeader) +
                    chunkHeader_.payloadBytes;
            state_ = State::ChunkPayload;
            break;
        }
        case State::ChunkPayload:
            if (!onChunk(out, error))
                return false;
            state_ = samplesDecoded_ == info_.totalSamples
                         ? State::Footer
                         : State::ChunkHeader;
            need_ = sizeof(store::ChunkHeader); // unused in Footer
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
    if (state_ == State::Poisoned)
        return fail(error, poisonReason_);
    if (!headerReady_)
        return fail(error, "upload ended before the EMCAP header");
    if (state_ != State::Footer)
        return fail(error, "upload truncated: " +
                               std::to_string(samplesDecoded_) + " of " +
                               std::to_string(info_.totalSamples) +
                               " samples received");
    const uint64_t expected =
        chunksDecoded_ * sizeof(store::ChunkIndexEntry) +
        sizeof(store::FooterTail);
    if (footerBytes_ != expected)
        return fail(error, "upload truncated mid-footer (" +
                               std::to_string(footerBytes_) + " of " +
                               std::to_string(expected) +
                               " footer bytes)");
    if (std::memcmp(tail4_, store::kFooterMagic,
                    sizeof(store::kFooterMagic)) != 0)
        return fail(error, "footer magic missing at end of upload");
    return true;
}

} // namespace emprof::serve
