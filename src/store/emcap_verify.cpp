#include "store/emcap_verify.hpp"

#include <cstring>

#include "store/chunk_codec.hpp"
#include "store/crc32c.hpp"

namespace emprof::store {

namespace {

bool
refuse(std::string *why, const std::string &reason)
{
    if (why != nullptr)
        *why = reason;
    return false;
}

bool
refuseChunk(std::string *why, uint64_t index, const std::string &rule)
{
    return refuse(why,
                  "chunk " + std::to_string(index) + " refused: " + rule);
}

} // namespace

bool
checkFileHeader(const FileHeader &header, CaptureInfo &info,
                std::string *why)
{
    if (std::memcmp(header.magic, kEmcapMagic, sizeof(kEmcapMagic)) != 0)
        return refuse(why, "bad magic: not an EMCAP capture");
    if (header.version != kEmcapVersion)
        return refuse(why, "unsupported EMCAP version");
    if (crc32c(0, &header, offsetof(FileHeader, headerCrc)) !=
        header.headerCrc)
        return refuse(why, "file header CRC mismatch");
    if (header.codec != static_cast<uint32_t>(SampleCodec::F32) &&
        header.codec != static_cast<uint32_t>(SampleCodec::QuantI16))
        return refuse(why, "unknown sample codec");
    info.version = header.version;
    info.codec = static_cast<SampleCodec>(header.codec);
    info.quantBits = header.quantBits;
    info.sampleRateHz = header.sampleRateHz;
    info.clockHz = header.clockHz;
    info.deviceName.assign(
        header.deviceName,
        ::strnlen(header.deviceName, sizeof(header.deviceName)));
    info.totalSamples = header.totalSamples;
    return true;
}

bool
checkChunkHeader(uint64_t index, const ChunkHeader &header,
                 SampleCodec codec, std::string *why)
{
    const uint64_t count = header.sampleCount;
    const auto encoding = static_cast<ChunkEncoding>(header.encoding);
    const char *rule = nullptr;
    if (count == 0)
        rule = "zero samples";
    else if (encoding != ChunkEncoding::Raw &&
             encoding != ChunkEncoding::DeltaPacked)
        rule = "unknown encoding";
    // Even width-0 packing needs a byte per 128 samples, and nothing
    // the encoder writes inflates past 4 bytes per sample.
    else if (count > maxChunkSamples(header.payloadBytes, encoding, codec))
        rule = "declares more samples than its payload can encode";
    else if (header.payloadBytes > count * 8 + 64)
        rule = "payload too large for its sample count";
    return rule == nullptr ||
           refuseChunk(why, index,
                       std::string("chunk header implausible: ") + rule);
}

bool
checkChunkCrc(uint64_t index, const ChunkHeader &header,
              const uint8_t *payload, std::size_t n, std::string *why)
{
    return crc32c(crc32c(0, &header, offsetof(ChunkHeader, crc)), payload,
                  n) == header.crc ||
           refuseChunk(why, index, "CRC mismatch");
}

bool
decodeVerifiedChunk(uint64_t index, const ChunkHeader &header,
                    const uint8_t *payload, SampleCodec codec,
                    dsp::Sample *out, std::string *why)
{
    return decodeChunk(payload, header.payloadBytes,
                       static_cast<ChunkEncoding>(header.encoding), codec,
                       header.scale, header.sampleCount, out) ||
           refuseChunk(why, index, "payload malformed");
}

} // namespace emprof::store
