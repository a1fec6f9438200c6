/**
 * @file
 * Differential EMCAP suite: the same bytes through every reader.
 *
 * CaptureReader::open + decodeChunkInto, CaptureReader::openRecovered
 * and serve::EmcapStreamDecoder (fed whole, one byte at a time and at
 * seeded random slicings) all verify EMCAP through one set of rules
 * (store/emcap_verify.hpp).  Small F32 and QuantI16 captures, built
 * from chunk lists that mix Raw and DeltaPacked chunks, are mutated two
 * ways:
 *
 *  - sealed: a seeded edit of one chunk's sampleCount, payloadBytes
 *    (the payload grows or shrinks to match), encoding, scale or
 *    payload bytes, after which the chunk CRC, index entry, footer CRC
 *    and header total are recomputed, so the checks below the CRCs are
 *    what refuses it;
 *  - unsealed: raw byte flips anywhere, and truncations.
 *
 * Every reader must refuse the same first chunk with the same reason
 * and decode every chunk before it to bit-identical samples.  The
 * exceptions are the documented ones: openRecovered checks only the
 * chunk header's bounds and the CRC (it salvages without decoding),
 * only open() reads the footer, and only the stream checks the
 * declared total.
 *
 * The fast run is part of test_serve (so the ASan/UBSan and TSan jobs
 * run it too); test_emcap_differential_long builds the same sweep at
 * 100k captures under the `slow` label and prints how often each
 * reader ran.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "serve/emcap_stream.hpp"
#include "store/capture_reader.hpp"
#include "store/chunk_codec.hpp"
#include "store/crc32c.hpp"

using namespace emprof;
using namespace emprof::store;

namespace {

struct Chunk
{
    ChunkHeader header{};
    std::vector<uint8_t> payload;
};

/** A capture as a chunk list; seal() derives every checksum. */
struct Capture
{
    SampleCodec codec = SampleCodec::F32;
    unsigned quantBits = 0;
    std::vector<Chunk> chunks;
};

template <typename T>
void
append(std::vector<uint8_t> &bytes, const T &value)
{
    const auto *p = reinterpret_cast<const uint8_t *>(&value);
    bytes.insert(bytes.end(), p, p + sizeof(T));
}

/**
 * The file bytes of @p capture: each chunk's payloadBytes and CRC, the
 * index, the footer CRC and the header total all follow from the chunk
 * list, as a writer would produce them.
 */
std::vector<uint8_t>
seal(const Capture &capture)
{
    FileHeader header{};
    std::memcpy(header.magic, kEmcapMagic, sizeof(header.magic));
    header.version = kEmcapVersion;
    header.codec = static_cast<uint32_t>(capture.codec);
    header.quantBits = capture.quantBits;
    header.sampleRateHz = 40e6;
    header.clockHz = 1e9;
    std::strncpy(header.deviceName, "differential",
                 sizeof(header.deviceName) - 1);

    std::vector<uint8_t> body;
    std::vector<ChunkIndexEntry> index;
    uint64_t samples = 0;
    for (const Chunk &c : capture.chunks) {
        ChunkHeader h = c.header;
        h.payloadBytes = static_cast<uint32_t>(c.payload.size());
        h.crc = crc32c(crc32c(0, &h, offsetof(ChunkHeader, crc)),
                       c.payload.data(), c.payload.size());
        index.push_back({sizeof(FileHeader) + body.size(), samples,
                         h.sampleCount,
                         static_cast<uint32_t>(sizeof(h) +
                                               c.payload.size())});
        append(body, h);
        body.insert(body.end(), c.payload.begin(), c.payload.end());
        samples += h.sampleCount;
    }
    header.totalSamples = samples;
    header.headerCrc = crc32c(0, &header, offsetof(FileHeader, headerCrc));

    FooterTail tail{index.size(), samples, 0, {'E', 'M', 'C', 'F'}};
    tail.footerCrc =
        crc32c(crc32c(0, index.data(), index.size() * sizeof(index[0])),
               &tail, offsetof(FooterTail, footerCrc));

    std::vector<uint8_t> bytes;
    append(bytes, header);
    bytes.insert(bytes.end(), body.begin(), body.end());
    for (const auto &entry : index)
        append(bytes, entry);
    append(bytes, tail);
    return bytes;
}

/** One chunk of @p n samples: a noisy plateau that packs, or random
 *  values that fall back to Raw; compression itself is also seeded. */
Chunk
makeChunk(std::mt19937_64 &rng, const Capture &capture, std::size_t n)
{
    std::vector<dsp::Sample> x(n);
    const bool smooth = rng() % 2 == 0;
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    for (auto &v : x)
        v = smooth ? 1.0f + 0.01f * unit(rng) : unit(rng) * 1e3f;
    EncoderOptions options;
    options.codec = capture.codec;
    options.quantBits = capture.quantBits;
    options.compress = rng() % 4 != 0;
    const EncodedChunk encoded = encodeChunk(x.data(), n, options);

    Chunk c;
    c.header.encoding = static_cast<uint32_t>(encoded.encoding);
    c.header.sampleCount = static_cast<uint32_t>(n);
    c.header.scale = encoded.scale;
    c.payload = encoded.payload;
    return c;
}

Capture
makeCapture(std::mt19937_64 &rng)
{
    Capture capture;
    if (rng() % 2 == 0) {
        capture.codec = SampleCodec::QuantI16;
        capture.quantBits = 2 + static_cast<unsigned>(rng() % 15);
    }
    const std::size_t chunks = 1 + rng() % 5;
    for (std::size_t i = 0; i < chunks; ++i)
        capture.chunks.push_back(makeChunk(rng, capture, 1 + rng() % 300));
    return capture;
}

/** A seeded edit of one field of one chunk; seal() re-seals it. */
void
editChunk(std::mt19937_64 &rng, Capture &capture)
{
    Chunk &c = capture.chunks[rng() % capture.chunks.size()];
    ChunkHeader &h = c.header;
    const uint32_t count = h.sampleCount;
    const auto bound = static_cast<uint32_t>(std::min<uint64_t>(
        maxChunkSamples(c.payload.size(),
                        static_cast<ChunkEncoding>(h.encoding),
                        capture.codec),
        UINT32_MAX - 1));
    switch (rng() % 5) {
    case 0: {
        const uint32_t counts[] = {0,         1,         count - 1,
                                   count + 1, 2 * count, bound,
                                   bound + 1, static_cast<uint32_t>(rng())};
        h.sampleCount = counts[rng() % 8];
        break;
    }
    case 1: {
        const std::size_t size = c.payload.size();
        const std::size_t sizes[] = {0,
                                     size - std::min<std::size_t>(size, 1),
                                     size + 1,
                                     size + 8,
                                     8 * std::size_t{count} + 64,
                                     8 * std::size_t{count} + 65,
                                     rng() % (2 * size + 80)};
        const std::size_t old = c.payload.size();
        c.payload.resize(sizes[rng() % 7]);
        for (std::size_t i = old; i < c.payload.size(); ++i)
            c.payload[i] = static_cast<uint8_t>(rng());
        break;
    }
    case 2: {
        const uint32_t encodings[] = {0, 1, 2, static_cast<uint32_t>(rng())};
        h.encoding = encodings[rng() % 4];
        break;
    }
    case 3: {
        const auto bits = static_cast<uint32_t>(rng());
        std::memcpy(&h.scale, &bits, sizeof(bits));
        break;
    }
    default:
        if (c.payload.empty())
            break;
        for (int k = 1 + static_cast<int>(rng() % 3); k > 0; --k)
            c.payload[rng() % c.payload.size()] ^=
                static_cast<uint8_t>(1 + rng() % 255);
        break;
    }
}

/** Raw byte flips or a truncation of sealed bytes, nothing re-sealed. */
void
damageBytes(std::mt19937_64 &rng, std::vector<uint8_t> &bytes)
{
    if (rng() % 2 == 0) {
        bytes.resize(rng() % bytes.size());
        return;
    }
    for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k)
        bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
}

bool
sameBits(const std::vector<dsp::Sample> &a,
         const std::vector<dsp::Sample> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

/** What one reader made of a capture. */
struct Outcome
{
    bool opened = true;  ///< open()/openRecovered() accepted the file
    std::string refusal; ///< first refusal (or open error); "" if none
    std::vector<dsp::Sample> samples; ///< chunks before the refusal
    bool complete = false;            ///< stream only: complete()
    uint64_t salvaged = 0;            ///< openRecovered only
};

Outcome
streamOutcome(const std::vector<uint8_t> &bytes,
              const std::vector<std::size_t> &cuts)
{
    Outcome o;
    serve::EmcapStreamDecoder decoder;
    std::size_t at = 0;
    for (std::size_t k = 0; k <= cuts.size() && o.refusal.empty(); ++k) {
        const std::size_t end = k < cuts.size() ? cuts[k] : bytes.size();
        if (!decoder.feed(bytes.data() + at, end - at, o.samples,
                          &o.refusal) &&
            o.refusal.empty())
            o.refusal = "(feed failed without a reason)";
        at = end;
    }
    std::string ignored;
    o.complete = decoder.complete(&ignored);
    o.opened = decoder.headerReady();
    return o;
}

Outcome
openOutcome(const std::string &path)
{
    Outcome o;
    CaptureReader reader;
    if (!reader.open(path, &o.refusal)) {
        o.opened = false;
        return o;
    }
    std::vector<uint8_t> stored;
    for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
        const std::size_t base = o.samples.size();
        o.samples.resize(base + reader.chunk(i).sampleCount);
        if (!reader.decodeChunkInto(i, o.samples.data() + base, stored,
                                    &o.refusal)) {
            o.samples.resize(base);
            break;
        }
    }
    return o;
}

Outcome
recoveryOutcome(const std::string &path)
{
    Outcome o;
    CaptureReader reader;
    RecoveryReport report;
    if (!reader.openRecovered(path, &report, &o.refusal)) {
        o.opened = false;
        return o;
    }
    o.refusal = report.stopReason;
    o.salvaged = report.salvagedChunks;
    // The scan does not decode, so decode the salvage here, up to the
    // first chunk whose payload the decode refuses.
    std::vector<dsp::Sample> chunk;
    for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
        if (!reader.decodeChunk(i, chunk))
            break;
        o.samples.insert(o.samples.end(), chunk.begin(), chunk.end());
    }
    return o;
}

/** "chunk <k> refused: ..." names chunk k; anything else, -1. */
long
refusedChunk(const std::string &message)
{
    unsigned long k = 0;
    int used = 0;
    if (std::sscanf(message.c_str(), "chunk %lu refused: %n", &k, &used) !=
            1 ||
        used == 0)
        return -1;
    return static_cast<long>(k);
}

/** The stream's own rules (declared total, zero total). */
bool
streamOnlyRule(const std::string &message)
{
    return message.rfind("capture declares zero samples", 0) == 0 ||
           message.find("overruns the declared sample count") !=
               std::string::npos;
}

/** How often each reader ran, and the stream's verdicts by rule. */
struct Runs
{
    std::map<std::string, std::size_t> verdicts;
    std::size_t captures = 0;
    std::size_t open = 0;
    std::size_t recovered = 0;
    std::size_t whole = 0;
    std::size_t byteAtATime = 0;
    std::size_t sliced = 0;
};

/**
 * Run every reader on @p bytes and check that they agree.  @p what
 * labels failures.
 */
void
checkAgreement(const std::vector<uint8_t> &bytes, std::mt19937_64 &rng,
               const std::string &path, Runs &runs,
               const std::string &what)
{
    SCOPED_TRACE(what);
    ++runs.captures;
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    // The stream, whole, one byte at a time and at a random slicing,
    // must not notice how the bytes were cut.
    std::vector<std::size_t> bytewise;
    for (std::size_t i = 1; i < bytes.size(); ++i)
        bytewise.push_back(i);
    std::vector<std::size_t> random;
    for (std::size_t at = 0; bytes.size() > 1;) {
        at += 1 + rng() % std::max<std::size_t>(bytes.size() / 3, 1);
        if (at >= bytes.size())
            break;
        random.push_back(at);
    }
    const Outcome s = streamOutcome(bytes, {});
    const Outcome sb = streamOutcome(bytes, bytewise);
    const Outcome sr = streamOutcome(bytes, random);
    runs.whole += 1;
    runs.byteAtATime += 1;
    runs.sliced += 1;
    for (const Outcome *o : {&sb, &sr}) {
        EXPECT_EQ(o->refusal, s.refusal);
        EXPECT_EQ(o->complete, s.complete);
        EXPECT_TRUE(sameBits(o->samples, s.samples));
    }

    const Outcome f = openOutcome(path);
    const Outcome r = recoveryOutcome(path);
    ++runs.open;
    ++runs.recovered;
    const std::string verdicts = "\n  stream:   " + s.refusal +
                                 "\n  open:     " + f.refusal +
                                 "\n  recover:  " + r.refusal;

    const long k = refusedChunk(s.refusal);
    std::string verdict = s.refusal;
    if (s.refusal.empty())
        verdict = s.complete ? "accepted" : "cut short";
    else if (k >= 0)
        verdict = s.refusal.substr(s.refusal.find(" refused: ") + 10);
    ++runs.verdicts[verdict];
    if (k >= 0) {
        // A chunk refusal: open's decode and the salvage scan stop at
        // the same chunk for the same reason.
        if (f.opened) {
            EXPECT_EQ(f.refusal, s.refusal) << verdicts;
            EXPECT_TRUE(sameBits(f.samples, s.samples)) << verdicts;
        } else {
            EXPECT_EQ(refusedChunk(f.refusal), -1) << verdicts;
        }
        ASSERT_TRUE(r.opened) << verdicts;
        const bool decodeRule =
            s.refusal.find("payload malformed") != std::string::npos;
        if (decodeRule) {
            EXPECT_GT(r.salvaged, static_cast<uint64_t>(k)) << verdicts;
        } else {
            EXPECT_EQ(r.salvaged, static_cast<uint64_t>(k)) << verdicts;
            EXPECT_EQ(r.refusal.rfind(s.refusal, 0), 0u) << verdicts;
        }
        EXPECT_TRUE(sameBits(r.samples, s.samples)) << verdicts;
    } else if (!s.refusal.empty() && streamOnlyRule(s.refusal)) {
        // A rule only the stream checks: nothing to compare.
    } else if (!s.refusal.empty()) {
        // Refused at the file header: every reader, the same reason.
        EXPECT_FALSE(s.opened) << verdicts;
        EXPECT_FALSE(f.opened) << verdicts;
        EXPECT_EQ(f.refusal, s.refusal) << verdicts;
        EXPECT_FALSE(r.opened) << verdicts;
        EXPECT_EQ(r.refusal, s.refusal + "; nothing recoverable")
            << verdicts;
    } else if (s.opened) {
        // No refusal: the stream decoded every chunk its bytes held.
        // If it ran out inside chunk k, open() (which knows the chunk's
        // extent from the footer) may refuse chunk k, and only open()
        // reads, and may refuse, the footer.  The salvage holds
        // exactly the chunks the stream decoded.
        if (f.opened) {
            EXPECT_TRUE(sameBits(f.samples, s.samples)) << verdicts;
            if (s.complete) {
                EXPECT_EQ(f.refusal, "") << verdicts;
            }
        }
        EXPECT_TRUE(r.opened) << verdicts;
        EXPECT_TRUE(sameBits(r.samples, s.samples)) << verdicts;
    } else {
        // Cut short inside the file header: nobody has a capture.
        EXPECT_FALSE(f.opened) << verdicts;
        EXPECT_FALSE(r.opened) << verdicts;
    }
}

std::string
scratchPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "emcap_differential_" +
           tag + "_" + std::to_string(::getpid()) + ".emcap";
}

/** @p captures seeded captures, half sealed edits, half raw damage. */
Runs
sweep(uint64_t seed, std::size_t captures)
{
    std::mt19937_64 rng(seed);
    const std::string path = scratchPath("sweep");
    Runs runs;
    for (std::size_t i = 0; i < captures && !::testing::Test::HasFailure();
         ++i) {
        Capture capture = makeCapture(rng);
        std::vector<uint8_t> bytes;
        if (i % 2 == 0) {
            editChunk(rng, capture);
            bytes = seal(capture);
        } else {
            bytes = seal(capture);
            damageBytes(rng, bytes);
        }
        checkAgreement(bytes, rng, path, runs,
                       "seed " + std::to_string(seed) + " capture " +
                           std::to_string(i) +
                           (i % 2 == 0 ? " (sealed edit)" : " (damaged)"));
    }
    std::remove(path.c_str());
    std::printf("[ differential ] %zu captures: open+decodeChunkInto %zu, "
                "openRecovered %zu, stream whole %zu, byte at a time %zu, "
                "random slicings %zu\n",
                runs.captures, runs.open, runs.recovered, runs.whole,
                runs.byteAtATime, runs.sliced);
    for (const auto &[verdict, n] : runs.verdicts)
        std::printf("[ differential ]   %7zu  %s\n", n, verdict.c_str());
    return runs;
}

#if !defined(EMPROF_EMCAP_DIFF_CAPTURES)

TEST(EmcapDifferential, ProbeChunkIsRefusedByEveryReaderWithOneReason)
{
    // One CRC-valid Raw chunk of 1 sample over a 100-byte payload: 4
    // bytes would hold the sample, so the header is implausible.
    Capture capture;
    Chunk chunk;
    chunk.header.encoding = static_cast<uint32_t>(ChunkEncoding::Raw);
    chunk.header.sampleCount = 1;
    chunk.header.scale = 1.0f;
    chunk.payload.assign(100, 0);
    capture.chunks.push_back(chunk);
    const std::vector<uint8_t> bytes = seal(capture);

    std::mt19937_64 rng(7);
    Runs runs;
    checkAgreement(bytes, rng, scratchPath("probe"), runs, "probe");

    const Outcome s = streamOutcome(bytes, {});
    EXPECT_EQ(refusedChunk(s.refusal), 0) << s.refusal;
    EXPECT_NE(s.refusal.find("chunk header implausible"),
              std::string::npos)
        << s.refusal;
    std::remove(scratchPath("probe").c_str());
}

TEST(EmcapDifferential, UnmutatedCapturesDecodeIdenticallyEverywhere)
{
    std::mt19937_64 rng(0xd1ff);
    const std::string path = scratchPath("clean");
    Runs runs;
    for (int i = 0; i < 50 && !HasFailure(); ++i) {
        const std::vector<uint8_t> bytes = seal(makeCapture(rng));
        checkAgreement(bytes, rng, path, runs,
                       "clean capture " + std::to_string(i));
        const Outcome s = streamOutcome(bytes, {});
        EXPECT_TRUE(s.refusal.empty() && s.complete) << s.refusal;
    }
    std::remove(path.c_str());
}

TEST(EmcapDifferential, SealedAndDamagedCapturesGetOneVerdict)
{
    const Runs runs = sweep(0xe5ca9, 2000);
    // The mutations reach every chunk rule and the header CRC.
    for (const char *rule :
         {"zero samples", "unknown encoding", "more samples than",
          "payload too large", "CRC mismatch", "payload malformed",
          "file header CRC mismatch"}) {
        EXPECT_TRUE(std::any_of(runs.verdicts.begin(), runs.verdicts.end(),
                                [rule](const auto &v) {
                                    return v.first.find(rule) !=
                                           std::string::npos;
                                }))
            << rule;
    }
}

#else

TEST(EmcapDifferential, HundredThousandMutatedCaptures)
{
    const Runs runs = sweep(0x100c0de, EMPROF_EMCAP_DIFF_CAPTURES);
    EXPECT_EQ(runs.captures, std::size_t{EMPROF_EMCAP_DIFF_CAPTURES});
}

#endif

} // namespace
