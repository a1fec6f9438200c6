/**
 * @file
 * Seeded benchmark inputs and their reference analyses.
 *
 * Every input is made here, from the workload seed, by the
 * benchmark's own generator: a change to the program's RNG or signal
 * models cannot change what is measured.  Captures stream through
 * store::CaptureWriter (its default lossless codec) one block at a
 * time, so synthesis memory is bounded by the block, not the capture,
 * and the encoded bytes always come from the program under test.
 */

#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "profiler/events.hpp"

namespace perfbench {

/** SplitMix64: small, fast, and independent of src/dsp. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, n); n > 0. */
    uint64_t below(uint64_t n);

  private:
    uint64_t state_;
};

/** An independent stream seed for (@p seed, @p stream). */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/**
 * The synthetic 40 MHz magnitude signal: busy level 1.0 with +-1%
 * noise and miss-like dips to 0.2 every ~2 us.  Dips last 8-14
 * samples (200-350 ns, ordinary DRAM misses); 1% last 100 samples
 * (2.5 us, refresh-length stalls).  fill() continues the stream, so
 * any block size yields the same samples.
 */
class SignalSynth
{
  public:
    SignalSynth(uint64_t seed, uint64_t totalSamples);

    /** Produce the next @p n samples (n <= remaining()). */
    void fill(float *out, std::size_t n);

    uint64_t remaining() const { return total_ - pos_; }

  private:
    Rng rng_;
    uint64_t total_;
    uint64_t pos_ = 0;
    uint64_t dipEnd_ = 0;
    uint64_t nextDip_ = 1000;
};

/** Order-sensitive 64-bit hash over 32-bit words (FNV-1a style). */
class Hash64
{
  public:
    void addWords(const uint32_t *words, std::size_t n);
    void addU64(uint64_t v);
    void addDouble(double v);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Hash of the first @p samples samples of the signal for @p seed. */
uint64_t signalHash(uint64_t seed, uint64_t samples,
                    std::size_t blockSamples = std::size_t{1} << 16);

/** Sample rate and clock every benchmark capture declares. */
constexpr double kSampleRateHz = 40e6;
constexpr double kClockHz = 1.008e9;

/** One synthesised, encoded capture. */
struct Capture
{
    uint64_t seed = 0;
    uint64_t samples = 0;
    uint64_t fileBytes = 0;
    uint64_t signalHash = 0; ///< of the synthesised samples
};

/**
 * Synthesise @p samples samples for @p seed and encode them to
 * @p path through store::CaptureWriter with default options.
 */
bool writeCapture(const std::string &path, uint64_t seed,
                  uint64_t samples, Capture &out,
                  std::string *error);

/** Whole file into memory, in one allocation. */
bool readFileBytes(const std::string &path, std::vector<uint8_t> &out,
                   std::string *error);

/** Digest of an event list over every field the wire carries. */
uint64_t eventsDigest(const std::vector<emprof::profiler::StallEvent> &e);

/** What a correct analysis of one input must reproduce exactly. */
struct Reference
{
    uint64_t samples = 0;
    std::size_t events = 0;
    uint64_t digest = 0;
    std::string text; ///< ProfileReport::toText(title)
};

/**
 * The reference analysis: EmProf::analyze over the capture's decoded
 * samples, with the capture's clock, rendered under @p title.
 */
bool referenceAnalysis(const std::string &capturePath,
                       const std::string &title, Reference &out,
                       std::string *error);

/** One prepared input: its capture file, what made it, its reference. */
struct PreparedInput
{
    std::string path;
    Capture capture;
    Reference ref;
};

/** Every input of a workload run. */
struct InputSet
{
    std::vector<PreparedInput> inputs;
    uint64_t hash = 0; ///< over every input's signal hash, in order
    uint64_t encodedBytes = 0;
};

/**
 * Synthesise @p count captures of @p samples samples into @p dir
 * (capture-<i>.emcap, stream seed mixSeed(seed, i)), compute each
 * reference under @p title on up to @p threads threads, and write
 * dir/manifest so a separate measuring process can load them.
 */
bool prepareInputs(const std::string &dir, uint64_t seed,
                   std::size_t count, uint64_t samples,
                   const std::string &title, std::size_t threads,
                   std::string *error);

/** Read back what prepareInputs wrote (captures stay on disk). */
bool loadInputs(const std::string &dir, InputSet &out, std::string *error);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HPP
