/**
 * @file
 * Signal file I/O.
 *
 * EMPROF is a signal-processing tool: to apply it to a *real* capture
 * (an SDR recording of an actual device) the magnitude or IQ samples
 * just need to reach EmProf::analyze.  This module defines a minimal
 * container — magic, version, sample rate, payload kind, raw float32
 * samples, little-endian — plus raw-f32 and CSV import/export, so the
 * tools in tools/ can exchange signals with GNU Radio-style pipelines.
 *
 * All functions run their I/O through common::io::CheckedFile; the
 * optional IoError out-parameter reports the typed failure (short
 * read, disk full, bad format, ...) instead of a bare `false`, and a
 * header whose sample count disagrees with the file size is rejected
 * before any allocation — a truncated or hostile file must never turn
 * into a plausible-looking signal or an OOM.
 */

#ifndef EMPROF_DSP_SIGNAL_IO_HPP
#define EMPROF_DSP_SIGNAL_IO_HPP

#include <string>

#include "common/io/checked_file.hpp"
#include "dsp/types.hpp"

namespace emprof::dsp {

/** Payload kind stored in an .emsig file. */
enum class SignalKind : uint32_t
{
    Magnitude = 1, ///< real samples
    Iq = 2,        ///< interleaved I/Q float pairs
};

/** What the first bytes of a signal file claim it is. */
enum class SignalFileType
{
    Unknown, ///< no recognised magic (possibly a headerless raw dump)
    Emsig,   ///< legacy .emsig container ("EMSG")
    Emcap,   ///< chunked EMCAP container ("EMCP", see src/store/)
};

/**
 * Probe a file's magic bytes.  Lets tools route a capture to the right
 * loader instead of silently misreading one format as another.
 */
SignalFileType sniffSignalFile(const std::string &path);

/**
 * Write a real series as an .emsig file (fsynced before close).
 *
 * @retval false The file could not be written; @p error (if non-null)
 *         carries the typed reason.
 */
bool saveSignal(const std::string &path, const TimeSeries &series,
                common::io::IoError *error = nullptr);

/** Write an IQ series as an .emsig file. */
bool saveSignal(const std::string &path, const ComplexSeries &series,
                common::io::IoError *error = nullptr);

/**
 * Load an .emsig file as a real series.  IQ payloads are converted to
 * magnitude (which is all EMPROF consumes).
 *
 * The header's sample count must match the file's byte count exactly;
 * a truncated payload is a typed error, not a shorter signal.
 *
 * @retval false Missing file, bad magic, size mismatch, or I/O
 *         failure; @p error (if non-null) carries the typed reason.
 */
bool loadSignal(const std::string &path, TimeSeries &out,
                common::io::IoError *error = nullptr);

/**
 * Load raw float32 samples (no header — e.g. a GNU Radio file sink).
 *
 * The file's byte count must be an exact multiple of the sample size
 * (4 bytes, or 8 for an I/Q pair): a remainder means the file is
 * truncated or not raw float32 at all, and silently dropping the tail
 * would turn garbage input into a plausible-looking profile.
 *
 * @param sample_rate_hz Sample rate to attach (raw files carry none).
 * @param iq Interpret the payload as interleaved I/Q and output
 *        magnitude.
 * @retval false Missing file, byte count not a multiple of the sample
 *         size, or I/O failure; @p error carries the typed reason.
 */
bool loadRawF32(const std::string &path, double sample_rate_hz, bool iq,
                TimeSeries &out,
                common::io::IoError *error = nullptr);

/** Write one sample per line ("time_s,magnitude") for plotting. */
bool saveCsv(const std::string &path, const TimeSeries &series,
             common::io::IoError *error = nullptr);

} // namespace emprof::dsp

#endif // EMPROF_DSP_SIGNAL_IO_HPP
