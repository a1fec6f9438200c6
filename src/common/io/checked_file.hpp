/**
 * @file
 * Checked file I/O: every read and write either transfers the exact
 * byte count asked for or produces a typed IoError.
 *
 * EMPROF captures are written by long unattended runs; the failure
 * modes that matter — disk full mid-chunk, a torn write at a power
 * cut, EINTR from a signal, a truncated read — all show up at the
 * libc boundary as short transfers or errno values that raw
 * fwrite/fread callers routinely drop on the floor.  CheckedFile
 * wraps one file descriptor and guarantees:
 *
 *  - writeAll/readAll loop over partial transfers and retry EINTR, so
 *    a success means the full byte count moved;
 *  - every failure is recorded as an IoError carrying the kind, the
 *    errno, the file offset, the path and a call-site context string;
 *  - syncToDisk() (fsync) lets a writer make its finalize durable;
 *  - preadAt() is positioned and const, so concurrent readers can
 *    share one open file (this is what CaptureReader's thread pool
 *    decoding relies on).
 *
 * All sequential and positioned transfers are routed through the
 * fault-injection shim (fault_injection.hpp), so tests can force a
 * failure at any byte of any I/O site and prove the caller surfaces
 * it instead of corrupting state.
 */

#ifndef EMPROF_COMMON_IO_CHECKED_FILE_HPP
#define EMPROF_COMMON_IO_CHECKED_FILE_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace emprof::common::io {

/** What went wrong, independent of the message text. */
enum class IoErrorKind : uint8_t
{
    None = 0,
    OpenFailed,  ///< could not create/open the file
    WriteFailed, ///< write() failed outright (nothing transferred)
    ShortWrite,  ///< write stopped partway (torn write)
    NoSpace,     ///< write failed with ENOSPC
    ReadFailed,  ///< read() failed outright
    ShortRead,   ///< EOF (or injected fault) before the full count
    SeekFailed,
    SyncFailed,  ///< fsync/fflush rejected the data
    CloseFailed,
    NotOpen,     ///< operation on a closed/invalidated file
    Format,      ///< contents violate the expected on-disk format
};

/** Stable name for an IoErrorKind ("short-write", "no-space", ...). */
const char *ioErrorKindName(IoErrorKind kind);

/**
 * A typed I/O failure.  `offset` is the file position the failed
 * operation started at; `context` names the structure being moved
 * ("chunk payload", "footer index", ...), so describe() pinpoints the
 * exact site: "short-write at byte 1092 of cap.emcap (chunk payload)".
 */
struct IoError
{
    IoErrorKind kind = IoErrorKind::None;
    int sysErrno = 0;
    uint64_t offset = 0;
    std::string path;
    std::string context;

    bool ok() const { return kind == IoErrorKind::None; }

    /** One-line human-readable rendering (empty when ok()). */
    std::string describe() const;
};

/** Build a Format-kind error (no errno, no offset semantics). */
IoError formatError(const std::string &path, const std::string &what);

/**
 * One open file with checked transfers.  Not copyable; the destructor
 * closes silently (finalising paths must call close() and look at the
 * result — a dropped async write error is exactly the bug class this
 * wrapper exists to kill).
 */
class CheckedFile
{
  public:
    enum class Mode
    {
        Read,           ///< existing file, read-only
        WriteTruncate,  ///< create/truncate, write-only
        ReadWriteTruncate, ///< create/truncate, read+write (back-patch)
    };

    CheckedFile() = default;
    ~CheckedFile();

    CheckedFile(const CheckedFile &) = delete;
    CheckedFile &operator=(const CheckedFile &) = delete;

    /** Open @p path; on failure error() holds an OpenFailed IoError. */
    bool open(const std::string &path, Mode mode);

    bool isOpen() const { return fd_ >= 0; }

    const std::string &path() const { return path_; }

    /** Current sequential offset (what the next writeAll/readAll uses). */
    uint64_t offset() const { return offset_; }

    /**
     * Write exactly @p len bytes or record a typed error and return
     * false.  EINTR and kernel short writes are retried; an injected
     * or real mid-transfer failure is reported as ShortWrite/NoSpace
     * with the failing offset.  After any failure the file is
     * invalidated: every later call fails with the *first* error
     * preserved in error().
     */
    bool writeAll(const void *data, std::size_t len, const char *context);

    /** Read exactly @p len bytes at the sequential offset, or fail. */
    bool readAll(void *data, std::size_t len, const char *context);

    /**
     * Positioned read of exactly @p len bytes at @p at.  Const and
     * thread-safe (does not touch the sequential offset or the stored
     * error); the failure, if any, is written to @p error.
     */
    bool preadAt(uint64_t at, void *data, std::size_t len,
                 const char *context, IoError *error = nullptr) const;

    /** Reposition the sequential offset. */
    bool seekTo(uint64_t at, const char *context);

    /** Total file size via fstat. */
    bool size(uint64_t &out, const char *context);

    /** Flush to stable storage (fsync); the finalize barrier. */
    bool syncToDisk(const char *context);

    /**
     * Close and report the close() result.  Returns false if the file
     * already carries an error (which is preserved) or if close
     * itself fails.  Safe to call twice.
     */
    bool close();

    /** First error recorded on this file (None while healthy). */
    const IoError &error() const { return error_; }

    /**
     * Close (result discarded) and clear all state, making the object
     * reusable for a fresh open().
     */
    void reset();

  private:
    bool failWith(IoErrorKind kind, int sys_errno, uint64_t at,
                  const char *context);

    int fd_ = -1;
    uint64_t offset_ = 0;
    std::string path_;
    IoError error_;
};

} // namespace emprof::common::io

#endif // EMPROF_COMMON_IO_CHECKED_FILE_HPP
