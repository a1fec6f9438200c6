#include "common/io/checked_file.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/io/fault_injection.hpp"

namespace emprof::common::io {

const char *
ioErrorKindName(IoErrorKind kind)
{
    switch (kind) {
    case IoErrorKind::None: return "ok";
    case IoErrorKind::OpenFailed: return "open-failed";
    case IoErrorKind::WriteFailed: return "write-failed";
    case IoErrorKind::ShortWrite: return "short-write";
    case IoErrorKind::NoSpace: return "no-space";
    case IoErrorKind::ReadFailed: return "read-failed";
    case IoErrorKind::ShortRead: return "short-read";
    case IoErrorKind::SeekFailed: return "seek-failed";
    case IoErrorKind::SyncFailed: return "sync-failed";
    case IoErrorKind::CloseFailed: return "close-failed";
    case IoErrorKind::NotOpen: return "not-open";
    case IoErrorKind::Format: return "bad-format";
    }
    return "unknown";
}

std::string
IoError::describe() const
{
    if (ok())
        return std::string();
    std::string out = ioErrorKindName(kind);
    if (kind == IoErrorKind::Format) {
        if (!path.empty())
            out += " in " + path;
        if (!context.empty())
            out += ": " + context;
        return out;
    }
    out += " at byte " + std::to_string(offset);
    if (!path.empty())
        out += " of " + path;
    if (!context.empty())
        out += " (" + context + ")";
    if (sysErrno != 0) {
        out += ": ";
        out += std::strerror(sysErrno);
    }
    return out;
}

IoError
formatError(const std::string &path, const std::string &what)
{
    IoError e;
    e.kind = IoErrorKind::Format;
    e.path = path;
    e.context = what;
    return e;
}

namespace {

IoErrorKind
writeErrnoKind(int err)
{
    return err == ENOSPC ? IoErrorKind::NoSpace : IoErrorKind::WriteFailed;
}

} // namespace

CheckedFile::~CheckedFile()
{
    close(); // silent: finalising paths must call close() themselves
}

void
CheckedFile::reset()
{
    close();
    offset_ = 0;
    path_.clear();
    error_ = IoError{};
}

bool
CheckedFile::failWith(IoErrorKind kind, int sys_errno, uint64_t at,
                      const char *context)
{
    if (error_.ok()) { // first error wins; later ops must not mask it
        error_.kind = kind;
        error_.sysErrno = sys_errno;
        error_.offset = at;
        error_.path = path_;
        error_.context = context != nullptr ? context : "";
    }
    return false;
}

bool
CheckedFile::open(const std::string &path, Mode mode)
{
    if (isOpen())
        return failWith(IoErrorKind::OpenFailed, 0, 0,
                        "file already open");
    path_ = path;
    error_ = IoError{};
    offset_ = 0;

    int flags = 0;
    switch (mode) {
    case Mode::Read: flags = O_RDONLY; break;
    case Mode::WriteTruncate: flags = O_WRONLY | O_CREAT | O_TRUNC; break;
    case Mode::ReadWriteTruncate:
        flags = O_RDWR | O_CREAT | O_TRUNC;
        break;
    }
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0)
        return failWith(IoErrorKind::OpenFailed, errno, 0, "open");
    return true;
}

bool
CheckedFile::writeAll(const void *data, std::size_t len,
                      const char *context)
{
    if (!error_.ok())
        return false;
    if (!isOpen())
        return failWith(IoErrorKind::NotOpen, 0, offset_, context);

    const auto *p = static_cast<const uint8_t *>(data);
    const uint64_t start = offset_;
    while (len > 0) {
        std::size_t want = len;
        int forced_errno = 0;
        bool forced_eintr = false;
        if (FaultInjector::armed()) {
            const auto d = FaultInjector::onWrite(want);
            want = d.allow;
            forced_errno = d.failErrno;
            forced_eintr = d.eintr;
        }

        ssize_t got = 0;
        if (want > 0) {
            got = ::write(fd_, p, want);
            if (got < 0) {
                if (errno == EINTR)
                    continue; // transient; retry the same span
                return failWith(writeErrnoKind(errno), errno, offset_,
                                context);
            }
            p += got;
            len -= static_cast<std::size_t>(got);
            offset_ += static_cast<uint64_t>(got);
        }

        if (forced_eintr)
            continue; // simulated EINTR: retry transfers the rest
        if (forced_errno != 0) {
            // Injected failure.  Anything already transferred makes
            // this a torn (short) write unless errno says otherwise.
            const IoErrorKind kind =
                forced_errno == ENOSPC ? IoErrorKind::NoSpace
                : offset_ > start      ? IoErrorKind::ShortWrite
                                       : IoErrorKind::WriteFailed;
            return failWith(kind, forced_errno, offset_, context);
        }
        // got == 0 with want > 0 (or a kernel short write) just loops.
    }
    return true;
}

bool
CheckedFile::readAll(void *data, std::size_t len, const char *context)
{
    if (!error_.ok())
        return false;
    if (!isOpen())
        return failWith(IoErrorKind::NotOpen, 0, offset_, context);

    IoError e;
    if (!preadAt(offset_, data, len, context, &e)) {
        error_ = e;
        return false;
    }
    offset_ += len;
    return true;
}

bool
CheckedFile::preadAt(uint64_t at, void *data, std::size_t len,
                     const char *context, IoError *error) const
{
    const auto fail = [&](IoErrorKind kind, int sys_errno,
                          uint64_t where) {
        if (error != nullptr) {
            error->kind = kind;
            error->sysErrno = sys_errno;
            error->offset = where;
            error->path = path_;
            error->context = context != nullptr ? context : "";
        }
        return false;
    };
    if (!isOpen())
        return fail(IoErrorKind::NotOpen, 0, at);

    auto *p = static_cast<uint8_t *>(data);
    while (len > 0) {
        std::size_t want = len;
        int forced_errno = 0;
        bool forced_eintr = false;
        if (FaultInjector::armed()) {
            const auto d = FaultInjector::onRead(want);
            want = d.allow;
            forced_errno = d.failErrno;
            forced_eintr = d.eintr;
        }

        if (want > 0) {
            const ssize_t got =
                ::pread(fd_, p, want, static_cast<off_t>(at));
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                return fail(IoErrorKind::ReadFailed, errno, at);
            }
            if (got == 0) // real EOF before the requested count
                return fail(IoErrorKind::ShortRead, 0, at);
            p += got;
            at += static_cast<uint64_t>(got);
            len -= static_cast<std::size_t>(got);
        }

        if (forced_eintr)
            continue;
        if (forced_errno == -1) // injected EOF
            return fail(IoErrorKind::ShortRead, 0, at);
        if (forced_errno != 0)
            return fail(IoErrorKind::ReadFailed, forced_errno, at);
    }
    return true;
}

bool
CheckedFile::seekTo(uint64_t at, const char *context)
{
    if (!error_.ok())
        return false;
    if (!isOpen())
        return failWith(IoErrorKind::NotOpen, 0, at, context);
    if (::lseek(fd_, static_cast<off_t>(at), SEEK_SET) < 0)
        return failWith(IoErrorKind::SeekFailed, errno, at, context);
    offset_ = at;
    return true;
}

bool
CheckedFile::size(uint64_t &out, const char *context)
{
    if (!error_.ok())
        return false;
    if (!isOpen())
        return failWith(IoErrorKind::NotOpen, 0, 0, context);
    struct stat st{};
    if (::fstat(fd_, &st) != 0 || st.st_size < 0)
        return failWith(IoErrorKind::SeekFailed, errno, 0, context);
    out = static_cast<uint64_t>(st.st_size);
    return true;
}

bool
CheckedFile::syncToDisk(const char *context)
{
    if (!error_.ok())
        return false;
    if (!isOpen())
        return failWith(IoErrorKind::NotOpen, 0, offset_, context);
    int rc;
    do {
        rc = ::fsync(fd_);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0)
        return failWith(IoErrorKind::SyncFailed, errno, offset_, context);
    return true;
}

bool
CheckedFile::close()
{
    if (!isOpen())
        return error_.ok();
    const int fd = fd_;
    fd_ = -1;
    int rc;
    do {
        rc = ::close(fd);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0)
        return failWith(IoErrorKind::CloseFailed, errno, offset_,
                        "close");
    return error_.ok();
}

} // namespace emprof::common::io
