/**
 * @file
 * Compile-in I/O fault injection.
 *
 * A capture rig's worst bugs live at I/O boundaries nobody can hit on
 * demand: disk full exactly between a chunk header and its payload, a
 * torn write at a power cut, EINTR in the middle of a footer.  This
 * shim sits inside CheckedFile's transfer loops and lets a test arm
 * one fault — "at cumulative written byte N, fail like ENOSPC" — so
 * the suite can walk N across an entire file and prove every single
 * I/O site either surfaces a typed IoError or recovers.
 *
 * The shim is always compiled (it is a handful of branches); when
 * disarmed it costs one relaxed atomic load per transfer.  Plans are
 * process-global and single-shot: the fault fires once at the trigger
 * byte, then the stream behaves normally — which is exactly what a
 * real transient (EINTR) or a real crash boundary looks like.
 */

#ifndef EMPROF_COMMON_IO_FAULT_INJECTION_HPP
#define EMPROF_COMMON_IO_FAULT_INJECTION_HPP

#include <cstddef>
#include <cstdint>

namespace emprof::common::io {

/** One planned fault, armed via FaultInjector::arm. */
struct FaultPlan
{
    enum class Kind : uint8_t
    {
        None,      ///< observe only: count bytes, inject nothing
        FailWrite, ///< the write op covering the trigger fails (EIO),
                   ///< transferring nothing
        TornWrite, ///< bytes up to the trigger land, then EIO —
                   ///< a power-cut-shaped partial write
        NoSpace,   ///< bytes up to the trigger land, then ENOSPC
        Eintr,     ///< bytes up to the trigger land, then one EINTR;
                   ///< a correct caller retries and succeeds
        FailRead,  ///< the read op covering the trigger fails (EIO)
        ShortRead, ///< bytes up to the trigger arrive, then EOF
    };

    Kind kind = Kind::None;

    /**
     * Cumulative byte position (within the written stream for write
     * kinds, the read stream for read kinds) at which the fault
     * fires.  Byte streams count every CheckedFile transfer since
     * arm(), across all files, in call order.
     */
    uint64_t triggerByte = 0;

    bool
    isWriteKind() const
    {
        return kind == Kind::FailWrite || kind == Kind::TornWrite ||
               kind == Kind::NoSpace || kind == Kind::Eintr;
    }
    bool
    isReadKind() const
    {
        return kind == Kind::FailRead || kind == Kind::ShortRead;
    }
};

/**
 * Process-global injector consulted by CheckedFile.  Tests arm it
 * (preferably via ScopedFaultPlan); production code never touches it
 * and pays only a relaxed atomic load while it is disarmed.
 */
class FaultInjector
{
  public:
    /** Arm @p plan; resets byte counters and the fired flag. */
    static void arm(const FaultPlan &plan);

    /** Disarm and stop counting. */
    static void disarm();

    /** True while a plan (including Kind::None) is armed. */
    static bool armed();

    /** True once the armed fault has fired. */
    static bool fired();

    /** What CheckedFile should do with (part of) one transfer. */
    struct Decision
    {
        std::size_t allow = 0; ///< bytes to transfer for real first
        int failErrno = 0;     ///< then fail with this errno (0 = ok)
        bool eintr = false;    ///< then simulate one EINTR instead
    };

    /** Consulted before each write transfer of @p want bytes. */
    static Decision onWrite(std::size_t want);

    /** Consulted before each read transfer of @p want bytes. */
    static Decision onRead(std::size_t want);
};

/** RAII arm/disarm for tests. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const FaultPlan &plan)
    {
        FaultInjector::arm(plan);
    }
    ~ScopedFaultPlan() { FaultInjector::disarm(); }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

} // namespace emprof::common::io

#endif // EMPROF_COMMON_IO_FAULT_INJECTION_HPP
