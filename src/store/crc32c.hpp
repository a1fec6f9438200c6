/**
 * @file
 * CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected).
 *
 * The EMCAP container checks every header, chunk, and footer with
 * CRC32C — the same polynomial iSCSI, btrfs, and ext4 use, chosen for
 * its better burst-error detection than CRC32 (IEEE) and because
 * hardware ISAs accelerate it.  crc32c() picks its implementation once
 * per process: the SSE4.2 `crc32` instruction, eight bytes per step,
 * when the CPU has it and the build keeps it (EMPROF_DISABLE_SIMD
 * compiles it out), else portable slicing-by-8 tables.  Both give the
 * same digest for every input; crc32c_detail.hpp exposes them to the
 * tests that check this.
 */

#ifndef EMPROF_STORE_CRC32C_HPP
#define EMPROF_STORE_CRC32C_HPP

#include <cstddef>
#include <cstdint>

namespace emprof::store {

/**
 * Extend a running CRC32C over @p len bytes.
 *
 * @param crc Value returned by a previous call, or 0 to start.
 * @return The updated checksum (already post-inverted; feed it back in
 *         unchanged to continue over the next buffer).
 */
uint32_t crc32c(uint32_t crc, const void *data, std::size_t len);

} // namespace emprof::store

#endif // EMPROF_STORE_CRC32C_HPP
