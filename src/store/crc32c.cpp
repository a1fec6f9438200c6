#include "store/crc32c.hpp"

#include "store/crc32c_detail.hpp"

namespace emprof::store {

namespace {

struct Tables
{
    // tables[k][b]: CRC of byte b followed by k zero bytes.
    uint32_t t[8][256];

    constexpr Tables() : t{}
    {
        for (uint32_t b = 0; b < 256; ++b) {
            uint32_t crc = b;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1u) ? detail::kCrc32cPoly : 0u);
            t[0][b] = crc;
        }
        for (int k = 1; k < 8; ++k)
            for (uint32_t b = 0; b < 256; ++b)
                t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
};

constexpr Tables kTables{};

} // namespace

namespace detail {

bool
crc32cSse42Available()
{
#if !defined(EMPROF_DISABLE_SIMD) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("sse4.2") != 0;
#else
    return false;
#endif
}

uint32_t
crc32cPortable(uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    crc = ~crc;

    // Head: byte-at-a-time until the slicing loop can take over.
    while (len != 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
        crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
        --len;
    }

    // Slicing-by-8: fold eight bytes per iteration.
    while (len >= 8) {
        const uint32_t lo = crc ^ (uint32_t(p[0]) | uint32_t(p[1]) << 8 |
                                   uint32_t(p[2]) << 16 |
                                   uint32_t(p[3]) << 24);
        crc = kTables.t[7][lo & 0xFFu] ^ kTables.t[6][(lo >> 8) & 0xFFu] ^
              kTables.t[5][(lo >> 16) & 0xFFu] ^
              kTables.t[4][(lo >> 24) & 0xFFu] ^ kTables.t[3][p[4]] ^
              kTables.t[2][p[5]] ^ kTables.t[1][p[6]] ^
              kTables.t[0][p[7]];
        p += 8;
        len -= 8;
    }

    while (len != 0) {
        crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
        --len;
    }
    return ~crc;
}

} // namespace detail

uint32_t
crc32c(uint32_t crc, const void *data, std::size_t len)
{
#if !defined(EMPROF_DISABLE_SIMD)
    static const bool hardware = detail::crc32cSse42Available();
    if (hardware)
        return detail::crc32cSse42(crc, data, len);
#endif
    return detail::crc32cPortable(crc, data, len);
}

} // namespace emprof::store
