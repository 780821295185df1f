#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace atum::util {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected CRC32C polynomial: tables[0] is
 * the classic byte-at-a-time table, and tables[k][b] is the CRC of byte
 * `b` followed by k zero bytes, so eight table lookups advance eight
 * bytes at once.
 */
constexpr Tables
MakeTables()
{
    constexpr uint32_t kPolyReflected = 0x82F63B78u;
    Tables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? kPolyReflected : 0);
        tables[0][i] = crc;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
            const uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
        }
    }
    return tables;
}

constexpr Tables kTables = MakeTables();

/** Eight bytes at `p` as a little-endian integer, alignment-free. */
uint64_t
Load64Le(const uint8_t* p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t
Crc32cSse42(uint32_t crc, const void* data, size_t len)
{
    const auto* p = static_cast<const uint8_t*>(data);
    uint64_t c = ~crc;
    for (; len >= 8; p += 8, len -= 8) {
        uint64_t v;
        std::memcpy(&v, p, sizeof v);
        c = _mm_crc32_u64(c, v);
    }
    auto c32 = static_cast<uint32_t>(c);
    for (; len > 0; ++p, --len)
        c32 = _mm_crc32_u8(c32, *p);
    return ~c32;
}
#endif

}  // namespace

namespace detail {

uint32_t
Crc32cPortable(uint32_t crc, const void* data, size_t len)
{
    const auto* p = static_cast<const uint8_t*>(data);
    crc = ~crc;
    for (; len >= 8; p += 8, len -= 8) {
        const uint64_t v = Load64Le(p) ^ crc;
        crc = kTables[7][v & 0xFF] ^ kTables[6][(v >> 8) & 0xFF] ^
              kTables[5][(v >> 16) & 0xFF] ^ kTables[4][(v >> 24) & 0xFF] ^
              kTables[3][(v >> 32) & 0xFF] ^ kTables[2][(v >> 40) & 0xFF] ^
              kTables[1][(v >> 48) & 0xFF] ^ kTables[0][v >> 56];
    }
    for (; len > 0; ++p, --len)
        crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFF];
    return ~crc;
}

Crc32cFn
Crc32cHardware()
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("sse4.2"))
        return Crc32cSse42;
#endif
    return nullptr;
}

}  // namespace detail

uint32_t
Crc32cExtend(uint32_t crc, const void* data, size_t len)
{
    static const detail::Crc32cFn impl = [] {
        const detail::Crc32cFn hardware = detail::Crc32cHardware();
        return hardware != nullptr ? hardware : detail::Crc32cPortable;
    }();
    return impl(crc, data, len);
}

}  // namespace atum::util
