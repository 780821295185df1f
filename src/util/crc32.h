#ifndef ATUM_UTIL_CRC32_H_
#define ATUM_UTIL_CRC32_H_

/**
 * @file
 * CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum the
 * ATF2 trace container, checkpoints and the serve journal use. Every
 * trace byte is checksummed twice, when its chunk is sealed and when it
 * is scanned back, so this sits on both the capture and the read-back
 * path. Crc32cExtend picks its implementation once per process: the
 * SSE4.2 `crc32` instruction on x86-64 hosts that have it (about
 * 5.0 GB/s), else a portable slicing-by-8 table (about 1.3 GB/s); the
 * byte-at-a-time table they replaced ran at 0.31 GB/s. Measured over a
 * 64 MiB buffer at -O2 on a 4-vCPU x86-64 VM. Every path gives the same
 * value on every platform, which the golden-file tests require.
 *
 * Check value: Crc32c("123456789", 9) == 0xE3069283.
 */

#include <cstddef>
#include <cstdint>

namespace atum::util {

/**
 * Extends a running CRC32C over `len` more bytes. `crc` is the finalized
 * value of the previous bytes (0 for none); returns the finalized value
 * of the whole sequence, so Extend(Extend(0, a), b) == Crc32c(a+b).
 */
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/** CRC32C of one contiguous buffer. */
inline uint32_t
Crc32c(const void* data, size_t len)
{
    return Crc32cExtend(0, data, len);
}

namespace detail {

/** Signature shared by Crc32cExtend's implementations. */
using Crc32cFn = uint32_t (*)(uint32_t crc, const void* data, size_t len);

/** The slicing-by-8 table implementation; runs on every target. */
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t len);

/**
 * The SSE4.2 implementation, or null when this target or host has none.
 * Exposed so tests can check both paths on one machine.
 */
Crc32cFn Crc32cHardware();

}  // namespace detail

}  // namespace atum::util

#endif  // ATUM_UTIL_CRC32_H_
