// CRC32C (Castagnoli) checksum with a masked form for embedding checksums
// alongside the data they cover (RocksDB convention). Extend uses the SSE4.2
// `crc32` instruction when the CPU has it (checked once at run time, no
// build flag) and a byte-at-a-time table otherwise; both give identical
// results, so stored checksums do not depend on the machine.
#ifndef TALUS_UTIL_CRC32C_H_
#define TALUS_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace talus {
namespace crc32c {

/// Returns the CRC32C of concat(A, data[0,n-1]) where init_crc is the CRC32C
/// of some string A. Extend(0, ...) computes the CRC of data itself.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

namespace internal {
/// The portable table implementation Extend falls back to; exposed so tests
/// can check the hardware path against it.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
/// True when Extend runs on the SSE4.2 instruction.
bool HardwareAvailable();
}  // namespace internal

static const uint32_t kMaskDelta = 0xa282ead8ul;

/// Returns a masked representation of crc. Storing raw CRCs of data that
/// itself contains CRCs weakens the check; masking avoids that.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace talus

#endif  // TALUS_UTIL_CRC32C_H_
