#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TALUS_CRC32C_SSE42 1
#endif

namespace talus {
namespace crc32c {

namespace {

// Table-driven CRC32C with the reflected polynomial 0x82F63B78.
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#ifdef TALUS_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli
// CRC as the table, eight bytes per instruction once the input is aligned.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  const unsigned char* end = p + n;
  while (p != end && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  }
  while (end - p >= 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
  }
  while (p != end) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  }
  return static_cast<uint32_t>(crc) ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool HardwareAvailable() {
#ifdef TALUS_CRC32C_SSE42
  static const bool available =
      (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2"));
  return available;
#else
  return false;
#endif
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#ifdef TALUS_CRC32C_SSE42
  if (internal::HardwareAvailable()) return ExtendSse42(init_crc, data, n);
#endif
  return internal::ExtendPortable(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace talus
