#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/random.h"

namespace talus {
namespace crc32c {
namespace {

TEST(Crc32c, StandardVectors) {
  // Known CRC32C test vectors (RFC 3720 / LevelDB test suite).
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x8a9136aau);

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x62a8ab43u);

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x46dd794eu);

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(Value(buf, sizeof(buf)), 0x113fdb5cu);
}

TEST(Crc32c, Values) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
}

TEST(Crc32c, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

// The hardware path must agree with the table bit for bit, whatever the
// length and start alignment, or existing WALs and MANIFESTs would stop
// reading back. (On a CPU without SSE4.2 both sides are the table.)
TEST(Crc32c, HardwareMatchesTable) {
  RecordProperty("hardware_crc32c", internal::HardwareAvailable() ? 1 : 0);
  Random rnd(301);
  std::vector<char> buf(4096 + 8);
  for (auto& c : buf) c = static_cast<char>(rnd.Uniform(256));
  for (size_t align = 0; align < 8; align++) {
    for (size_t n = 0; n <= 4096; n++) {
      const char* p = buf.data() + align;
      ASSERT_EQ(Extend(0, p, n), internal::ExtendPortable(0, p, n))
          << "align=" << align << " n=" << n;
      ASSERT_EQ(Extend(0x12345678u, p, n),
                internal::ExtendPortable(0x12345678u, p, n))
          << "align=" << align << " n=" << n;
    }
  }
}

TEST(Crc32c, ExtendChainsAtEverySplit) {
  char buf[64];
  for (int i = 0; i < 64; i++) buf[i] = static_cast<char>(i * 7 + 3);
  const uint32_t whole = Value(buf, sizeof(buf));
  EXPECT_EQ(whole, internal::ExtendPortable(0, buf, sizeof(buf)));
  for (size_t split = 0; split <= sizeof(buf); split++) {
    EXPECT_EQ(Extend(Value(buf, split), buf + split, sizeof(buf) - split),
              whole)
        << "split=" << split;
  }
}

TEST(Crc32c, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

}  // namespace
}  // namespace crc32c
}  // namespace talus
