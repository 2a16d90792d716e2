#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

namespace pregel::util {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> v(s.size());
  // An empty string's data() may be null, and memcpy from null is undefined
  // even for zero bytes.
  if (!s.empty()) std::memcpy(v.data(), s.data(), s.size());
  return v;
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / Castagnoli check value.
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(bytes_of("")), 0x00000000u);
  // 32 zero bytes (iSCSI test vector).
  EXPECT_EQ(crc32c(std::vector<std::byte>(32, std::byte{0})), 0x8A9136AAu);
  // 32 0xFF bytes (iSCSI test vector).
  EXPECT_EQ(crc32c(std::vector<std::byte>(32, std::byte{0xFF})), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalUpdateMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c_update(0, std::span(data.data(), split));
    crc = crc32c_update(crc, std::span(data.data() + split, data.size() - split));
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto data = bytes_of("checkpoint payload: superstep 17, worker 3");
  const std::uint32_t clean = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      EXPECT_NE(crc32c(data), clean) << "byte " << i << " bit " << bit;
      data[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
    }
  }
  EXPECT_EQ(crc32c(data), clean);
}

TEST(Crc32c, DetectsTruncation) {
  const auto data = bytes_of("torn write: only a prefix of the blob landed");
  const std::uint32_t whole = crc32c(data);
  for (std::size_t len = 0; len < data.size(); ++len)
    EXPECT_NE(crc32c(std::span(data.data(), len)), whole) << "prefix length " << len;
}

}  // namespace
}  // namespace pregel::util
