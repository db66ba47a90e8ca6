#include "net/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace crowdml::net {

static_assert(std::endian::native == std::endian::little,
              "the word loop below reads little-endian words");

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

/// t[0] is the bytewise table; t[k][b] is the CRC register after byte b
/// is followed by k zero bytes, so one 8-byte word folds in with eight
/// independent lookups.
Tables make_slicing_tables() {
  Tables t{};
  t[0] = make_table();
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = t[0][t[k - 1][b] & 0xFFu] ^ (t[k - 1][b] >> 8);
  return t;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static const Tables t = make_slicing_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));  // little-endian: byte 0 is low
    word ^= c;
    c = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
        t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
        t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
        t[1][(word >> 48) & 0xFFu] ^ t[0][word >> 56];
  }
  for (; len > 0; ++data, --len) c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace crowdml::net
