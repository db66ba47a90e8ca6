// CRC-32 (IEEE 802.3 polynomial, reflected, init and final xor
// 0xFFFFFFFF) for frame and WAL record integrity.
//
// Slicing-by-8: eight 256-entry tables, built once from the bytewise
// table, fold one little-endian 8-byte word per step; the bytewise loop
// handles the last len % 8 bytes. The values are those of the classic
// bytewise algorithm (tests/net_test.cpp checks every length 0-1100 at
// every start alignment against a bytewise reference).
#pragma once

#include <cstddef>
#include <cstdint>

namespace crowdml::net {

std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

}  // namespace crowdml::net
