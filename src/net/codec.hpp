// Binary wire codec.
//
// Explicit little-endian encoding of the primitives Crowd-ML messages
// need. Every target we build is little-endian (asserted below),
// so fixed-width fields and whole f64/i64/u64 vectors move as one
// memcpy each; there is no byte-swapping path. Reader throws CodecError
// on truncation or malformed input — a hostile peer (Section III-C's
// threat model includes malignant devices) must never be able to crash
// the server with a short frame.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/vector_ops.hpp"

namespace crowdml::net {

using Bytes = std::vector<std::uint8_t>;

// The wire and WAL formats are little-endian, and so is every target we
// build: the codec, the frame header and the CRC word loop copy native
// integers and doubles as raw bytes.
static_assert(std::endian::native == std::endian::little,
              "wire format is little-endian; big-endian targets are unsupported");

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  void put_bytes(const Bytes& b);            // length-prefixed (u32)
  void put_string(const std::string& s);     // length-prefixed (u32)
  void put_vector(const linalg::Vector& v);  // length-prefixed (u32) f64s
  void put_i64_vector(const std::vector<std::int64_t>& v);
  void put_u64_vector(const std::vector<std::uint64_t>& v);

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(const Bytes& buf) : buf_(buf) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  Bytes get_bytes();
  std::string get_string();
  linalg::Vector get_vector();
  std::vector<std::int64_t> get_i64_vector();
  std::vector<std::uint64_t> get_u64_vector();

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const;
  void copy_out(void* dst, std::size_t n);  // need(n), then take n raw bytes

  const Bytes& buf_;
  std::size_t pos_ = 0;
};

/// Cap on any length prefix (vectors, strings) — rejects absurd
/// allocations from corrupt or malicious frames.
inline constexpr std::uint32_t kMaxFieldLength = 1u << 26;  // 64 Mi entries

}  // namespace crowdml::net
