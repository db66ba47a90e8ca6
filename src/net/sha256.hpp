// SHA-256 and HMAC-SHA256 (FIPS 180-4 / RFC 2104).
//
// The paper's prototype authenticates devices over HTTPS; our transport
// substitutes HMAC-SHA256 message tags keyed by per-device secrets
// (DESIGN.md "Substitutions"). This is a from-scratch implementation —
// validated against the NIST and RFC 4231 vectors in tests/net_test.cpp.
//
// Block compression has two kernels (net/sha256_kernels.hpp): a portable
// scalar one, which is the reference, and one on the x86 SHA extensions
// (SHA-NI). The first Sha256 picks SHA-NI when CPUID reports it and the
// scalar kernel otherwise, once per process; both give identical
// digests, and tests compare them block for block. update() compresses
// whole 64-byte blocks straight from the caller's buffer and copies only
// a partial tail.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace crowdml::net {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::vector<std::uint8_t>& data);
  void update(const std::string& data);
  /// Finalize and return the digest. The object must not be reused after.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bits_ = 0;
};

Digest sha256(const std::uint8_t* data, std::size_t len);
Digest sha256(const std::vector<std::uint8_t>& data);
Digest sha256(const std::string& data);

/// HMAC-SHA256 over `data` with the given key.
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* data, std::size_t len);
Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& data);

/// Constant-time digest comparison (no early exit on mismatch).
bool digest_equal(const Digest& a, const Digest& b);

std::string to_hex(const Digest& d);

}  // namespace crowdml::net
