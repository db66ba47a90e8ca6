#include "net/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "net/sha256_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define CROWDML_SHA256_X86 1
#include <immintrin.h>
#endif

namespace crowdml::net {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef CROWDML_SHA256_X86
// Four rounds per _mm_sha256rnds2_epu32 pair. The state lives in the
// ABEF/CDGH register layout the instructions expect; the message
// schedule is extended four words at a time with sha256msg1/msg2.
__attribute__((target("sha,sse4.1"))) void blocks_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[j % 4] holds message words 4j .. 4j+3
    for (int j = 0; j < 4; ++j)
      w[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * j)),
          kByteSwap);
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i& cur = w[j & 3];
      if (j >= 4) {
        const __m128i prev = w[(j - 1) & 3];
        cur = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(cur, w[(j - 3) & 3]),
                          _mm_alignr_epi8(prev, w[(j - 2) & 3], 4)),
            prev);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * j)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}
#endif

}  // namespace

namespace detail {

void sha256_blocks_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + S1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256BlocksFn sha256_blocks_shani() {
#ifdef CROWDML_SHA256_X86
  // Explicit init: this may run during static initialisation, before
  // the runtime's own CPU probe.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
    return &blocks_shani;
#endif
  return nullptr;
}

Sha256BlocksFn sha256_blocks() {
  static const Sha256BlocksFn chosen = [] {
    const Sha256BlocksFn shani = sha256_blocks_shani();
    return shani != nullptr ? shani : &sha256_blocks_scalar;
  }();
  return chosen;
}

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (len == 0) return;
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  const auto compress = detail::sha256_blocks();
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks straight from the caller's buffer; only the tail is copied.
  const std::size_t whole = len / buffer_.size();
  if (whole > 0) compress(state_.data(), data, whole);
  data += whole * buffer_.size();
  len -= whole * buffer_.size();
  if (len > 0) std::memcpy(buffer_.data(), data, len);
  buffered_ = len;
}

void Sha256::update(const std::vector<std::uint8_t>& data) {
  update(data.data(), data.size());
}

void Sha256::update(const std::string& data) {
  update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

Digest Sha256::finish() {
  // Pad in place: 0x80, zeros to 56 mod 64, then the 64-bit big-endian
  // bit count; one extra block when the tail leaves no room for it.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t tail_len = buffered_ < 56 ? 64 : 128;
  for (int i = 0; i < 8; ++i)
    tail[tail_len - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(total_bits_ >> (8 * i));
  detail::sha256_blocks()(state_.data(), tail, tail_len / 64);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest sha256(const std::vector<std::uint8_t>& data) {
  return sha256(data.data(), data.size());
}

Digest sha256(const std::string& data) {
  return sha256(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::uint8_t* data, std::size_t len) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest kd = sha256(key);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad.data(), ipad.size());
  inner.update(data, len);
  const Digest inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad.data(), opad.size());
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                   const std::vector<std::uint8_t>& data) {
  return hmac_sha256(key, data.data(), data.size());
}

bool digest_equal(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = static_cast<std::uint8_t>(diff | (a[i] ^ b[i]));
  return diff == 0;
}

std::string to_hex(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xF]);
  }
  return out;
}

}  // namespace crowdml::net
