#include "net/codec.hpp"

#include <bit>
#include <cstring>

namespace crowdml::net {

static_assert(sizeof(double) == 8);

namespace {

void append(Bytes& buf, const void* src, std::size_t n) {
  if (n == 0) return;  // src may be null for an empty vector
  const std::size_t at = buf.size();
  buf.resize(at + n);
  std::memcpy(buf.data() + at, src, n);
}

}  // namespace

void Writer::put_u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::put_u32(std::uint32_t v) { append(buf_, &v, sizeof(v)); }

void Writer::put_u64(std::uint64_t v) { append(buf_, &v, sizeof(v)); }

void Writer::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void Writer::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::put_bytes(const Bytes& b) {
  if (b.size() > kMaxFieldLength) throw CodecError("bytes field too long");
  put_u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::put_string(const std::string& s) {
  if (s.size() > kMaxFieldLength) throw CodecError("string field too long");
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::put_vector(const linalg::Vector& v) {
  if (v.size() > kMaxFieldLength) throw CodecError("vector field too long");
  put_u32(static_cast<std::uint32_t>(v.size()));
  append(buf_, v.data(), v.size() * sizeof(double));
}

void Writer::put_i64_vector(const std::vector<std::int64_t>& v) {
  if (v.size() > kMaxFieldLength) throw CodecError("i64 vector field too long");
  put_u32(static_cast<std::uint32_t>(v.size()));
  append(buf_, v.data(), v.size() * sizeof(std::int64_t));
}

void Writer::put_u64_vector(const std::vector<std::uint64_t>& v) {
  if (v.size() > kMaxFieldLength) throw CodecError("u64 vector field too long");
  put_u32(static_cast<std::uint32_t>(v.size()));
  append(buf_, v.data(), v.size() * sizeof(std::uint64_t));
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw CodecError("truncated message");
}

void Reader::copy_out(void* dst, std::size_t n) {
  need(n);
  if (n == 0) return;  // dst may be null for an empty vector
  std::memcpy(dst, buf_.data() + pos_, n);
  pos_ += n;
}

std::uint8_t Reader::get_u8() {
  need(1);
  return buf_[pos_++];
}

std::uint32_t Reader::get_u32() {
  std::uint32_t v = 0;
  copy_out(&v, sizeof(v));
  return v;
}

std::uint64_t Reader::get_u64() {
  std::uint64_t v = 0;
  copy_out(&v, sizeof(v));
  return v;
}

std::int64_t Reader::get_i64() { return static_cast<std::int64_t>(get_u64()); }

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

Bytes Reader::get_bytes() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("bytes length out of range");
  need(n);
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string Reader::get_string() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("string length out of range");
  need(n);
  std::string out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

linalg::Vector Reader::get_vector() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("vector length out of range");
  need(static_cast<std::size_t>(n) * sizeof(double));
  linalg::Vector out(n);
  copy_out(out.data(), out.size() * sizeof(double));
  return out;
}

std::vector<std::int64_t> Reader::get_i64_vector() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("i64 vector length out of range");
  need(static_cast<std::size_t>(n) * sizeof(std::int64_t));
  std::vector<std::int64_t> out(n);
  copy_out(out.data(), out.size() * sizeof(std::int64_t));
  return out;
}

std::vector<std::uint64_t> Reader::get_u64_vector() {
  const std::uint32_t n = get_u32();
  if (n > kMaxFieldLength) throw CodecError("u64 vector length out of range");
  need(static_cast<std::size_t>(n) * sizeof(std::uint64_t));
  std::vector<std::uint64_t> out(n);
  copy_out(out.data(), out.size() * sizeof(std::uint64_t));
  return out;
}

}  // namespace crowdml::net
