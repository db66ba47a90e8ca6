// Tests for the wire substrate: codec, CRC-32, SHA-256/HMAC (against
// published vectors), messages/framing, auth registry, and TCP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>

#include "net/auth.hpp"
#include "net/checksum.hpp"
#include "net/codec.hpp"
#include "net/messages.hpp"
#include "net/sha256.hpp"
#include "net/sha256_kernels.hpp"
#include "net/tcp.hpp"
#include "store/wal.hpp"

using namespace crowdml;
using namespace crowdml::net;

TEST(Codec, PrimitiveRoundTrip) {
  Writer w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.14159);
  Reader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, CompositeRoundTrip) {
  Writer w;
  w.put_string("hello crowd");
  w.put_vector({1.5, -2.5, 0.0});
  w.put_i64_vector({-1, 0, 7});
  w.put_bytes({0x01, 0x02});
  Reader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello crowd");
  EXPECT_EQ(r.get_vector(), (linalg::Vector{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.get_i64_vector(), (std::vector<std::int64_t>{-1, 0, 7}));
  EXPECT_EQ(r.get_bytes(), (Bytes{0x01, 0x02}));
}

TEST(Codec, SpecialFloats) {
  Writer w;
  w.put_f64(INFINITY);
  w.put_f64(-0.0);
  Reader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.get_f64()));
  EXPECT_EQ(r.get_f64(), 0.0);
}

TEST(Codec, TruncatedInputThrows) {
  Writer w;
  w.put_u64(1);
  Bytes truncated(w.bytes().begin(), w.bytes().begin() + 4);
  Reader r(truncated);
  EXPECT_THROW(r.get_u64(), CodecError);
}

TEST(Codec, VectorLengthLieThrows) {
  Writer w;
  w.put_u32(1000);  // claims 1000 doubles, provides none
  Reader r(w.bytes());
  EXPECT_THROW(r.get_vector(), CodecError);
}

TEST(Codec, AbsurdLengthRejected) {
  Writer w;
  w.put_u32(0xFFFFFFFF);
  Reader r(w.bytes());
  EXPECT_THROW(r.get_bytes(), CodecError);
}

TEST(Crc32, KnownVector) {
  // The classic check value for "123456789".
  const std::string s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

namespace {

// The classic one-byte-at-a-time CRC-32 with its table computed inline:
// the reference the slicing-by-8 kernel must reproduce.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::mt19937_64& gen, std::size_t n) {
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(gen());
  return b;
}

}  // namespace

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937_64 gen(19);
  const Bytes buf = random_bytes(gen, 1100 + 8);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(crc32(buf.data() + start, len),
                crc32_bytewise(buf.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Sha256, NistVectors) {
  EXPECT_EQ(to_hex(sha256(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(sha256(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

namespace {

using detail::Sha256BlocksFn;

std::array<std::uint32_t, 8> initial_sha256_state() {
  return {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

// One-shot SHA-256 through the scalar kernel alone, with the padding
// spelled out: the reference the dispatched Sha256 must reproduce.
Digest scalar_sha256(const Bytes& msg) {
  auto state = initial_sha256_state();
  const std::size_t whole = msg.size() / 64;
  detail::sha256_blocks_scalar(state.data(), msg.data(), whole);
  Bytes tail(msg.begin() + static_cast<std::ptrdiff_t>(64 * whole), msg.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  detail::sha256_blocks_scalar(state.data(), tail.data(), tail.size() / 64);
  Digest d;
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return d;
}

}  // namespace

TEST(Sha256, ShaNiKernelMatchesScalarOnRandomBlocks) {
  const Sha256BlocksFn shani = detail::sha256_blocks_shani();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks the x86 SHA extensions";
  std::mt19937_64 gen(23);
  for (std::size_t nblocks : {1u, 2u, 3u, 7u, 64u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Bytes blocks = random_bytes(gen, 64 * nblocks);
      auto scalar_state = initial_sha256_state();
      if (trial % 2 == 1)  // also from arbitrary, non-initial states
        for (auto& w : scalar_state) w = static_cast<std::uint32_t>(gen());
      auto shani_state = scalar_state;
      detail::sha256_blocks_scalar(scalar_state.data(), blocks.data(), nblocks);
      shani(shani_state.data(), blocks.data(), nblocks);
      ASSERT_EQ(shani_state, scalar_state) << nblocks << " blocks, trial " << trial;
    }
  }
}

TEST(Sha256, DispatchedKernelIsShaNiOrScalar) {
  const Sha256BlocksFn shani = detail::sha256_blocks_shani();
  EXPECT_EQ(detail::sha256_blocks(),
            shani != nullptr ? shani : &detail::sha256_blocks_scalar);
}

TEST(Sha256, StreamingMatchesOneShotUnderRandomSplits) {
  std::mt19937_64 gen(29);
  const std::size_t piece_sizes[] = {1, 63, 64, 65};
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes msg = random_bytes(gen, gen() % 1200);
    Sha256 h;
    std::size_t at = 0;
    while (at < msg.size()) {
      const std::size_t n = std::min(piece_sizes[gen() % 4], msg.size() - at);
      h.update(msg.data() + at, n);
      at += n;
    }
    const Digest streamed = h.finish();
    ASSERT_EQ(streamed, sha256(msg)) << "length " << msg.size();
    ASSERT_EQ(streamed, scalar_sha256(msg)) << "length " << msg.size();
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest d = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(d),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key_s = "Jefe";
  const std::vector<std::uint8_t> key(key_s.begin(), key_s.end());
  const std::string msg = "what do ya want for nothing?";
  const Digest d = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(d),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, MatchesScalarReferenceOnCheckinSizedBodies) {
  std::mt19937_64 gen(31);
  for (const std::size_t len : {0u, 1u, 55u, 56u, 64u, 4096u, 4169u}) {
    const Bytes key = random_bytes(gen, 32);
    const Bytes msg = random_bytes(gen, len);
    Bytes inner(64), outer(64);
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint8_t k = i < key.size() ? key[i] : 0;
      inner[i] = static_cast<std::uint8_t>(k ^ 0x36);
      outer[i] = static_cast<std::uint8_t>(k ^ 0x5c);
    }
    inner.insert(inner.end(), msg.begin(), msg.end());
    const Digest inner_digest = scalar_sha256(inner);
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
    EXPECT_EQ(hmac_sha256(key, msg), scalar_sha256(outer)) << "length " << len;
  }
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key of 0xaa.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest d = hmac_sha256(
      key, reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  EXPECT_EQ(to_hex(d),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(DigestEqual, DetectsDifference) {
  Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Messages, CheckoutRequestRoundTrip) {
  CheckoutRequest req;
  req.device_id = 77;
  req.auth_tag[0] = 0xAA;
  const auto parsed = CheckoutRequest::deserialize(req.serialize());
  EXPECT_EQ(parsed.device_id, 77u);
  EXPECT_EQ(parsed.auth_tag, req.auth_tag);
}

TEST(Messages, ParamsRoundTrip) {
  ParamsMessage m;
  m.version = 123456;
  m.accepted = true;
  m.w = {1.0, -0.5, 1e-9};
  const auto parsed = ParamsMessage::deserialize(m.serialize());
  EXPECT_EQ(parsed.version, 123456u);
  EXPECT_TRUE(parsed.accepted);
  EXPECT_EQ(parsed.w, m.w);
}

TEST(Messages, CheckinRoundTrip) {
  CheckinMessage m;
  m.device_id = 9;
  m.param_version = 42;
  m.g_hat = {0.25, -0.75};
  m.ns = 20;
  m.ne_hat = -3;  // noisy counts may be negative
  m.ny_hat = {5, -1, 16};
  m.auth_tag[5] = 0x33;
  const auto parsed = CheckinMessage::deserialize(m.serialize());
  EXPECT_EQ(parsed.device_id, 9u);
  EXPECT_EQ(parsed.param_version, 42u);
  EXPECT_EQ(parsed.g_hat, m.g_hat);
  EXPECT_EQ(parsed.ns, 20);
  EXPECT_EQ(parsed.ne_hat, -3);
  EXPECT_EQ(parsed.ny_hat, m.ny_hat);
  EXPECT_EQ(parsed.auth_tag, m.auth_tag);
}

TEST(Messages, CheckinBodyExcludesTag) {
  CheckinMessage m;
  m.device_id = 1;
  m.g_hat = {1.0};
  m.ny_hat = {1};
  const Bytes body1 = m.body();
  m.auth_tag[0] = 0xFF;
  EXPECT_EQ(m.body(), body1);  // tag not part of authenticated body
}

TEST(Messages, AckRoundTrip) {
  const AckMessage a{false, "bad gradient"};
  const auto parsed = AckMessage::deserialize(a.serialize());
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.reason, "bad gradient");
}

namespace {

std::string hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t v : b) {
    out.push_back(digits[v >> 4]);
    out.push_back(digits[v & 0xF]);
  }
  return out;
}

}  // namespace

// Every other codec test round-trips the codec through itself, so a
// change that alters the encoding symmetrically would pass them. These
// constants were captured from the byte-at-a-time codec, CRC and SHA-256
// that preceded the bulk-copy, slicing-by-8 and SHA-NI kernels: small
// frames as hex, large ones as length plus SHA-256 of the bytes.
TEST(Frames, GoldenBytesMatchPinnedFormat) {
  CheckinMessage checkin;
  checkin.device_id = 7;
  checkin.param_version = 42;
  checkin.g_hat.resize(500);
  for (std::size_t i = 0; i < checkin.g_hat.size(); ++i)
    checkin.g_hat[i] = (static_cast<double>(i) - 250.0) / 7.0;
  checkin.ns = 20;
  checkin.ne_hat = -3;
  checkin.ny_hat = {2, -1, 0, 5, 3, 1, 0, -2, 4, 8};
  checkin.auth_tag = hmac_sha256(Bytes(32, 0x5c), checkin.body());
  const Bytes checkin_frame = encode_frame(MessageType::kCheckin, checkin.serialize());
  EXPECT_EQ(checkin_frame.size(), 4169u);
  EXPECT_EQ(to_hex(sha256(checkin_frame)),
            "a5a66a1e060e83df9f0f082713dae6babe695ea9346fdbae8adfa2b6465082a7");
  EXPECT_EQ(CheckinMessage::deserialize(decode_frame(checkin_frame).payload).g_hat,
            checkin.g_hat);

  ParamsMessage params;
  params.version = 9;
  params.w = {0.5, -1.25, 1.0 / 3.0};
  params.next_checkin_hint_ms = 250;
  EXPECT_EQ(hex(encode_frame(MessageType::kParams, params.serialize())),
            "43524d4c022900000009000000000000000103000000000000000000e03f0000"
            "00000000f4bf555555555555d53ffa000000ce68ea49");

  AckMessage ack;
  ack.ok = false;
  ack.reason = "stale version";
  EXPECT_EQ(hex(encode_frame(MessageType::kAck, ack.serialize())),
            "43524d4c0412000000000d0000007374616c652076657273696f6ec308e450");

  const Bytes wal_record = store::encode_wal_record(17, checkin.serialize());
  EXPECT_EQ(wal_record.size(), 4176u);
  EXPECT_EQ(to_hex(sha256(wal_record)),
            "c606702681cb27aa26475f605b1e0c2730f02eafea580aba9a7a33b81f1bdf2d");
}

TEST(Frames, EncodeDecodeRoundTrip) {
  const Bytes payload{1, 2, 3, 4, 5};
  const Bytes frame = encode_frame(MessageType::kCheckin, payload);
  const Frame decoded = decode_frame(frame);
  EXPECT_EQ(decoded.type, MessageType::kCheckin);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(Frames, EmptyPayload) {
  const Frame decoded = decode_frame(encode_frame(MessageType::kAck, {}));
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(Frames, CorruptionDetectedByCrc) {
  Bytes frame = encode_frame(MessageType::kCheckin, {1, 2, 3});
  frame[kFrameHeaderSize + 1] ^= 0x01;  // flip a payload bit
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Frames, BadMagicRejected) {
  Bytes frame = encode_frame(MessageType::kAck, {});
  frame[0] = 'X';
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Frames, LengthMismatchRejected) {
  Bytes frame = encode_frame(MessageType::kAck, {1, 2});
  frame.push_back(0);
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Frames, UnknownTypeRejected) {
  Bytes frame = encode_frame(MessageType::kAck, {});
  frame[4] = 99;
  EXPECT_THROW(decode_frame(frame), CodecError);
}

TEST(Auth, EnrollVerify) {
  AuthRegistry reg(rng::Engine(1));
  const DeviceCredentials cred = reg.enroll();
  EXPECT_EQ(reg.enrolled_count(), 1u);
  const Bytes body{1, 2, 3};
  const Digest tag = cred.sign(body);
  EXPECT_TRUE(reg.verify(cred.device_id, body, tag));
}

TEST(Auth, WrongBodyFails) {
  AuthRegistry reg(rng::Engine(2));
  const DeviceCredentials cred = reg.enroll();
  const Digest tag = cred.sign({1, 2, 3});
  EXPECT_FALSE(reg.verify(cred.device_id, {1, 2, 4}, tag));
}

TEST(Auth, ForeignKeyFails) {
  AuthRegistry reg(rng::Engine(3));
  const DeviceCredentials a = reg.enroll();
  const DeviceCredentials b = reg.enroll();
  const Bytes body{9};
  EXPECT_FALSE(reg.verify(a.device_id, body, b.sign(body)));
}

TEST(Auth, UnknownDeviceFails) {
  AuthRegistry reg(rng::Engine(4));
  EXPECT_FALSE(reg.verify(999, {1}, Digest{}));
}

TEST(Auth, RevokedDeviceFails) {
  AuthRegistry reg(rng::Engine(5));
  const DeviceCredentials cred = reg.enroll();
  reg.revoke(cred.device_id);
  const Bytes body{1};
  EXPECT_FALSE(reg.verify(cred.device_id, body, cred.sign(body)));
  EXPECT_EQ(reg.enrolled_count(), 0u);
}

TEST(Auth, DistinctSecretsPerDevice) {
  AuthRegistry reg(rng::Engine(6));
  EXPECT_NE(reg.enroll().key, reg.enroll().key);
}

TEST(Tcp, LoopbackFrameExchange) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());
  const std::uint16_t port = listener->port();
  EXPECT_GT(port, 0);

  std::thread server([&] {
    auto conn = listener->accept();
    ASSERT_TRUE(conn.has_value());
    auto frame = conn->recv_frame();
    ASSERT_TRUE(frame.has_value());
    const Frame f = decode_frame(*frame);
    EXPECT_EQ(f.type, MessageType::kCheckoutRequest);
    conn->send_frame(encode_frame(MessageType::kAck, f.payload));
  });

  auto client = TcpConnection::connect("127.0.0.1", port);
  ASSERT_TRUE(client.has_value());
  const Bytes payload{5, 6, 7};
  ASSERT_TRUE(client->send_frame(
      encode_frame(MessageType::kCheckoutRequest, payload)));
  auto reply = client->recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decode_frame(*reply).payload, payload);
  server.join();
}

TEST(Tcp, LargeFrame) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());
  Bytes big(200000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31);

  std::thread server([&] {
    auto conn = listener->accept();
    auto frame = conn->recv_frame();
    ASSERT_TRUE(frame.has_value());
    conn->send_frame(*frame);  // echo
  });

  auto client = TcpConnection::connect("localhost", listener->port());
  ASSERT_TRUE(client.has_value());
  client->send_frame(encode_frame(MessageType::kParams, big));
  auto reply = client->recv_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decode_frame(*reply).payload, big);
  server.join();
}

TEST(Tcp, EofReturnsNullopt) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.has_value());
  std::thread server([&] {
    auto conn = listener->accept();
    // Close immediately.
  });
  auto client = TcpConnection::connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.has_value());
  EXPECT_FALSE(client->recv_frame().has_value());
  server.join();
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Bind then immediately release a port, so nothing is listening.
  auto listener = TcpListener::bind(0);
  const std::uint16_t port = listener->port();
  listener->close();
  EXPECT_FALSE(TcpConnection::connect("127.0.0.1", port).has_value());
}

// ------------------------------------------- retry_after hint hardening
// The hint drives client sleep times, so a malformed or hostile reason
// must never yield a wrapped, truncated, or negative delay.

TEST(RetryAfterHint, RejectsNegativeValues) {
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=-1"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=-250"));
}

TEST(RetryAfterHint, RejectsNonNumericSuffix) {
  // Digits must run to the end of the string: "12ms" is not 12.
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=12ms"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=250 "));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=2.5"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=+5"));
}

TEST(RetryAfterHint, RejectsOverflowPastInt) {
  // 2^31 and beyond used to wrap through long-long arithmetic into a
  // small "valid" int delay; out-of-range now rejects instead.
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=2147483648"));
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=9223372036854775808"));
  EXPECT_FALSE(
      parse_retry_after("busy; retry_after_ms=99999999999999999999999"));
  // The cap itself (an hour) is the largest accepted hint.
  const auto hour = parse_retry_after("busy; retry_after_ms=3600000");
  ASSERT_TRUE(hour.has_value());
  EXPECT_EQ(*hour, 3'600'000);
  EXPECT_FALSE(parse_retry_after("busy; retry_after_ms=3600001"));
}

TEST(RetryAfterHint, RejectsKeyBuriedMidToken) {
  // The key must be a whole token: either the start of the reason or
  // preceded by the "; " separator retry_after_reason writes.
  EXPECT_FALSE(parse_retry_after("xretry_after_ms=5"));
  EXPECT_FALSE(parse_retry_after("no_retry_after_ms=5"));
  EXPECT_FALSE(parse_retry_after("busy;retry_after_ms=5"));
  EXPECT_FALSE(parse_retry_after("busy retry_after_ms=5"));
  EXPECT_TRUE(parse_retry_after("retry_after_ms=5"));
  EXPECT_TRUE(parse_retry_after("busy; retry_after_ms=5"));
}
