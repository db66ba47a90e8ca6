#include "net/messages.hpp"

#include <cstring>

#include "net/checksum.hpp"
#include "obs/profile.hpp"

namespace crowdml::net {

namespace {

constexpr std::uint8_t kMagic[4] = {'C', 'R', 'M', 'L'};

// Always-on codec timings (process-wide registry; Provenance::kTiming —
// durations only, the payload never reaches the metric).
obs::Histogram& encode_seconds() {
  static obs::Histogram& h = obs::default_registry().histogram(
      "crowdml_codec_encode_seconds", "encode_frame: header + CRC + copy",
      obs::Provenance::kTiming);
  return h;
}

obs::Histogram& decode_seconds() {
  static obs::Histogram& h = obs::default_registry().histogram(
      "crowdml_codec_decode_seconds", "decode_frame: validate + CRC + copy",
      obs::Provenance::kTiming);
  return h;
}

void put_digest(Writer& w, const Digest& d) {
  for (std::uint8_t b : d) w.put_u8(b);
}

Digest get_digest(Reader& r) {
  Digest d;
  for (auto& b : d) b = r.get_u8();
  return d;
}

}  // namespace

Bytes CheckoutRequest::body() const {
  Writer w;
  w.put_u64(device_id);
  // Class 0 is never encoded (see kDefaultDeviceClass): the default-class
  // body — and therefore its HMAC tag — is byte-identical to the
  // pre-device-class wire format.
  if (device_class != kDefaultDeviceClass) w.put_u8(device_class);
  return w.take();
}

Bytes CheckoutRequest::serialize() const {
  Writer w;
  const Bytes b = body();
  for (std::uint8_t byte : b) w.put_u8(byte);
  put_digest(w, auth_tag);
  return w.take();
}

CheckoutRequest CheckoutRequest::deserialize(const Bytes& payload) {
  Reader r(payload);
  CheckoutRequest m;
  m.device_id = r.get_u64();
  // The class byte is present iff the payload is one byte longer than
  // the classic id+tag layout; detecting it by length keeps old-format
  // requests decoding unchanged.
  if (payload.size() == sizeof(std::uint64_t) + 1 + sizeof(Digest)) {
    m.device_class = r.get_u8();
    if (m.device_class == kDefaultDeviceClass)
      throw CodecError("explicit default device class in CheckoutRequest");
  }
  m.auth_tag = get_digest(r);
  if (!r.exhausted()) throw CodecError("trailing bytes in CheckoutRequest");
  return m;
}

Bytes ParamsMessage::serialize() const {
  Writer w;
  w.put_u64(version);
  w.put_u8(accepted ? 1 : 0);
  w.put_vector(this->w);
  // Optional trailing field: omitted when 0 so a hint-free message stays
  // byte-identical to the pre-coordinator encoding.
  if (next_checkin_hint_ms != 0) w.put_u32(next_checkin_hint_ms);
  return w.take();
}

ParamsMessage ParamsMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ParamsMessage m;
  m.version = r.get_u64();
  m.accepted = r.get_u8() != 0;
  m.w = r.get_vector();
  if (!r.exhausted()) m.next_checkin_hint_ms = r.get_u32();
  if (!r.exhausted()) throw CodecError("trailing bytes in ParamsMessage");
  return m;
}

Bytes CheckinMessage::body() const {
  Writer w;
  w.put_u64(device_id);
  w.put_u64(param_version);
  w.put_vector(g_hat);
  w.put_i64(ns);
  w.put_i64(ne_hat);
  w.put_i64_vector(ny_hat);
  // Optional trailing field inside the signed body; class 0 is never
  // encoded (see kDefaultDeviceClass), keeping default-class bodies —
  // and their tags — byte-identical to the pre-device-class format.
  if (device_class != kDefaultDeviceClass) w.put_u8(device_class);
  return w.take();
}

Bytes CheckinMessage::serialize() const {
  Writer w;
  Bytes b = body();
  w.put_bytes(b);
  put_digest(w, auth_tag);
  return w.take();
}

CheckinMessage CheckinMessage::deserialize(const Bytes& payload) {
  Reader outer(payload);
  const Bytes b = outer.get_bytes();
  const Digest tag = get_digest(outer);
  if (!outer.exhausted()) throw CodecError("trailing bytes in CheckinMessage");

  Reader r(b);
  CheckinMessage m;
  m.device_id = r.get_u64();
  m.param_version = r.get_u64();
  m.g_hat = r.get_vector();
  m.ns = r.get_i64();
  m.ne_hat = r.get_i64();
  m.ny_hat = r.get_i64_vector();
  if (!r.exhausted()) {
    m.device_class = r.get_u8();
    if (m.device_class == kDefaultDeviceClass)
      throw CodecError("explicit default device class in CheckinMessage");
  }
  if (!r.exhausted()) throw CodecError("trailing bytes in CheckinMessage body");
  m.auth_tag = tag;
  return m;
}

Bytes AckMessage::serialize() const {
  Writer w;
  w.put_u8(ok ? 1 : 0);
  w.put_string(reason);
  // Optional trailing field: omitted when 0 so a hint-free ack stays
  // byte-identical to the pre-coordinator encoding.
  if (next_checkin_hint_ms != 0) w.put_u32(next_checkin_hint_ms);
  return w.take();
}

AckMessage AckMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  AckMessage m;
  m.ok = r.get_u8() != 0;
  m.reason = r.get_string();
  if (!r.exhausted()) m.next_checkin_hint_ms = r.get_u32();
  if (!r.exhausted()) throw CodecError("trailing bytes in AckMessage");
  return m;
}

Bytes ReplHelloMessage::serialize() const {
  Writer w;
  w.put_u64(follower_id);
  w.put_u64(epoch);
  w.put_u64(last_seq);
  w.put_u64(snapshot_version);
  w.put_u64(snapshot_offset);
  w.put_u64(instance_id);
  return w.take();
}

ReplHelloMessage ReplHelloMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ReplHelloMessage m;
  m.follower_id = r.get_u64();
  m.epoch = r.get_u64();
  m.last_seq = r.get_u64();
  m.snapshot_version = r.get_u64();
  m.snapshot_offset = r.get_u64();
  m.instance_id = r.get_u64();
  if (!r.exhausted()) throw CodecError("trailing bytes in ReplHelloMessage");
  return m;
}

Bytes ReplSnapshotMessage::serialize() const {
  Writer w;
  w.put_u64(epoch);
  w.put_u8(want_ack ? 1 : 0);
  w.put_u64(version);
  w.put_u64(total_bytes);
  w.put_u64(offset);
  w.put_bytes(checkpoint);
  return w.take();
}

ReplSnapshotMessage ReplSnapshotMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ReplSnapshotMessage m;
  m.epoch = r.get_u64();
  m.want_ack = r.get_u8() != 0;
  m.version = r.get_u64();
  m.total_bytes = r.get_u64();
  m.offset = r.get_u64();
  m.checkpoint = r.get_bytes();
  if (m.offset > m.total_bytes ||
      m.checkpoint.size() > m.total_bytes - m.offset)
    throw CodecError("ReplSnapshot chunk overruns its stated total");
  if (!r.exhausted()) throw CodecError("trailing bytes in ReplSnapshotMessage");
  return m;
}

Bytes ReplAppendMessage::serialize() const {
  Writer w;
  w.put_u64(epoch);
  w.put_u8(want_ack ? 1 : 0);
  w.put_u64(instance_id);
  w.put_u32(static_cast<std::uint32_t>(records.size()));
  for (const ReplRecord& rec : records) {
    w.put_u64(rec.seq);
    w.put_bytes(rec.payload);
  }
  return w.take();
}

ReplAppendMessage ReplAppendMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ReplAppendMessage m;
  m.epoch = r.get_u64();
  m.want_ack = r.get_u8() != 0;
  m.instance_id = r.get_u64();
  const std::uint32_t n = r.get_u32();
  if (n > kMaxFieldLength) throw CodecError("absurd ReplAppend record count");
  m.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ReplRecord rec;
    rec.seq = r.get_u64();
    rec.payload = r.get_bytes();
    m.records.push_back(std::move(rec));
  }
  if (!r.exhausted()) throw CodecError("trailing bytes in ReplAppendMessage");
  return m;
}

Bytes ReplAckMessage::serialize() const {
  Writer w;
  w.put_u64(epoch);
  w.put_u64(durable_seq);
  return w.take();
}

ReplAckMessage ReplAckMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ReplAckMessage m;
  m.epoch = r.get_u64();
  m.durable_seq = r.get_u64();
  if (!r.exhausted()) throw CodecError("trailing bytes in ReplAckMessage");
  return m;
}

Bytes ReplHeartbeatMessage::serialize() const {
  Writer w;
  w.put_u64(epoch);
  w.put_u64(committed_seq);
  w.put_u32(lease_ms);
  w.put_string(leader_addr);
  return w.take();
}

ReplHeartbeatMessage ReplHeartbeatMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ReplHeartbeatMessage m;
  m.epoch = r.get_u64();
  m.committed_seq = r.get_u64();
  m.lease_ms = r.get_u32();
  m.leader_addr = r.get_string();
  if (!r.exhausted()) throw CodecError("trailing bytes in ReplHeartbeatMessage");
  return m;
}

Bytes ReplVoteMessage::serialize() const {
  Writer w;
  w.put_u8(request ? 1 : 0);
  w.put_u8(granted ? 1 : 0);
  w.put_u64(epoch);
  w.put_u64(candidate_id);
  w.put_u64(last_seq);
  w.put_u64(nonce);
  w.put_string(device_addr);
  w.put_string(repl_addr);
  return w.take();
}

ReplVoteMessage ReplVoteMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ReplVoteMessage m;
  m.request = r.get_u8() != 0;
  m.granted = r.get_u8() != 0;
  m.epoch = r.get_u64();
  m.candidate_id = r.get_u64();
  m.last_seq = r.get_u64();
  m.nonce = r.get_u64();
  m.device_addr = r.get_string();
  m.repl_addr = r.get_string();
  if (!r.exhausted()) throw CodecError("trailing bytes in ReplVoteMessage");
  return m;
}

Bytes SecAggAssignMessage::body() const {
  Writer w;
  w.put_u8(1);  // request direction is part of what the tag covers
  w.put_u64(device_id);
  // Class 0 is never encoded (see kDefaultDeviceClass): the default-class
  // body — and its HMAC tag — stays byte-identical to the pre-class form.
  if (device_class != kDefaultDeviceClass) w.put_u8(device_class);
  return w.take();
}

Bytes SecAggAssignMessage::serialize() const {
  Writer w;
  if (request) {
    const Bytes b = body();
    for (std::uint8_t byte : b) w.put_u8(byte);
    put_digest(w, auth_tag);
    return w.take();
  }
  w.put_u8(0);
  w.put_u8(status);
  w.put_u64(round_id);
  w.put_u64_vector(roster);
  w.put_u32(deadline_ms);
  w.put_u32(min_survivors);
  w.put_u32(retry_after_ms);
  return w.take();
}

SecAggAssignMessage SecAggAssignMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  SecAggAssignMessage m;
  m.request = r.get_u8() != 0;
  if (m.request) {
    m.device_id = r.get_u64();
    // The class byte is present iff the payload is one byte longer than
    // the classic direction+id+tag layout (same length detection as
    // CheckoutRequest).
    if (payload.size() ==
        1 + sizeof(std::uint64_t) + 1 + sizeof(Digest)) {
      m.device_class = r.get_u8();
      if (m.device_class == kDefaultDeviceClass)
        throw CodecError(
            "explicit default device class in SecAggAssignMessage");
    }
    m.auth_tag = get_digest(r);
  } else {
    m.status = r.get_u8();
    if (m.status > kSecAggAssignFallback)
      throw CodecError("unknown SecAggAssign status");
    m.round_id = r.get_u64();
    m.roster = r.get_u64_vector();
    m.deadline_ms = r.get_u32();
    m.min_survivors = r.get_u32();
    m.retry_after_ms = r.get_u32();
  }
  if (!r.exhausted()) throw CodecError("trailing bytes in SecAggAssignMessage");
  return m;
}

Bytes SecAggMaskedMessage::body() const {
  Writer w;
  w.put_u64(device_id);
  w.put_u64(round_id);
  w.put_u64(param_version);
  w.put_i64(ns);
  w.put_u64_vector(masked_g);
  w.put_u64(masked_ne);
  w.put_u64_vector(masked_ny);
  return w.take();
}

Bytes SecAggMaskedMessage::serialize() const {
  Writer w;
  w.put_bytes(body());
  put_digest(w, auth_tag);
  return w.take();
}

SecAggMaskedMessage SecAggMaskedMessage::deserialize(const Bytes& payload) {
  Reader outer(payload);
  const Bytes b = outer.get_bytes();
  const Digest tag = get_digest(outer);
  if (!outer.exhausted())
    throw CodecError("trailing bytes in SecAggMaskedMessage");

  Reader r(b);
  SecAggMaskedMessage m;
  m.device_id = r.get_u64();
  m.round_id = r.get_u64();
  m.param_version = r.get_u64();
  m.ns = r.get_i64();
  m.masked_g = r.get_u64_vector();
  m.masked_ne = r.get_u64();
  m.masked_ny = r.get_u64_vector();
  if (!r.exhausted())
    throw CodecError("trailing bytes in SecAggMaskedMessage body");
  m.auth_tag = tag;
  return m;
}

Bytes SecAggRevealMessage::body() const {
  Writer w;
  w.put_u8(1);
  w.put_u64(device_id);
  w.put_u64(round_id);
  w.put_u32(static_cast<std::uint32_t>(seeds.size()));
  for (const SecAggSeedShare& s : seeds) {
    w.put_u64(s.a);
    w.put_u64(s.b);
    put_digest(w, s.seed);
  }
  return w.take();
}

Bytes SecAggRevealMessage::serialize() const {
  Writer w;
  if (request) {
    const Bytes b = body();
    for (std::uint8_t byte : b) w.put_u8(byte);
    put_digest(w, auth_tag);
    return w.take();
  }
  w.put_u8(0);
  w.put_u64(round_id);
  w.put_u8(status);
  w.put_u64_vector(dead);
  w.put_u64_vector(survivors);
  w.put_u32(retry_after_ms);
  return w.take();
}

SecAggRevealMessage SecAggRevealMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  SecAggRevealMessage m;
  m.request = r.get_u8() != 0;
  if (m.request) {
    m.device_id = r.get_u64();
    m.round_id = r.get_u64();
    const std::uint32_t n = r.get_u32();
    if (n > kMaxFieldLength) throw CodecError("absurd SecAggReveal seed count");
    m.seeds.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      SecAggSeedShare s;
      s.a = r.get_u64();
      s.b = r.get_u64();
      s.seed = get_digest(r);
      m.seeds.push_back(s);
    }
    m.auth_tag = get_digest(r);
  } else {
    m.round_id = r.get_u64();
    m.status = r.get_u8();
    if (m.status > kSecAggRoundAborted)
      throw CodecError("unknown SecAggReveal status");
    m.dead = r.get_u64_vector();
    m.survivors = r.get_u64_vector();
    m.retry_after_ms = r.get_u32();
  }
  if (!r.exhausted()) throw CodecError("trailing bytes in SecAggRevealMessage");
  return m;
}

Bytes ShardPullMessage::serialize() const {
  Writer w;
  w.put_u64(merge_round);
  return w.take();
}

ShardPullMessage ShardPullMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ShardPullMessage m;
  m.merge_round = r.get_u64();
  if (!r.exhausted()) throw CodecError("trailing bytes in ShardPullMessage");
  return m;
}

Bytes ShardModelMessage::serialize() const {
  Writer w;
  w.put_u64(shard_id);
  w.put_u64(merge_round);
  w.put_u64(version);
  w.put_u64(checkins);
  w.put_u64_vector(q);
  return w.take();
}

ShardModelMessage ShardModelMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ShardModelMessage m;
  m.shard_id = r.get_u64();
  m.merge_round = r.get_u64();
  m.version = r.get_u64();
  m.checkins = r.get_u64();
  m.q = r.get_u64_vector();
  if (!r.exhausted()) throw CodecError("trailing bytes in ShardModelMessage");
  return m;
}

Bytes ShardMergePushMessage::serialize() const {
  Writer w;
  w.put_u64(merge_round);
  w.put_u64(total_checkins);
  w.put_u64_vector(q);
  return w.take();
}

ShardMergePushMessage ShardMergePushMessage::deserialize(const Bytes& payload) {
  Reader r(payload);
  ShardMergePushMessage m;
  m.merge_round = r.get_u64();
  m.total_checkins = r.get_u64();
  m.q = r.get_u64_vector();
  if (!r.exhausted())
    throw CodecError("trailing bytes in ShardMergePushMessage");
  return m;
}

const char* message_type_name(std::uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kCheckoutRequest: return "CheckoutRequest";
    case MessageType::kParams: return "Params";
    case MessageType::kCheckin: return "Checkin";
    case MessageType::kAck: return "Ack";
    case MessageType::kReplHello: return "ReplHello";
    case MessageType::kReplSnapshot: return "ReplSnapshot";
    case MessageType::kReplAppend: return "ReplAppend";
    case MessageType::kReplAck: return "ReplAck";
    case MessageType::kReplHeartbeat: return "ReplHeartbeat";
    case MessageType::kReplVote: return "ReplVote";
    case MessageType::kSecAggAssign: return "SecAggAssign";
    case MessageType::kSecAggMasked: return "SecAggMasked";
    case MessageType::kSecAggReveal: return "SecAggReveal";
    case MessageType::kShardPull: return "ShardPull";
    case MessageType::kShardModel: return "ShardModel";
    case MessageType::kShardMergePush: return "ShardMergePush";
  }
  return nullptr;
}

namespace {
constexpr const char kNotLeaderPrefix[] = "not leader; leader=";
constexpr const char kWrongShardPrefix[] = "wrong shard; shard=";
}

std::string not_leader_reason(const std::string& leader_addr) {
  return kNotLeaderPrefix + leader_addr;
}

std::optional<std::string> parse_leader_redirect(const std::string& reason) {
  const std::size_t prefix_len = sizeof(kNotLeaderPrefix) - 1;
  if (reason.rfind(kNotLeaderPrefix, 0) != 0 || reason.size() <= prefix_len)
    return std::nullopt;
  return reason.substr(prefix_len);
}

std::string wrong_shard_reason(const std::string& shard_addr) {
  return kWrongShardPrefix + shard_addr;
}

std::optional<std::string> parse_shard_redirect(const std::string& reason) {
  const std::size_t prefix_len = sizeof(kWrongShardPrefix) - 1;
  if (reason.rfind(kWrongShardPrefix, 0) != 0 || reason.size() <= prefix_len)
    return std::nullopt;
  return reason.substr(prefix_len);
}

std::optional<std::pair<std::string, std::uint16_t>> split_host_port(
    const std::string& addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= addr.size())
    return std::nullopt;
  long long port = 0;
  for (std::size_t i = colon + 1; i < addr.size(); ++i) {
    if (addr[i] < '0' || addr[i] > '9') return std::nullopt;
    port = port * 10 + (addr[i] - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port < 1) return std::nullopt;
  return std::make_pair(addr.substr(0, colon),
                        static_cast<std::uint16_t>(port));
}

std::string retry_after_reason(const std::string& what, int retry_after_ms) {
  return what + "; retry_after_ms=" + std::to_string(retry_after_ms);
}

std::optional<int> parse_retry_after(const std::string& reason) {
  static constexpr const char kKey[] = "retry_after_ms=";
  const std::size_t at = reason.rfind(kKey);
  if (at == std::string::npos) return std::nullopt;
  // The hint must be a whole, final token: the key either starts the
  // reason or follows the "; " separator retry_after_reason writes
  // ("xretry_after_ms=5" is not a hint), and the digits must run to the
  // end of the string ("retry_after_ms=12ms" must not parse as 12).
  if (at != 0 && (at < 2 || reason[at - 1] != ' ' || reason[at - 2] != ';'))
    return std::nullopt;
  std::size_t pos = at + sizeof(kKey) - 1;
  if (pos >= reason.size()) return std::nullopt;
  long long v = 0;
  for (; pos < reason.size(); ++pos) {
    if (reason[pos] < '0' || reason[pos] > '9') return std::nullopt;
    v = v * 10 + (reason[pos] - '0');
    // An hour-plus hint is garbage; rejecting here also stops overflow
    // past int from wrapping into a small "valid" delay.
    if (v > 3600'000) return std::nullopt;
  }
  return static_cast<int>(v);
}

std::optional<std::uint64_t> peek_checkin_device_id(const Bytes& frame) {
  // Checkin payload layout: [u32 body_len][body: u64 device_id ...][tag].
  // The id therefore sits at a fixed offset past the frame header and
  // the body's length prefix.
  constexpr std::size_t kIdOffset = kFrameHeaderSize + sizeof(std::uint32_t);
  if (frame.size() <= kFrameTypeOffset ||
      frame[kFrameTypeOffset] != static_cast<std::uint8_t>(MessageType::kCheckin))
    return std::nullopt;
  if (frame.size() < kIdOffset + sizeof(std::uint64_t) + kFrameTrailerSize)
    return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i)
    id |= static_cast<std::uint64_t>(frame[kIdOffset + i]) << (8 * i);
  return id;
}

Bytes frame_with_checkin_hint(const Bytes& frame, std::uint32_t hint_ms) {
  if (hint_ms == 0) return frame;
  if (frame.size() < kFrameHeaderSize + kFrameTrailerSize)
    throw CodecError("frame too short to carry a hint");
  const std::uint8_t type = frame[kFrameTypeOffset];
  if (type != static_cast<std::uint8_t>(MessageType::kParams) &&
      type != static_cast<std::uint8_t>(MessageType::kAck))
    throw CodecError("hints ride Params and Ack frames only");
  // Slice the payload out of the old frame, append the four little-endian
  // hint bytes (the optional trailing field both serializers write), and
  // re-frame: header length and CRC are recomputed by encode_frame.
  Bytes payload(frame.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderSize),
                frame.end() - static_cast<std::ptrdiff_t>(kFrameTrailerSize));
  for (int i = 0; i < 4; ++i)
    payload.push_back(static_cast<std::uint8_t>(hint_ms >> (8 * i)));
  return encode_frame(static_cast<MessageType>(type), payload);
}

Bytes encode_frame(MessageType type, const Bytes& payload) {
  obs::TimedScope timer(encode_seconds());
  const auto len = static_cast<std::uint32_t>(payload.size());
  Bytes out(kFrameHeaderSize + payload.size() + kFrameTrailerSize);
  std::memcpy(out.data(), kMagic, kFrameMagicSize);
  out[kFrameTypeOffset] = static_cast<std::uint8_t>(type);
  std::memcpy(out.data() + kFrameLenOffset, &len, sizeof(len));  // little-endian
  if (!payload.empty())
    std::memcpy(out.data() + kFrameHeaderSize, payload.data(), payload.size());
  // CRC over type + len + payload (everything after the magic).
  const std::size_t crc_off = kFrameHeaderSize + payload.size();
  const std::uint32_t crc =
      crc32(out.data() + kFrameMagicSize, crc_off - kFrameMagicSize);
  std::memcpy(out.data() + crc_off, &crc, sizeof(crc));
  return out;
}

Frame decode_frame(const Bytes& buffer) {
  obs::TimedScope timer(decode_seconds());
  if (buffer.size() < kFrameHeaderSize + kFrameTrailerSize)
    throw CodecError("frame too short");
  for (int i = 0; i < 4; ++i)
    if (buffer[static_cast<std::size_t>(i)] != kMagic[i])
      throw CodecError("bad frame magic");

  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(buffer[5 + static_cast<std::size_t>(i)]) << (8 * i);
  if (buffer.size() != kFrameHeaderSize + len + kFrameTrailerSize)
    throw CodecError("frame length mismatch");

  std::uint32_t stated_crc = 0;
  const std::size_t crc_off = kFrameHeaderSize + len;
  for (int i = 0; i < 4; ++i)
    stated_crc |= static_cast<std::uint32_t>(buffer[crc_off + static_cast<std::size_t>(i)])
                  << (8 * i);
  const std::uint32_t actual_crc = crc32(buffer.data() + 4, crc_off - 4);
  if (stated_crc != actual_crc) throw CodecError("frame crc mismatch");

  Frame f;
  const std::uint8_t type = buffer[4];
  if (type < 1 || type > kMaxMessageType) throw CodecError("unknown frame type");
  f.type = static_cast<MessageType>(type);
  f.payload.assign(buffer.begin() + kFrameHeaderSize,
                   buffer.begin() + static_cast<std::ptrdiff_t>(crc_off));
  return f;
}

}  // namespace crowdml::net
