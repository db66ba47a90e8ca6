// Crowd-ML protocol messages (the Fig. 2 workflow on the wire).
//
//   CheckoutRequest : device -> server   "send me the current w"     (step 2)
//   ParamsMessage   : server -> device   versioned parameters        (step 3)
//   CheckinMessage  : device -> server   sanitized (g^, ns, n^e, n^y) (step 4)
//   AckMessage      : server -> device   accept/reject + reason       (step 5)
//
// Each message carrying device identity also carries an HMAC-SHA256 tag
// over its body (see auth.hpp) — the server "authenticates the device"
// in Server Routines 1 and 2.
//
// Frames: [magic 'CRML'][u8 type][u32 payload_len][payload][u32 crc32],
// crc over type+len+payload. decode_frame throws CodecError on corruption.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/sha256.hpp"

namespace crowdml::net {

enum class MessageType : std::uint8_t {
  kCheckoutRequest = 1,
  kParams = 2,
  kCheckin = 3,
  kAck = 4,
  // Replication plane (leader <-> follower WAL shipping, same framing;
  // see src/replica/ and docs/REPLICATION.md). Types 5-10 never appear
  // on the device-facing port.
  kReplHello = 5,
  kReplSnapshot = 6,
  kReplAppend = 7,
  kReplAck = 8,
  // Automatic failover (lease heartbeats + leader election; see
  // docs/REPLICATION.md "Automatic failover semantics").
  kReplHeartbeat = 9,
  kReplVote = 10,
  // Secure-aggregation cohort mode (src/secagg/; docs/PRIVACY.md
  // "Secure aggregation"): devices submit pairwise-masked checkins the
  // server can only read as a cohort sum.
  kSecAggAssign = 11,
  kSecAggMasked = 12,
  kSecAggReveal = 13,
  // Sharded-leader merge plane (src/shard/; docs/SHARDING.md): the
  // MergeDirector pulls per-shard models + checkin counts, pushes a
  // count-weighted merge back. All three are HMAC-sealed with the
  // replication key (same construction as Repl* frames) and ride the
  // device-facing port, but devices never send or receive them.
  kShardPull = 14,
  kShardModel = 15,
  kShardMergePush = 16,
};

inline constexpr std::uint8_t kMaxMessageType = 16;

/// Human-readable name of a frame-type constant, or nullptr for a value
/// outside [1, kMaxMessageType]. This is the registry the protocol_test
/// frame-table guard walks: every type must have a name here AND a
/// matching `N=Name` row in docs/PROTOCOL.md's framing table, so a new
/// frame type cannot land without its documentation.
const char* message_type_name(std::uint8_t type);

/// Device-class id carried by checkout/checkin frames (pace steering;
/// src/coord/). 0 = "default" / undeclared — and, critically, class 0 is
/// *never encoded on the wire*: both serializers omit the field entirely,
/// so a device that predates device classes and a device that declares
/// class 0 produce byte-identical frames (and identical auth bodies).
/// Deserializers accept both forms; an explicit 0 byte is rejected as
/// malformed so the body a tag was computed over is never ambiguous.
inline constexpr std::uint8_t kDefaultDeviceClass = 0;

struct CheckoutRequest {
  std::uint64_t device_id = 0;
  /// Declared device class (the checkout doubles as the device's hello;
  /// see docs/SCALING.md "Pace steering"). Signed — part of body().
  std::uint8_t device_class = kDefaultDeviceClass;
  Digest auth_tag{};

  Bytes body() const;  // the authenticated portion
  Bytes serialize() const;
  static CheckoutRequest deserialize(const Bytes& payload);
};

struct ParamsMessage {
  std::uint64_t version = 0;  // server iteration t at checkout time
  bool accepted = true;       // false: checkout refused (e.g. auth failure)
  linalg::Vector w;
  /// Pace-steering hint: "your next checkin should arrive no sooner than
  /// this many ms from now" (advisory on the checkout path; the checkin
  /// ack's hint is the authoritative one). 0 = no hint, and the field is
  /// then omitted on the wire — a hint-free ParamsMessage is
  /// byte-identical to the pre-coordinator encoding, and decoders accept
  /// old-format payloads (the field is read only when bytes remain).
  std::uint32_t next_checkin_hint_ms = 0;

  Bytes serialize() const;
  static ParamsMessage deserialize(const Bytes& payload);
};

struct CheckinMessage {
  std::uint64_t device_id = 0;
  std::uint64_t param_version = 0;  // version of the w the gradient used
  linalg::Vector g_hat;             // sanitized averaged gradient (Eq. 10)
  std::int64_t ns = 0;              // samples in the minibatch (public)
  std::int64_t ne_hat = 0;          // sanitized error count (Eq. 11)
  std::vector<std::int64_t> ny_hat; // sanitized label counts (Eq. 12)
  /// Declared device class (see CheckoutRequest::device_class). Rides in
  /// the signed body so an unauthenticated party cannot re-class a
  /// checkin; omitted on the wire when kDefaultDeviceClass.
  std::uint8_t device_class = kDefaultDeviceClass;
  Digest auth_tag{};

  Bytes body() const;
  Bytes serialize() const;
  static CheckinMessage deserialize(const Bytes& payload);
};

struct AckMessage {
  bool ok = true;
  std::string reason;
  /// Pace-steering hint on the checkin ack: "come back for your next
  /// checkin in this many ms" (src/coord/; docs/PROTOCOL.md). Unlike the
  /// retry_after_ms suffix in `reason` — a shed nack's reactive hint —
  /// this field rides *successful* acks too, and
  /// ReconnectingDeviceSession honors it without consuming retry budget.
  /// 0 = no hint; the field is then omitted, so a hint-free AckMessage is
  /// byte-identical to the pre-coordinator encoding, and old-format
  /// payloads decode (the field is read only when bytes remain).
  std::uint32_t next_checkin_hint_ms = 0;

  Bytes serialize() const;
  static AckMessage deserialize(const Bytes& payload);
};

/// Replication handshake (follower -> leader), sent once per connection:
/// who the follower is, the highest epoch it has promised to, and the
/// last WAL seq it holds *durably*. The leader resumes shipping at
/// last_seq + 1 — or answers with a ReplSnapshot when compaction already
/// pruned those records. A hello whose epoch exceeds the leader's fences
/// the leader (it has been superseded; see docs/REPLICATION.md).
struct ReplHelloMessage {
  std::uint64_t follower_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t last_seq = 0;
  /// Partial chunked snapshot held from a previous connection: the
  /// version being transferred and the next byte offset wanted. The
  /// leader resumes the transfer mid-stream when it still has that
  /// serialized snapshot cached; 0/0 = no partial transfer.
  std::uint64_t snapshot_version = 0;
  std::uint64_t snapshot_offset = 0;
  /// Stream tag, always 0: a draw-and-discard pool does not replicate
  /// (docs/REPLICATION.md). Kept on the wire; both ends drop a peer
  /// whose tag is not 0.
  std::uint64_t instance_id = 0;

  Bytes serialize() const;
  static ReplHelloMessage deserialize(const Bytes& payload);
};

/// Full-state catch-up (leader -> follower): one bounded chunk of a
/// serialized core::ServerCheckpoint at `version`. The checkpoint is
/// split into frames of at most the shipper's snapshot_chunk_bytes —
/// a multi-GB state can neither stall the shipper loop nor exceed the
/// frame-size cap — and offsets are resumable: a follower that
/// disconnects mid-transfer announces (version, next offset) in its
/// next hello. The chunk whose offset + size == total_bytes completes
/// the transfer; the follower then replaces its store wholesale and
/// resumes streaming from version + 1.
struct ReplSnapshotMessage {
  std::uint64_t epoch = 0;
  bool want_ack = true;  ///< leader expects a ReplAck after this chunk
  std::uint64_t version = 0;
  std::uint64_t total_bytes = 0;  ///< full serialized checkpoint size
  std::uint64_t offset = 0;       ///< this chunk's position in the whole
  Bytes checkpoint;               ///< the chunk bytes at `offset`

  bool last_chunk() const { return offset + checkpoint.size() >= total_bytes; }

  Bytes serialize() const;
  static ReplSnapshotMessage deserialize(const Bytes& payload);
};

/// One shipped WAL record: the exact payload bytes the leader logged
/// (a serialized CheckinMessage), so the follower's log stays
/// byte-identical to the leader's at equal offsets.
struct ReplRecord {
  std::uint64_t seq = 0;
  Bytes payload;
};

/// A batch of contiguous WAL records (leader -> follower).
struct ReplAppendMessage {
  std::uint64_t epoch = 0;
  bool want_ack = true;
  /// Stream tag, always 0 (see ReplHelloMessage::instance_id). A
  /// follower drops the connection on a batch whose tag is not 0.
  std::uint64_t instance_id = 0;
  std::vector<ReplRecord> records;

  Bytes serialize() const;
  static ReplAppendMessage deserialize(const Bytes& payload);
};

/// Follower -> leader: "I hold everything through durable_seq on disk",
/// stamped with the follower's current epoch so a promoted follower
/// fences its old leader on the ack path too.
struct ReplAckMessage {
  std::uint64_t epoch = 0;
  std::uint64_t durable_seq = 0;

  Bytes serialize() const;
  static ReplAckMessage deserialize(const Bytes& payload);
};

/// Leader -> follower lease grant, sent on the replication stream at
/// least every heartbeat interval: "I am leader of `epoch`; treat me as
/// alive for lease_ms from receipt". Carries the committed watermark so
/// followers can bound read staleness, and the leader's device-facing
/// address so replicas keep their checkin redirects current. Never
/// acked — silence, not nacks, is what expires a lease.
struct ReplHeartbeatMessage {
  std::uint64_t epoch = 0;
  std::uint64_t committed_seq = 0;
  std::uint32_t lease_ms = 0;
  std::string leader_addr;  ///< device-facing host:port ("" = unchanged)

  Bytes serialize() const;
  static ReplHeartbeatMessage deserialize(const Bytes& payload);
};

/// Leader election (follower <-> follower, and candidate -> old leader).
/// As a request (`request` = true): "grant me leadership at `epoch`; my
/// durable log reaches `last_seq`". As a response: `granted` says
/// whether the responder durably promised `epoch` to this candidate;
/// its own epoch/last_seq ride along so a losing candidate learns how
/// far behind it is. Granting requires epoch > the responder's promised
/// epoch — at most one candidate can win a given epoch — and
/// last_seq >= the responder's durable position, so only a
/// most-caught-up candidate can assemble a majority.
struct ReplVoteMessage {
  bool request = true;
  bool granted = false;  ///< response only
  std::uint64_t epoch = 0;
  std::uint64_t candidate_id = 0;
  std::uint64_t last_seq = 0;
  /// Per-request random value the responder must echo. Sealed into the
  /// HMAC tag along with candidate_id, it binds a grant to one request
  /// from one candidate: a captured grant cannot be replayed into a
  /// concurrent candidate's election for the same epoch.
  std::uint64_t nonce = 0;
  /// Request only: where the candidate will serve if it wins, so
  /// granters retarget without operator help. device_addr is the
  /// device-facing host:port (new checkin redirect target); repl_addr
  /// is the replication/election endpoint (new shipping source).
  std::string device_addr;
  std::string repl_addr;

  Bytes serialize() const;
  static ReplVoteMessage deserialize(const Bytes& payload);
};

// ---------------------------------------------------------------------
// Secure-aggregation cohort mode (types 11-13; src/secagg/,
// docs/PRIVACY.md "Secure aggregation"). All three ride the device port
// and follow the classic request/response shape: the device sends an
// authenticated request, the server answers with the same frame type
// (Assign/Reveal, direction flagged like ReplVote) or a plain Ack
// (Masked).

/// Round status answered on a SecAggAssign response.
enum : std::uint8_t {
  kSecAggAssignPending = 0,   ///< cohort still forming; retry after hint
  kSecAggAssignAssigned = 1,  ///< roster + round id attached
  kSecAggAssignFallback = 2,  ///< no cohort will form; use a classic checkin
};

/// Round status answered on a SecAggReveal response.
enum : std::uint8_t {
  kSecAggRoundCollecting = 0,  ///< masked checkins still arriving; retry
  kSecAggRoundComplete = 1,    ///< cohort sum applied; the device is done
  kSecAggRoundRecovering = 2,  ///< dropouts declared; seed reveals wanted
  kSecAggRoundAborted = 3,     ///< below min survivors; fall back to LDP
};

/// Cohort assignment (device <-> server, type 11). As a request:
/// "assign me to a round" (authenticated — an unenrolled party cannot
/// probe rosters). As a response: pending (come back in retry_after_ms),
/// assigned (round id + sorted roster + ms until the round's deadline),
/// or fallback (no cohort will form; do a classic LDP checkin).
struct SecAggAssignMessage {
  bool request = true;
  std::uint64_t device_id = 0;  ///< request only (signed)
  /// Declared device class (request only, signed; see
  /// CheckoutRequest::device_class). Cohorts form per class so one
  /// flaky-class straggler cannot stall a fast-class round; omitted on
  /// the wire when kDefaultDeviceClass, keeping pre-class assign
  /// requests (and their tags) byte-identical.
  std::uint8_t device_class = kDefaultDeviceClass;
  Digest auth_tag{};            ///< request only
  std::uint8_t status = kSecAggAssignPending;   ///< response only
  std::uint64_t round_id = 0;                   ///< response (assigned)
  std::vector<std::uint64_t> roster;            ///< response: sorted ids
  std::uint32_t deadline_ms = 0;    ///< response: ms until the round closes
  std::uint32_t min_survivors = 0;  ///< response: the abort threshold
  std::uint32_t retry_after_ms = 0; ///< response (pending)

  Bytes body() const;  // the authenticated portion (request form)
  Bytes serialize() const;
  static SecAggAssignMessage deserialize(const Bytes& payload);
};

/// Masked checkin (device -> server, type 12; answered with an Ack).
/// Gradient and counts are quantized to fixed point (secagg::quantize)
/// and carried mod 2^64 with every pairwise mask added in, so the
/// server can only recover the *cohort sum* once all masks cancel. `ns`
/// stays public plaintext, exactly as in a classic Checkin (it carries
/// no per-sample information). An ok Ack means "accepted into the
/// round", NOT "applied" — application happens when the round's sum is
/// unmaskable (docs/PRIVACY.md).
struct SecAggMaskedMessage {
  std::uint64_t device_id = 0;
  std::uint64_t round_id = 0;
  std::uint64_t param_version = 0;
  std::int64_t ns = 0;  ///< minibatch size (public metadata)
  std::vector<std::uint64_t> masked_g;   ///< fixed-point g^ + masks
  std::uint64_t masked_ne = 0;           ///< two's-complement ne^ + masks
  std::vector<std::uint64_t> masked_ny;  ///< two's-complement ny^ + masks
  Digest auth_tag{};

  Bytes body() const;
  Bytes serialize() const;
  static SecAggMaskedMessage deserialize(const Bytes& payload);
};

/// One revealed pairwise seed: the HMAC-derived PRG seed for the
/// (a, b) mask pair of a round (a < b; see secagg::pairwise_seed).
struct SecAggSeedShare {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Digest seed{};
};

/// Round-status poll and seed recovery (device <-> server, type 13).
/// As a request with empty `seeds`: "how did round_id end?". As a
/// request with seeds: a surviving device reveals the pairwise seeds of
/// declared-dead peers so the server can subtract their unmatched mask
/// contributions. As a response: collecting (retry), complete,
/// recovering (dead + survivor lists attached — compute and submit the
/// (survivor, dead) seeds), or aborted (fall back to a classic LDP
/// checkin).
struct SecAggRevealMessage {
  bool request = true;
  std::uint64_t device_id = 0;  ///< request only (signed)
  std::uint64_t round_id = 0;   ///< both directions
  std::vector<SecAggSeedShare> seeds;  ///< request: revealed seeds
  Digest auth_tag{};                   ///< request only
  std::uint8_t status = kSecAggRoundCollecting;  ///< response only
  std::vector<std::uint64_t> dead;       ///< response (recovering)
  std::vector<std::uint64_t> survivors;  ///< response (recovering)
  std::uint32_t retry_after_ms = 0;      ///< response (collecting)

  Bytes body() const;  // the authenticated portion (request form)
  Bytes serialize() const;
  static SecAggRevealMessage deserialize(const Bytes& payload);
};

// ---------------------------------------------------------------------
// Sharded-leader merge plane (types 14-16; src/shard/,
// docs/SHARDING.md). Director <-> shard-leader only. None of these
// carry an in-body auth tag: like the Repl* frames they are sealed at
// the session layer with the replication key
// (replica::seal_repl_payload — payload || HMAC-SHA256(key,
// type || payload)), so an unkeyed party can neither pull a model nor
// push a merge.

/// Director -> shard leader (type 14): "send me your current model and
/// the checkin count it absorbed since the last merge". Answered with a
/// sealed ShardModel. merge_round is the director's cycle counter; the
/// leader remembers (round, version-at-pull) so the matching push can
/// report merge staleness in update counts.
struct ShardPullMessage {
  std::uint64_t merge_round = 0;

  Bytes serialize() const;
  static ShardPullMessage deserialize(const Bytes& payload);
};

/// Shard leader -> director (type 15): the shard's model in fixed point
/// (secagg::quantize two's-complement encoding — the merge average is
/// computed entirely in integer arithmetic so every replica of the
/// merge computes identical bytes), its version, and the number of
/// checkins applied since the last merge (the weight in the
/// count-weighted average).
struct ShardModelMessage {
  std::uint64_t shard_id = 0;
  std::uint64_t merge_round = 0;  ///< echoed from the pull
  std::uint64_t version = 0;      ///< model version at pull time
  std::uint64_t checkins = 0;     ///< updates absorbed since last merge
  std::vector<std::uint64_t> q;   ///< fixed-point parameters

  Bytes serialize() const;
  static ShardModelMessage deserialize(const Bytes& payload);
};

/// Director -> every shard leader (type 16): the count-weighted merged
/// model. Answered with a plain Ack. The leader dequantizes, applies it
/// through the normal applier path (core::Server::overwrite_parameters)
/// and logs a shard::MergeRecord in its WAL, so recovery and
/// replication replay the merge exactly like any checkin.
struct ShardMergePushMessage {
  std::uint64_t merge_round = 0;
  std::uint64_t total_checkins = 0;  ///< sum of shard weights (audit)
  std::vector<std::uint64_t> q;      ///< fixed-point merged parameters

  Bytes serialize() const;
  static ShardMergePushMessage deserialize(const Bytes& payload);
};

/// Checkin refusal from a read replica: "not leader; leader=<addr>".
/// Devices (or operators reading logs) can re-point at the leader; the
/// reason rides the normal AckMessage, so old devices just see a failed
/// cycle.
std::string not_leader_reason(const std::string& leader_addr);

/// Extract the leader address from a not_leader_reason; nullopt when the
/// reason is anything else.
std::optional<std::string> parse_leader_redirect(const std::string& reason);

/// Checkin refusal from a shard leader that does not own the device's
/// hash range: "wrong shard; shard=<addr>". Same shape and same
/// pre-application safety argument as not_leader_reason — the nack is
/// produced on the I/O thread before the checkin reaches the applier,
/// so re-sending to <addr> can never double-apply (docs/SHARDING.md).
std::string wrong_shard_reason(const std::string& shard_addr);

/// Extract the owning shard's address from a wrong_shard_reason;
/// nullopt when the reason is anything else.
std::optional<std::string> parse_shard_redirect(const std::string& reason);

/// Split "host:port" at the last colon. nullopt when there is no colon,
/// the host part is empty, or the port is not a number in [1, 65535].
std::optional<std::pair<std::string, std::uint16_t>> split_host_port(
    const std::string& addr);

/// Overload nack reasons: a server shedding load (connection cap, full
/// checkin queue) appends a machine-readable retry hint to the human
/// reason — "<what>; retry_after_ms=<N>" — that
/// ReconnectingDeviceSession honors as its next backoff delay instead of
/// guessing. The hint rides the existing reason string, so old devices
/// ignore it and the AckMessage wire format is unchanged.
std::string retry_after_reason(const std::string& what, int retry_after_ms);

/// Extract the retry_after_ms hint from a nack reason. Strict: the hint
/// must be the final "; retry_after_ms=<digits>" token — a key buried
/// mid-token, trailing non-digits, a negative value, or a value past an
/// hour (3'600'000 ms) all yield nullopt rather than a wrapped or
/// truncated delay a hostile server could choose.
std::optional<int> parse_retry_after(const std::string& reason);

/// Cheap peek at the device id of an encoded Checkin frame (the u64
/// opening its length-prefixed body) without decoding, CRC-checking, or
/// copying the frame. nullopt when the buffer is not a Checkin frame or
/// is too short to hold an id. The engine's I/O-thread shard gate uses
/// this to route before application; a corrupt frame that peeks a bogus
/// id is at worst redirected, and full decoding rejects it wherever it
/// lands.
std::optional<std::uint64_t> peek_checkin_device_id(const Bytes& frame);

/// Append a pace-steering hint to an already-encoded Params or Ack frame
/// without decoding the payload: both messages place next_checkin_hint_ms
/// as their optional final field, so re-framing with four extra trailing
/// payload bytes is exactly equivalent to re-serializing the decoded
/// message with the hint set. This is what lets the engine serve steered
/// checkouts from the snapshot board's pre-encoded frame (one slice +
/// CRC, no ParamsMessage round trip). hint_ms == 0 returns the frame
/// unchanged (the absent-field encoding). Must not be applied twice to
/// the same frame, and must only be applied to frames this process
/// encoded (the input's CRC is not re-verified).
Bytes frame_with_checkin_hint(const Bytes& frame, std::uint32_t hint_ms);

/// Framing.
Bytes encode_frame(MessageType type, const Bytes& payload);

struct Frame {
  MessageType type;
  Bytes payload;
};

/// Decode a complete frame buffer. Throws CodecError on bad magic, length
/// mismatch, or CRC failure.
Frame decode_frame(const Bytes& buffer);

/// Frame layout constants. The header is [magic][type][payload_len]; any
/// code that picks fields out of a raw header buffer (e.g. the socket
/// layer reading the length before the payload arrives) must use these
/// offsets rather than hard-coded byte positions.
inline constexpr std::size_t kFrameMagicSize = 4;
inline constexpr std::size_t kFrameTypeOffset = kFrameMagicSize;
inline constexpr std::size_t kFrameLenOffset = kFrameTypeOffset + 1;
inline constexpr std::size_t kFrameHeaderSize = kFrameLenOffset + sizeof(std::uint32_t);
inline constexpr std::size_t kFrameTrailerSize = 4;
static_assert(kFrameHeaderSize == kFrameMagicSize + 1 + sizeof(std::uint32_t),
              "frame header is magic + u8 type + u32 payload length");
static_assert(kFrameLenOffset + sizeof(std::uint32_t) == kFrameHeaderSize,
              "length field is the last header field");

}  // namespace crowdml::net
