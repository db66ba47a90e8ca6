// Durable state store for the parameter server: atomic snapshots plus a
// write-ahead log of applied checkins, with crash recovery.
//
// One directory holds everything:
//
//   <dir>/snapshot-<version>.bin   full ServerCheckpoint (CRC-framed,
//                                  written atomically via temp + rename)
//   <dir>/wal-<first_seq>.log      WAL segments (see store/wal.hpp)
//
// Contract: once `attach` installs the applied-checkin hook, every ack
// the server sends is backed by a WAL record durable per the fsync
// policy — an acked checkin survives a crash. If an append fails (disk
// full, dead volume) the update stays applied in memory but the device
// receives a nack, so "acked => durable" never lies; the failure is
// counted and traced.
//
// Recovery loads the newest snapshot that deserializes cleanly (corrupt
// ones are skipped in favor of older ones), then replays the WAL tail
// through Server::handle_checkin. Replay is deterministic — validation,
// stats accumulation, and the updater's schedule all depend only on the
// restored state and the logged messages — so the recovered (w, t,
// device_stats) match the pre-crash server byte-for-byte. A torn final
// record is truncated; corruption anywhere else refuses recovery rather
// than silently diverging.
//
// Privacy: snapshots and WAL records hold exactly the post-sanitization
// data the server already held in memory (Section III-C: server-visible
// state derives from the sanitized communications), so persisting them
// adds no privacy loss. See docs/DURABILITY.md.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/server.hpp"
#include "obs/trace.hpp"
#include "store/wal.hpp"

namespace crowdml::store {

/// First four payload bytes of an opaque (non-checkin) WAL record. A
/// checkin record's payload starts with a u32 body-length prefix, and
/// net::codec caps field lengths well below 0xFFFFFFFF, so this value can
/// never open a valid CheckinMessage — the two record kinds are
/// distinguishable from their first word alone. Multimodel overwrite
/// records (draw-and-discard; see src/multimodel/) use this envelope.
inline constexpr std::uint32_t kOpaqueRecordMagic = 0xFFFFFFFFu;

/// True when `payload` carries an opaque record (see kOpaqueRecordMagic).
bool is_opaque_record(const net::Bytes& payload);

struct DurableStoreOptions {
  WalOptions wal;
  /// Snapshots kept after a compaction (the newest `keep_snapshots`); at
  /// least 1. Older files are deleted once a newer snapshot is durable.
  std::size_t keep_snapshots = 2;
  /// Replay handler for opaque records (payloads opening with
  /// kOpaqueRecordMagic; everything else replays as a CheckinMessage
  /// through Server::handle_checkin). Must apply the record and leave
  /// server.version() == seq, exactly like a checkin replay. Recovery of
  /// a log holding opaque records with no handler installed throws
  /// WalError — a single-model store must refuse a multimodel log rather
  /// than skip updates silently.
  std::function<void(core::Server&, std::uint64_t seq,
                     const net::Bytes& payload)>
      opaque_replay;
  /// Receives recovery_started / recovery_complete / wal_append_failed /
  /// compaction events. Null disables. Must outlive the store.
  obs::TraceSink* trace = nullptr;
};

class DurableStore {
 public:
  /// Creates `dir` if missing. Throws WalError when it cannot.
  explicit DurableStore(std::string dir, DurableStoreOptions options = {});

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  struct RecoveryInfo {
    bool snapshot_loaded = false;
    std::uint64_t snapshot_version = 0;
    std::size_t corrupt_snapshots_skipped = 0;
    std::uint64_t records_replayed = 0;
    std::uint64_t records_skipped = 0;
    /// Replayed records the server rejected (possible when the server was
    /// restarted with tighter stopping criteria; never on a faithful
    /// restart).
    std::uint64_t records_rejected = 0;
    bool torn_tail_truncated = false;
    std::size_t torn_bytes_dropped = 0;
    std::uint64_t recovered_version = 0;
  };

  /// Restore `server` from the newest valid snapshot and replay the WAL
  /// tail. Must be called exactly once, before attach() and before the
  /// server takes traffic. Throws WalError on unrecoverable log
  /// corruption and std::invalid_argument when a snapshot does not match
  /// the server's configured dimensions (an operator error, not
  /// corruption). A server already holding restored state (e.g. from a
  /// legacy --checkpoint file) is respected: replay starts at the later
  /// of the snapshot version and the server's current version.
  RecoveryInfo recover(core::Server& server);

  /// Install the applied-checkin hook: every applied checkin is appended
  /// to the WAL (durable per the fsync policy) before its ack is sent.
  /// Requires recover() first. The hook never throws into the server —
  /// an append failure nacks the checkin and is counted here.
  ///
  /// Gap healing: a failed record is queued and re-appended (in version
  /// order, ahead of newer records) on the next checkin, so a transient
  /// disk error never leaves a hole in the log — the WAL stays contiguous
  /// and every replayable prefix is a real server state. While records
  /// are queued their checkins are nacked; once the disk recovers, the
  /// queue drains and acks resume. If the queue exceeds `kMaxPending`
  /// the log is poisoned (permanently nacking) rather than dropping a
  /// record and corrupting recovery.
  void attach(core::Server& server);

  static constexpr std::size_t kMaxPending = 4096;

  /// Group-commit mode (the serving engine's applier thread). When
  /// enabled, the applied hook *buffers* each record and returns true
  /// instead of appending immediately; commit_group() then flushes the
  /// whole buffer as one framed WalBatch — under `--fsync always` that is
  /// one fsync per batch instead of one per checkin. The
  /// acked=>durable contract moves to the caller: acks for buffered
  /// records must not reach the wire until commit_group() returns true,
  /// and on false every ack in the batch must be rewritten to a nack
  /// (engine::EpollCrowdServer does exactly this).
  void set_group_commit(bool enabled);
  bool group_commit() const;

  /// Flush all buffered records — failure-queued ones first, then the
  /// current group, in version order — framed into one buffer and
  /// appended with one write per segment. Returns true when every
  /// buffered record is durable per the fsync policy; false on failure
  /// (all records of the group must then be nacked; unwritten ones are
  /// re-queued ahead of anything buffered since, so the log stays
  /// contiguous). Never throws. True and a no-op when nothing is
  /// buffered. The buffers are taken under a short lock and the write
  /// and fsync run outside it, so the applied hook may keep buffering
  /// the next batch on another thread while this one commits; commits
  /// themselves run one at a time.
  bool commit_group();

  /// Append an opaque record (kOpaqueRecordMagic payload — e.g. a
  /// multimodel parameter overwrite) at `seq`, which must be the server
  /// version the record produced. Follows the same durability contract
  /// as the applied-checkin hook: in group-commit mode the record is
  /// buffered for the next commit_group(); otherwise it is appended (and
  /// fsynced per policy) before returning. False on failure, after which
  /// the record sits in the gap-healing queue like any failed checkin
  /// append — the log never holes.
  bool log_record(std::uint64_t seq, net::Bytes payload);

  /// WAL namespace of instance `i` in a pool of `k` under `base`:
  /// k == 1 is `base` itself (byte-identical to the single-model layout,
  /// so `--model-instances 1` recovers and produces exactly the files the
  /// single-applier path does), otherwise `base`/instance-<i, 3 digits>.
  static std::string instance_dir(const std::string& base, std::size_t i,
                                  std::size_t k);

  /// Write an atomic snapshot of `server`'s current state, prune WAL
  /// segments it covers, and delete snapshots beyond keep_snapshots.
  /// Never throws: a failed snapshot leaves the WAL intact (recovery
  /// still works) and returns false.
  bool compact(const core::Server& server);

  /// Drain any failure-queued records, then fsync buffered WAL records
  /// (clean-shutdown path).
  void sync();

  /// "snapshot-<version>.bin" (zero-padded). Exposed so the replication
  /// follower can install a shipped checkpoint directly into a store
  /// directory before recovering from it.
  static std::string snapshot_filename(std::uint64_t version);

  const std::string& dir() const { return wal_.dir(); }
  const RecoveryInfo& recovery_info() const { return info_; }
  WriteAheadLog& wal() { return wal_; }
  long long append_failures() const { return append_failures_.value(); }
  long long compactions() const { return compactions_; }
  long long compaction_failures() const { return compaction_failures_; }

 private:
  std::string snapshot_path(std::uint64_t version) const;
  using Records = std::deque<std::pair<std::uint64_t, net::Bytes>>;

  /// Append everything in pending_, oldest first. Caller holds
  /// commit_mu_ and pending_mu_.
  void drain_pending_locked();
  /// commit_group() body. Caller holds commit_mu_ (not pending_mu_).
  bool commit_buffers();

  DurableStoreOptions opts_;
  WriteAheadLog wal_;
  bool recovered_ = false;
  RecoveryInfo info_;
  long long compactions_ = 0;
  long long compaction_failures_ = 0;

  /// Held by whatever writes the log (a commit, a non-group append, the
  /// shutdown sync), so writes stay in seq order. Taken before
  /// pending_mu_, never while holding it.
  std::mutex commit_mu_;
  /// Guards the buffers below; held only to move records in or out.
  mutable std::mutex pending_mu_;
  Records pending_;
  /// Records buffered by the hook in group-commit mode, awaiting
  /// commit_group(). Always newer than everything in pending_.
  Records group_buf_;
  bool group_commit_ = false;
  bool poisoned_ = false;

  obs::Counter& append_failures_;
  obs::Counter& snapshots_written_;
  obs::Counter& replayed_records_;
  obs::Histogram& snapshot_seconds_;
};

}  // namespace crowdml::store
