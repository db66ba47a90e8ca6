// Write-ahead log of sanitized checkin records.
//
// The paper's prototype persists server state in MySQL so the crowd's
// accumulated progress survives restarts (Section V); this is the
// reproduction's equivalent, built for a parameter server: an append-only
// log whose records are the post-sanitization checkin payloads the server
// already held. Each record wraps a `net::codec`-encoded body in a
// CRC-framed envelope mirroring the wire frame layout, so WAL contents
// are exactly the eps-DP data of Eqs. 10-12 — persisting them adds no
// privacy surface (same argument as core/checkpoint.hpp).
//
// Layout of one record (all integers little-endian, via net::codec):
//
//   [magic "CRWL" 4B][seq u64][payload_len u32][payload][crc32]
//
// with the CRC-32 (IEEE) computed over seq + payload_len + payload.
// `seq` is the server iteration the record produced (strictly
// increasing), which is what lets recovery skip records a snapshot
// already covers.
//
// Segments: the log is a directory of `wal-<first_seq>.log` files; the
// active segment rotates once it exceeds `segment_max_bytes`. Sealed
// segments are immutable and can be deleted wholesale once a snapshot
// covers their last record (`truncate_through`).
//
// Durability is governed by FsyncPolicy:
//   kAlways — fsync after every append (acked => on disk);
//   kEveryN — fsync once per `fsync_every` appends (bounded loss window);
//   kNever  — never fsync; the OS flushes when it pleases (crash of the
//             process alone loses nothing, losing power may).
//
// Recovery (`open_and_replay`) scans segments in order and tolerates a
// *torn tail*: a bad frame in the final segment that extends to EOF —
// exactly what a crash mid-append leaves behind — truncates the file at
// the last good record and recovery completes cleanly. A bad record
// anywhere else (a sealed segment, or a frame in the final segment that
// a decodable record still follows) is real corruption and throws
// WalError; refusing to guess beats silently dropping applied updates.
// Appends uphold the same invariant from the other side: a failed write
// ftruncates its partial record away so a retry can never append valid
// records after junk, and if even that rollback fails the log refuses
// all further appends, leaving the junk at EOF where the torn-tail rule
// handles it.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"

namespace crowdml::store {

class WalError : public std::runtime_error {
 public:
  explicit WalError(const std::string& what) : std::runtime_error(what) {}
};

enum class FsyncPolicy { kAlways, kEveryN, kNever };

const char* fsync_policy_name(FsyncPolicy p);

/// Parse "always", "never", or "every-N" (N >= 1, e.g. "every-64").
/// On "every-N", `*every_n` receives N. Throws std::invalid_argument.
FsyncPolicy parse_fsync_policy(const std::string& spec, long long* every_n);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryN;
  long long fsync_every = 64;  ///< for kEveryN
  std::size_t segment_max_bytes = 4u << 20;
  /// Registry for append/fsync latency histograms and record/byte/rotation
  /// counters (null = obs::default_registry()). Must outlive the log.
  obs::MetricsRegistry* metrics = nullptr;
};

struct WalRecord {
  std::uint64_t seq = 0;
  net::Bytes payload;
};

/// Encode one record (exposed for tests and fuzzing).
net::Bytes encode_wal_record(std::uint64_t seq, const net::Bytes& payload);

/// Records framed back to back in one buffer, so a group commit costs one
/// `write` per segment it touches instead of one per record. The bytes
/// are exactly the records' encode_wal_record frames, concatenated.
class WalBatch {
 public:
  /// Reserve room for `records` frames carrying `payload_bytes` in all.
  void reserve(std::size_t records, std::size_t payload_bytes);
  /// Frame `payload` as record `seq` onto the end of the batch.
  void add(std::uint64_t seq, const net::Bytes& payload);
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

 private:
  friend class WriteAheadLog;
  struct Entry {
    std::uint64_t seq;
    std::size_t end;  ///< offset just past this record's frame in bytes_
  };
  net::Bytes bytes_;
  std::vector<Entry> records_;
};

/// Decode the record starting at `buf[*offset]`, advancing `*offset` past
/// it on success. Throws WalError on truncation, bad magic, an absurd
/// length, or CRC mismatch; `*offset` is left unchanged so the caller
/// knows the exact byte where the log stopped being believable.
WalRecord decode_wal_record(const net::Bytes& buf, std::size_t* offset);

/// A tailing reader's place in the log, kept by the caller between
/// read_wal_records calls: the segment file holding record `seq` and the
/// byte offset just past it. A reader that resumes from it reads only
/// the bytes after its last record instead of rescanning the segment.
struct WalReadPos {
  std::string segment;       ///< segment path; "" until a read sets it
  std::uint64_t offset = 0;  ///< byte just past record `seq` in `segment`
  std::uint64_t seq = 0;     ///< last record this position consumed
  /// Segment bytes read through this position so far (cumulative).
  std::uint64_t bytes_read = 0;
};

/// Where a read_wal_records call stops besides `max_records`.
struct WalReadLimits {
  /// Return no record past this seq (the replication shipper's committed
  /// watermark: later records may still be mid-group-commit).
  std::uint64_t through_seq = UINT64_MAX;
  /// Stop before the record that would push the returned payload bytes
  /// past this; the first record is always returned, so a read makes
  /// progress whatever its size.
  std::size_t max_payload_bytes = SIZE_MAX;
};

/// Read up to `max_records` records with seq > from_seq from the segment
/// files in `dir`, in seq order — the replication shipper's view of the
/// log (the disk IS the replication buffer; nothing is queued in memory
/// for slow followers). Every returned record is CRC-checked.
///
/// With `pos` whose seq equals from_seq and whose segment still exists,
/// the read resumes at pos's byte offset and reads only what it returns
/// (plus at most one 64 KiB read-ahead chunk); it lists the directory
/// only when that segment ends and the next record is in a newer one.
/// Otherwise — no position yet, a position for another seq (a new
/// session, or after a snapshot), or its segment deleted by compaction —
/// it scans: it starts at the segment whose name covers from_seq + 1 and
/// frame-checks the records at or below from_seq without copying them.
/// Either way `pos` is left just past the last record returned (or past
/// from_seq's record when none is returned), and its bytes_read grows by
/// the bytes this call read.
///
/// Safe to call while another thread appends or compacts: a partial
/// record at the tail (an append in progress, or a torn tail recovery
/// has not yet trimmed) ends the read instead of throwing, and leaves
/// `pos` before it. Sets `*gap` (may be null) when the record after
/// from_seq no longer exists because the oldest surviving record already
/// exceeds from_seq + 1 — compaction pruned history the caller needs, so
/// it must catch up from a snapshot instead.
std::vector<WalRecord> read_wal_records(const std::string& dir,
                                        std::uint64_t from_seq,
                                        std::size_t max_records,
                                        bool* gap = nullptr,
                                        WalReadPos* pos = nullptr,
                                        const WalReadLimits& limits = {});

struct ReplayStats {
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;  ///< seq <= from_seq (snapshot covers)
  std::uint64_t last_seq = 0;         ///< 0 when the log is empty
  std::size_t segments_scanned = 0;
  bool torn_tail_truncated = false;
  std::size_t torn_bytes_dropped = 0;
};

/// The log itself. Thread-safe: appends, sync, and truncate_through may
/// race (the parameter server appends from connection workers while the
/// main thread compacts); open_and_replay must happen-before any append.
class WriteAheadLog {
 public:
  /// Creates `dir` if missing. No file is touched until open_and_replay
  /// (recovery) or the first append.
  WriteAheadLog(std::string dir, WalOptions options);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  using Apply = std::function<void(std::uint64_t seq, const net::Bytes& payload)>;

  /// Scan segments in seq order, call `apply` for every record with
  /// seq > from_seq, truncate a torn tail (final segment only), and leave
  /// the log positioned for appending. Must be called exactly once,
  /// before any append; `apply` runs without the log's lock held. Throws
  /// WalError on mid-log corruption.
  ReplayStats open_and_replay(std::uint64_t from_seq, const Apply& apply);

  /// Append one record and make it durable per the fsync policy before
  /// returning (a batch of one). `seq` must exceed every previously appended/replayed seq.
  /// Throws WalError on I/O failure or a non-monotonic seq.
  void append(std::uint64_t seq, const net::Bytes& payload);

  /// Group commit: append every record of `batch` (in order, seqs
  /// strictly increasing) with one `write` per segment the batch touches,
  /// then fsync ONCE per the policy — under kAlways the whole batch costs
  /// a single fsync, which is what makes batched checkin application
  /// cheap (see engine::EpollCrowdServer). Segments rotate on the same
  /// record boundaries as record-at-a-time appends, so the files are
  /// byte-identical. A record whose seq does not exceed its
  /// predecessor's ends the batch: the records before it are written,
  /// then WalError is thrown. A failed write rolls its segment back to
  /// the size it had before that write, so none of that write's records
  /// land; last_seq() advances only past written records, which is how
  /// the caller tells the written prefix from the rest.
  void append(const WalBatch& batch);

  /// Force an fsync of the active segment (no-op when nothing is unsynced).
  void sync();

  /// Delete sealed segments whose records are all <= seq (the active
  /// segment is never deleted). Returns how many files were removed.
  std::size_t truncate_through(std::uint64_t seq);

  const std::string& dir() const { return dir_; }
  std::uint64_t last_seq() const;
  long long appended_records() const;
  long long fsyncs() const;
  long long rotations() const;
  std::size_t segment_count() const;  ///< sealed + active, on disk

 private:
  struct Segment {
    std::string path;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
  };

  void open_segment_locked(std::uint64_t first_seq, bool append_to_existing);
  /// Write the batch's first `count` records — rotating before any
  /// record that finds the active segment full — without any fsync.
  void write_records_locked(const WalBatch& batch, std::size_t count);
  void policy_fsync_locked();
  void close_active_locked(bool fsync_it);
  void write_all_locked(const std::uint8_t* data, std::size_t size);
  void fsync_active_locked();
  void fsync_dir() const;  ///< make renames/creates in dir_ durable

  std::string dir_;
  WalOptions opts_;

  mutable std::mutex mu_;
  bool opened_ = false;
  bool broken_ = false;  ///< partial write left junk we could not roll back
  int fd_ = -1;  ///< active segment, -1 until first append needs it
  Segment active_;
  std::size_t active_bytes_ = 0;
  bool active_has_records_ = false;
  std::vector<Segment> sealed_;
  std::uint64_t last_seq_ = 0;
  long long unsynced_ = 0;
  long long appended_ = 0;
  long long fsyncs_ = 0;
  long long rotations_ = 0;

  obs::Histogram& append_seconds_;
  obs::Histogram& fsync_seconds_;
  obs::Counter& records_total_;
  obs::Counter& bytes_total_;
  obs::Counter& rotations_total_;
  obs::Counter& torn_truncations_total_;
};

}  // namespace crowdml::store
