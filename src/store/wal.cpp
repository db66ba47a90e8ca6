#include "store/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "net/checksum.hpp"
#include "obs/profile.hpp"

namespace crowdml::store {

namespace {

constexpr std::uint32_t kWalMagic = 0x4C575243;  // "CRWL" little-endian
constexpr std::size_t kWalHeaderSize = 4 + 8 + 4;  // magic + seq + len
constexpr std::size_t kWalTrailerSize = 4;         // crc32

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// One record frame checked in place: magic, length and CRC verified,
/// payload not copied.
struct RecordView {
  std::uint64_t seq = 0;
  const std::uint8_t* payload = nullptr;
  std::uint32_t payload_len = 0;
  std::size_t size = 0;  ///< whole frame, header through CRC
};

enum class FrameCheck { kOk, kTruncated, kBad };

/// Check the frame at the start of `p[0, avail)`. kTruncated means the
/// bytes end inside the frame (an append in progress looks exactly like
/// this); kBad means they can never become a valid record. `*why` names
/// the failure.
FrameCheck check_frame(const std::uint8_t* p, std::size_t avail,
                       RecordView* view, const char** why) {
  if (avail < kWalHeaderSize) {
    *why = "wal record header truncated";
    return FrameCheck::kTruncated;
  }
  if (read_u32(p) != kWalMagic) {
    *why = "bad wal record magic";
    return FrameCheck::kBad;
  }
  const std::uint32_t len = read_u32(p + 12);
  if (len > net::kMaxFieldLength) {
    *why = "wal record length too large";
    return FrameCheck::kBad;
  }
  const std::size_t size = kWalHeaderSize + len + kWalTrailerSize;
  if (avail < size) {
    *why = "wal record body truncated";
    return FrameCheck::kTruncated;
  }
  if (read_u32(p + kWalHeaderSize + len) != net::crc32(p + 4, 8 + 4 + len)) {
    *why = "wal record crc mismatch";
    return FrameCheck::kBad;
  }
  view->seq = read_u64(p + 4);
  view->payload = p + kWalHeaderSize;
  view->payload_len = len;
  view->size = size;
  return FrameCheck::kOk;
}

std::string segment_name(std::uint64_t first_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(first_seq));
  return buf;
}

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

obs::MetricsRegistry& registry_of(const WalOptions& opts) {
  return opts.metrics ? *opts.metrics : obs::default_registry();
}

/// True when a complete record (valid magic + CRC) decodes anywhere at or
/// after `from`. A bad frame followed by such a record cannot be a torn
/// tail — a crash mid-append never writes anything after the tear — so it
/// must be treated as mid-file corruption.
bool later_record_decodes(const net::Bytes& bytes, std::size_t from) {
  for (std::size_t probe = from; probe + kWalHeaderSize + kWalTrailerSize <= bytes.size(); ++probe) {
    RecordView view;
    const char* why = nullptr;
    if (check_frame(bytes.data() + probe, bytes.size() - probe, &view, &why) ==
        FrameCheck::kOk)
      return true;
  }
  return false;
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kEveryN:
      return "every-N";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& spec, long long* every_n) {
  if (spec == "always") return FsyncPolicy::kAlways;
  if (spec == "never") return FsyncPolicy::kNever;
  if (spec.rfind("every-", 0) == 0) {
    const long long n = std::atoll(spec.c_str() + 6);
    if (n >= 1) {
      if (every_n) *every_n = n;
      return FsyncPolicy::kEveryN;
    }
  }
  throw std::invalid_argument(
      "fsync policy must be 'always', 'never', or 'every-N' (N >= 1), got '" +
      spec + "'");
}

net::Bytes encode_wal_record(std::uint64_t seq, const net::Bytes& payload) {
  net::Writer w;
  w.put_u32(kWalMagic);
  w.put_u64(seq);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  net::Bytes out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  // CRC over seq + len + payload (everything after the magic).
  const std::uint32_t crc = net::crc32(out.data() + 4, out.size() - 4);
  net::Writer tail;
  tail.put_u32(crc);
  const net::Bytes crc_bytes = tail.take();
  out.insert(out.end(), crc_bytes.begin(), crc_bytes.end());
  return out;
}

WalRecord decode_wal_record(const net::Bytes& buf, std::size_t* offset) {
  const std::size_t off = *offset;
  if (off > buf.size()) throw WalError("wal offset out of range");
  RecordView view;
  const char* why = nullptr;
  if (check_frame(buf.data() + off, buf.size() - off, &view, &why) !=
      FrameCheck::kOk)
    throw WalError(why);
  WalRecord rec;
  rec.seq = view.seq;
  rec.payload.assign(view.payload, view.payload + view.payload_len);
  *offset = off + view.size;
  return rec;
}

namespace {

/// Read-ahead granularity of the tailing reader: a caught-up follower's
/// read is bounded by the bytes left in the segment, a lagging one's by
/// its batch plus at most one chunk.
constexpr std::size_t kReadChunk = 64u << 10;

bool is_segment_name(const std::string& name) {
  return name.rfind("wal-", 0) == 0 && name.size() > 8 &&
         name.compare(name.size() - 4, 4, ".log") == 0;
}

std::uint64_t segment_first_seq(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  return std::strtoull(name.c_str() + 4, nullptr, 10);
}

/// Segment files in `dir`, sorted — zero-padded names sort lexically in
/// seq order. Empty when the directory cannot be listed.
std::vector<std::string> list_segments(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec), end;
  if (ec) return {};
  for (; it != end; it.increment(ec)) {
    if (ec) return {};
    if (is_segment_name(it->path().filename().string()))
      files.push_back(it->path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Forward reader over one segment file from a byte offset: preads it
/// in chunks and hands out frame-checked records, buffering only bytes
/// not yet handed out. Counts every byte it reads into `*bytes_read`.
class SegmentReader {
 public:
  enum class Step { kRecord, kEnd, kStop };

  SegmentReader(int fd, std::uint64_t offset, std::uint64_t* bytes_read)
      : fd_(fd), start_(offset), bytes_read_(bytes_read) {
    struct stat st {};
    size_ = ::fstat(fd_, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
  }
  ~SegmentReader() { ::close(fd_); }
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  /// kRecord: `*view` holds the next record (valid until the next call).
  /// kEnd: the segment ends cleanly at a record boundary.
  /// kStop: a partial record (append in progress), a bad frame or an
  /// I/O error — nothing past here is believable yet.
  Step next(RecordView* view) {
    for (;;) {
      const std::size_t avail = buf_.size() - head_;
      const char* why = nullptr;
      const FrameCheck c = check_frame(buf_.data() + head_, avail, view, &why);
      if (c == FrameCheck::kOk) {
        head_ += view->size;
        return Step::kRecord;
      }
      if (c == FrameCheck::kBad) return Step::kStop;
      const std::uint64_t end = start_ + buf_.size();
      if (end >= size_) return avail == 0 ? Step::kEnd : Step::kStop;
      // Whole frame when its length is known, else at least the header.
      const std::size_t need =
          avail >= kWalHeaderSize
              ? kWalHeaderSize + read_u32(buf_.data() + head_ + 12) +
                    kWalTrailerSize - avail
              : kWalHeaderSize - avail;
      if (!fill(std::min<std::uint64_t>(std::max(need, kReadChunk),
                                        size_ - end)))
        return Step::kStop;
    }
  }

  /// File offset just past the last record handed out.
  std::uint64_t offset() const { return start_ + head_; }

 private:
  bool fill(std::uint64_t want) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    start_ += head_;
    head_ = 0;
    const std::size_t old = buf_.size();
    buf_.resize(old + static_cast<std::size_t>(want));
    std::size_t got = 0;
    while (got < want) {
      const ssize_t n = ::pread(fd_, buf_.data() + old + got, want - got,
                                static_cast<off_t>(start_ + old + got));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    buf_.resize(old + got);
    if (bytes_read_) *bytes_read_ += got;
    if (got < want) size_ = start_ + buf_.size();  // shrank under us
    return got > 0;
  }

  int fd_;
  std::uint64_t start_;  ///< file offset of buf_[0]
  std::uint64_t size_ = 0;
  std::uint64_t* bytes_read_;
  net::Bytes buf_;
  std::size_t head_ = 0;  ///< buf_[head_] is the next unread byte
};

}  // namespace

std::vector<WalRecord> read_wal_records(const std::string& dir,
                                        std::uint64_t from_seq,
                                        std::size_t max_records, bool* gap,
                                        WalReadPos* pos,
                                        const WalReadLimits& limits) {
  if (gap) *gap = false;
  std::vector<WalRecord> out;
  if (max_records == 0 || from_seq >= limits.through_seq) return out;
  std::uint64_t* bytes_read = pos ? &pos->bytes_read : nullptr;

  // Resume at the caller's position when it sits just past from_seq and
  // its segment still exists; otherwise scan from the segment whose name
  // covers from_seq + 1. `later` lists the segments after the current
  // one, filled from a directory listing only when one is needed.
  std::string segment;
  std::uint64_t offset = 0;
  int fd = -1;
  bool have_prev = false;  ///< `prev` holds the last record's seq
  std::uint64_t prev = 0;
  std::vector<std::string> later;
  bool listed = false;
  if (pos && !pos->segment.empty() && pos->seq == from_seq) {
    fd = ::open(pos->segment.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      segment = pos->segment;
      offset = pos->offset;
      have_prev = true;
      prev = from_seq;
    }
  }
  if (fd < 0) {
    later = list_segments(dir);
    listed = true;
    // Whole segments at or below the cursor are skipped unread.
    std::size_t start = 0;
    for (std::size_t i = 1; i < later.size(); ++i)
      if (segment_first_seq(later[i]) <= from_seq + 1) start = i;
    later.erase(later.begin(),
                later.begin() + static_cast<std::ptrdiff_t>(start));
  }

  std::size_t payload_bytes = 0;
  std::size_t next_later = 0;
  for (;;) {
    while (fd < 0) {
      if (!listed) {
        // The resumed segment ended: what follows is in newer segments.
        const std::string current =
            std::filesystem::path(segment).filename().string();
        for (std::string& path : list_segments(dir))
          if (std::filesystem::path(path).filename().string() > current)
            later.push_back(std::move(path));
        listed = true;
      }
      if (next_later >= later.size()) return out;
      segment = later[next_later++];
      offset = 0;
      fd = ::open(segment.c_str(), O_RDONLY | O_CLOEXEC);
      // A segment that fails to open was compacted away after the
      // listing; the continuity check below catches what it held.
    }
    SegmentReader reader(fd, offset, bytes_read);
    fd = -1;
    RecordView view;
    for (;;) {
      const SegmentReader::Step step = reader.next(&view);
      if (step == SegmentReader::Step::kEnd) break;
      if (step == SegmentReader::Step::kStop) return out;
      // Records must continue the cursor without a hole. A first record
      // past from_seq + 1 means compaction pruned what the caller needs.
      const bool continues =
          have_prev ? view.seq == prev + 1 : view.seq <= from_seq + 1;
      if (!continues) {
        if (gap && out.empty() && view.seq > from_seq + 1) *gap = true;
        return out;
      }
      have_prev = true;
      prev = view.seq;
      if (view.seq > from_seq) {
        if (view.seq > limits.through_seq) return out;
        if (!out.empty() &&
            payload_bytes + view.payload_len > limits.max_payload_bytes)
          return out;
        payload_bytes += view.payload_len;
        WalRecord rec;
        rec.seq = view.seq;
        rec.payload.assign(view.payload, view.payload + view.payload_len);
        out.push_back(std::move(rec));
      }
      if (pos && view.seq >= from_seq) {
        pos->segment = segment;
        pos->offset = reader.offset();
        pos->seq = view.seq;
      }
      if (out.size() >= max_records || view.seq == limits.through_seq)
        return out;
    }
  }
}

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions options)
    : dir_(std::move(dir)),
      opts_(options),
      append_seconds_(registry_of(opts_).histogram(
          "crowdml_wal_append_seconds",
          "One WAL append: record framing + write, including the fsync "
          "when the policy requires one",
          obs::Provenance::kTiming)),
      fsync_seconds_(registry_of(opts_).histogram(
          "crowdml_wal_fsync_seconds", "One fsync of the active WAL segment",
          obs::Provenance::kTiming)),
      records_total_(registry_of(opts_).counter(
          "crowdml_wal_records_total",
          "Sanitized checkin records appended to the write-ahead log",
          obs::Provenance::kTransportEvent)),
      bytes_total_(registry_of(opts_).counter(
          "crowdml_wal_bytes_total", "Bytes appended to the write-ahead log",
          obs::Provenance::kTransportEvent)),
      rotations_total_(registry_of(opts_).counter(
          "crowdml_wal_rotations_total", "WAL segment rotations",
          obs::Provenance::kTransportEvent)),
      torn_truncations_total_(registry_of(opts_).counter(
          "crowdml_wal_torn_truncations_total",
          "Torn WAL tails truncated during recovery",
          obs::Provenance::kTransportEvent)) {
  if (opts_.fsync_every < 1) opts_.fsync_every = 1;
  if (opts_.segment_max_bytes == 0) opts_.segment_max_bytes = 1;
  try {
    std::filesystem::create_directories(dir_);
  } catch (const std::filesystem::filesystem_error& e) {
    throw WalError(std::string("cannot create wal directory: ") + e.what());
  }
}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

ReplayStats WriteAheadLog::open_and_replay(std::uint64_t from_seq,
                                           const Apply& apply) {
  std::lock_guard lock(mu_);
  if (opened_) throw WalError("open_and_replay called twice");

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (is_segment_name(entry.path().filename().string()))
      files.push_back(entry.path().string());
  }
  // Zero-padded names sort lexically in seq order.
  std::sort(files.begin(), files.end());

  ReplayStats stats;
  std::uint64_t prev_seq = 0;
  bool have_prev = false;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& path = files[i];
    const bool final_segment = (i + 1 == files.size());
    net::Bytes bytes;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      if (!f) throw WalError(errno_message("cannot read wal segment " + path));
      std::fseek(f, 0, SEEK_END);
      const long size = std::ftell(f);
      std::fseek(f, 0, SEEK_SET);
      bytes.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
      if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) !=
                                bytes.size()) {
        std::fclose(f);
        throw WalError("short read on wal segment " + path);
      }
      std::fclose(f);
    }

    std::size_t offset = 0;
    Segment seg;
    seg.path = path;
    bool seg_any = false;
    while (offset < bytes.size()) {
      const std::size_t record_start = offset;
      WalRecord rec;
      try {
        rec = decode_wal_record(bytes, &offset);
      } catch (const WalError& e) {
        if (!final_segment)
          throw WalError("corrupt record in sealed wal segment " + path +
                         " (" + e.what() + ")");
        // Only a frame that extends to EOF can be a torn tail. A decodable
        // record after the bad frame means the damage is mid-file (a bit
        // flip, not a crash mid-append); truncating there would silently
        // drop records that were fsynced and acked.
        if (later_record_decodes(bytes, record_start + 1))
          throw WalError("corrupt record mid-segment in wal segment " + path +
                         " (" + e.what() +
                         "); decodable records follow it, refusing to drop "
                         "them");
        // Torn tail: a crash mid-append left a partial record. Truncate at
        // the last good byte and recover cleanly.
        if (::truncate(path.c_str(), static_cast<off_t>(record_start)) != 0)
          throw WalError(errno_message("cannot truncate torn wal tail " + path));
        stats.torn_tail_truncated = true;
        stats.torn_bytes_dropped += bytes.size() - record_start;
        ++torn_truncations_total_;
        bytes.resize(record_start);
        break;
      }
      if (have_prev && rec.seq != prev_seq + 1)
        throw WalError("wal sequence gap: record " + std::to_string(rec.seq) +
                       " follows " + std::to_string(prev_seq));
      if (!have_prev && rec.seq > from_seq + 1)
        // The oldest surviving record must continue the snapshot exactly —
        // anything else means segments the snapshot needed were lost.
        throw WalError("wal starts at record " + std::to_string(rec.seq) +
                       " but the snapshot covers only " +
                       std::to_string(from_seq));
      if (rec.seq > from_seq) {
        apply(rec.seq, rec.payload);
        ++stats.records_applied;
      } else {
        ++stats.records_skipped;
      }
      prev_seq = rec.seq;
      have_prev = true;
      if (!seg_any) seg.first_seq = rec.seq;
      seg.last_seq = rec.seq;
      seg_any = true;
    }
    ++stats.segments_scanned;

    if (!seg_any) {
      // No valid record at all. In the final segment that is a tail torn
      // before the first append completed — delete it so the next append
      // can recreate a segment at the right seq. Anywhere else it is a gap.
      if (!final_segment)
        throw WalError("empty sealed wal segment " + path);
      std::remove(path.c_str());
      fsync_dir();
      continue;
    }
    if (final_segment) {
      fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
      if (fd_ < 0)
        throw WalError(errno_message("cannot reopen wal segment " + path));
      active_ = seg;
      active_bytes_ = bytes.size();
      active_has_records_ = true;
    } else {
      sealed_.push_back(seg);
    }
  }
  stats.last_seq = prev_seq;
  last_seq_ = prev_seq;
  opened_ = true;
  return stats;
}

void WriteAheadLog::open_segment_locked(std::uint64_t first_seq,
                                        bool append_to_existing) {
  const std::string path = dir_ + "/" + segment_name(first_seq);
  const int flags =
      O_WRONLY | O_CREAT | O_APPEND | (append_to_existing ? 0 : O_EXCL);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw WalError(errno_message("cannot create wal segment " + path));
  active_ = Segment{path, first_seq, first_seq};
  active_bytes_ = 0;
  active_has_records_ = false;
  fsync_dir();  // make the new file name durable
}

void WriteAheadLog::close_active_locked(bool fsync_it) {
  if (fd_ < 0) return;
  if (fsync_it && unsynced_ > 0) fsync_active_locked();
  ::close(fd_);
  fd_ = -1;
  if (active_has_records_) sealed_.push_back(active_);
  active_ = Segment{};
  active_bytes_ = 0;
  active_has_records_ = false;
}

void WriteAheadLog::write_all_locked(const net::Bytes& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string reason = errno_message("wal write failed");
      // Roll the partial record back to the pre-append size. Junk left
      // here would sit *before* whatever a retried append (O_APPEND) puts
      // after it, and the next recovery would then truncate at the junk —
      // dropping fsynced, acked records that followed it.
      if (written == 0 ||
          ::ftruncate(fd_, static_cast<off_t>(active_bytes_)) == 0)
        throw WalError(reason);
      // Rollback impossible: refuse all further appends so nothing ever
      // lands after the junk. It stays at EOF of the final segment, which
      // the next recovery truncates as a genuine torn tail.
      broken_ = true;
      throw WalError(reason + "; rollback ftruncate failed (" +
                     std::strerror(errno) + "), wal closed to appends");
    }
    written += static_cast<std::size_t>(n);
  }
}

void WriteAheadLog::fsync_active_locked() {
  obs::TimedScope timer(fsync_seconds_);
  if (::fsync(fd_) != 0) throw WalError(errno_message("wal fsync failed"));
  unsynced_ = 0;
  ++fsyncs_;
}

void WriteAheadLog::fsync_dir() const {
  const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;  // best-effort: record data itself is fsync-governed
  ::fsync(dfd);
  ::close(dfd);
}

void WriteAheadLog::append_one_locked(std::uint64_t seq,
                                      const net::Bytes& payload) {
  const net::Bytes record = encode_wal_record(seq, payload);
  if (!opened_) throw WalError("append before open_and_replay");
  if (broken_)
    throw WalError(
        "wal closed to appends: an earlier partial write could not be "
        "rolled back");
  if (seq <= last_seq_)
    throw WalError("non-monotonic wal seq " + std::to_string(seq) +
                   " (last " + std::to_string(last_seq_) + ")");
  if (fd_ >= 0 && active_bytes_ >= opts_.segment_max_bytes) {
    close_active_locked(/*fsync_it=*/opts_.fsync != FsyncPolicy::kNever);
    ++rotations_;
    ++rotations_total_;
  }
  if (fd_ < 0) open_segment_locked(seq, /*append_to_existing=*/false);

  write_all_locked(record);
  active_bytes_ += record.size();
  if (!active_has_records_) active_.first_seq = seq;
  active_has_records_ = true;
  active_.last_seq = seq;
  last_seq_ = seq;
  ++appended_;
  ++unsynced_;
  ++records_total_;
  bytes_total_ += static_cast<long long>(record.size());
}

void WriteAheadLog::policy_fsync_locked() {
  switch (opts_.fsync) {
    case FsyncPolicy::kAlways:
      if (unsynced_ > 0) fsync_active_locked();
      break;
    case FsyncPolicy::kEveryN:
      if (unsynced_ >= opts_.fsync_every) fsync_active_locked();
      break;
    case FsyncPolicy::kNever:
      break;
  }
}

void WriteAheadLog::append(std::uint64_t seq, const net::Bytes& payload) {
  obs::TimedScope timer(append_seconds_);
  std::lock_guard lock(mu_);
  append_one_locked(seq, payload);
  policy_fsync_locked();
}

void WriteAheadLog::append_batch(const std::vector<WalRecord>& records) {
  if (records.empty()) return;
  obs::TimedScope timer(append_seconds_);
  std::lock_guard lock(mu_);
  // All writes first, one policy fsync at the end: under kAlways a batch
  // of N records costs one fsync instead of N — the group-commit win.
  for (const WalRecord& r : records) append_one_locked(r.seq, r.payload);
  policy_fsync_locked();
}

void WriteAheadLog::sync() {
  std::lock_guard lock(mu_);
  if (fd_ >= 0 && unsynced_ > 0) fsync_active_locked();
}

std::size_t WriteAheadLog::truncate_through(std::uint64_t seq) {
  std::lock_guard lock(mu_);
  std::size_t removed = 0;
  for (auto it = sealed_.begin(); it != sealed_.end();) {
    if (it->last_seq <= seq && std::remove(it->path.c_str()) == 0) {
      ++removed;
      it = sealed_.erase(it);
    } else {
      ++it;
    }
  }
  if (removed > 0) fsync_dir();
  return removed;
}

std::uint64_t WriteAheadLog::last_seq() const {
  std::lock_guard lock(mu_);
  return last_seq_;
}

long long WriteAheadLog::appended_records() const {
  std::lock_guard lock(mu_);
  return appended_;
}

long long WriteAheadLog::fsyncs() const {
  std::lock_guard lock(mu_);
  return fsyncs_;
}

long long WriteAheadLog::rotations() const {
  std::lock_guard lock(mu_);
  return rotations_;
}

std::size_t WriteAheadLog::segment_count() const {
  std::lock_guard lock(mu_);
  return sealed_.size() + (fd_ >= 0 ? 1u : 0u);
}

}  // namespace crowdml::store
