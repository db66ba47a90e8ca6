#include "store/durable_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <vector>

#include "net/messages.hpp"
#include "obs/profile.hpp"

namespace crowdml::store {

namespace {

obs::MetricsRegistry& registry_of(const DurableStoreOptions& opts) {
  return opts.wal.metrics ? *opts.wal.metrics : obs::default_registry();
}

/// Parse "snapshot-<version>.bin"; nullopt for anything else.
std::optional<std::uint64_t> snapshot_version_of(const std::string& name) {
  constexpr const char* kPrefix = "snapshot-";
  constexpr const char* kSuffix = ".bin";
  if (name.rfind(kPrefix, 0) != 0) return std::nullopt;
  const std::size_t suffix_at = name.size() - 4;
  if (name.size() <= 9 + 4 || name.compare(suffix_at, 4, kSuffix) != 0)
    return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = 9; i < suffix_at; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return v;
}

/// All snapshots in `dir`, newest version first.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto v = snapshot_version_of(entry.path().filename().string());
    if (v) out.emplace_back(*v, entry.path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

bool is_opaque_record(const net::Bytes& payload) {
  if (payload.size() < 4) return false;
  return payload[0] == 0xFF && payload[1] == 0xFF && payload[2] == 0xFF &&
         payload[3] == 0xFF;
}

DurableStore::DurableStore(std::string dir, DurableStoreOptions options)
    : opts_(options),
      wal_(std::move(dir), opts_.wal),
      append_failures_(registry_of(opts_).counter(
          "crowdml_wal_append_failures_total",
          "Applied checkins nacked because their WAL append failed",
          obs::Provenance::kTransportEvent)),
      snapshots_written_(registry_of(opts_).counter(
          "crowdml_store_snapshots_total",
          "Atomic server-state snapshots written by compaction",
          obs::Provenance::kTransportEvent)),
      replayed_records_(registry_of(opts_).counter(
          "crowdml_store_replayed_records_total",
          "WAL records replayed into the server during recovery",
          obs::Provenance::kTransportEvent)),
      snapshot_seconds_(registry_of(opts_).histogram(
          "crowdml_store_snapshot_write_seconds",
          "One atomic snapshot write (serialize + temp file + fsync + rename)",
          obs::Provenance::kTiming)) {
  if (opts_.keep_snapshots < 1) opts_.keep_snapshots = 1;
}

std::string DurableStore::snapshot_filename(std::uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.bin",
                static_cast<unsigned long long>(version));
  return buf;
}

std::string DurableStore::snapshot_path(std::uint64_t version) const {
  return dir() + "/" + snapshot_filename(version);
}

DurableStore::RecoveryInfo DurableStore::recover(core::Server& server) {
  if (recovered_) throw WalError("recover called twice");
  if (opts_.trace)
    opts_.trace->event("recovery_started", {{"dir", dir()}});

  // Newest snapshot that deserializes and restores cleanly wins; corrupt
  // ones (e.g. a machine that died mid-write before this store existed)
  // are skipped in favor of older generations. A dimension mismatch is an
  // operator error (wrong --dim/--classes) and propagates.
  for (const auto& [version, path] : list_snapshots(dir())) {
    try {
      const core::ServerCheckpoint cp = core::ServerCheckpoint::load_file(path);
      server.restore(cp.w, cp.version, cp.device_stats);
      info_.snapshot_loaded = true;
      info_.snapshot_version = cp.version;
      break;
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      ++info_.corrupt_snapshots_skipped;
    }
  }

  // A server pre-restored from a legacy --checkpoint file may already be
  // ahead of (or instead of) the snapshot; never replay records it holds.
  const std::uint64_t from_seq =
      std::max(info_.snapshot_version, server.version());

  const ReplayStats replay = wal_.open_and_replay(
      from_seq, [&](std::uint64_t seq, const net::Bytes& payload) {
        if (is_opaque_record(payload)) {
          if (!opts_.opaque_replay)
            throw WalError("opaque record " + std::to_string(seq) +
                           " in a store with no opaque_replay handler "
                           "(multimodel log opened as single-model?)");
          opts_.opaque_replay(server, seq, payload);
          ++replayed_records_;
          if (server.version() != seq)
            throw WalError("replay diverged: opaque record " +
                           std::to_string(seq) +
                           " left the server at iteration " +
                           std::to_string(server.version()));
          return;
        }
        net::CheckinMessage msg;
        try {
          msg = net::CheckinMessage::deserialize(payload);
        } catch (const net::CodecError& e) {
          // CRC passed but the body does not parse: we logged garbage.
          throw WalError("undecodable checkin in wal record " +
                         std::to_string(seq) + " (" + e.what() + ")");
        }
        const net::AckMessage ack = server.handle_checkin(msg);
        if (!ack.ok) {
          ++info_.records_rejected;
          return;
        }
        ++replayed_records_;
        if (server.version() != seq)
          throw WalError("replay diverged: record " + std::to_string(seq) +
                         " left the server at iteration " +
                         std::to_string(server.version()));
      });

  info_.records_replayed = replay.records_applied - info_.records_rejected;
  info_.records_skipped = replay.records_skipped;
  info_.torn_tail_truncated = replay.torn_tail_truncated;
  info_.torn_bytes_dropped = replay.torn_bytes_dropped;
  info_.recovered_version = server.version();
  recovered_ = true;

  if (opts_.trace)
    opts_.trace->event(
        "recovery_complete",
        {{"snapshot_version", info_.snapshot_version},
         {"snapshot_loaded", info_.snapshot_loaded},
         {"records_replayed", info_.records_replayed},
         {"records_rejected", info_.records_rejected},
         {"torn_tail_truncated", info_.torn_tail_truncated},
         {"version", info_.recovered_version}});
  return info_;
}

void DurableStore::drain_pending_locked() {
  while (!pending_.empty()) {
    wal_.append(pending_.front().first, pending_.front().second);
    pending_.pop_front();
  }
}

void DurableStore::attach(core::Server& server) {
  if (!recovered_) throw WalError("attach before recover");
  server.set_applied_hook(
      [this](const net::CheckinMessage& msg, std::uint64_t version) {
        return log_record(version, msg.serialize());
      });
}

bool DurableStore::log_record(std::uint64_t seq, net::Bytes payload) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (poisoned_) return false;
    if (group_commit_) {
      // Buffer only; durability happens at commit_group(). The caller
      // is holding this record's ack until then.
      group_buf_.emplace_back(seq, std::move(payload));
      return true;
    }
  }
  // Queue-then-drain keeps the log contiguous across transient append
  // failures: the server's version advances even on a nack, so appending
  // a *newer* record before the failed one would punch a hole that
  // poisons replay. Every record here was applied in memory, so
  // persisting it late is faithful to the state a recovery must rebuild.
  std::lock_guard<std::mutex> commit(commit_mu_);
  std::lock_guard<std::mutex> lock(pending_mu_);
  if (poisoned_) return false;
  pending_.emplace_back(seq, std::move(payload));
  try {
    drain_pending_locked();
    return true;
  } catch (const WalError& e) {
    // The update stays applied in memory, but the device gets a nack:
    // "acked => durable" must never lie. The device treats it as a failed
    // cycle and never replays the checkin (Remark 1).
    ++append_failures_;
    if (pending_.size() > kMaxPending) {
      poisoned_ = true;
      pending_.clear();
      if (opts_.trace) opts_.trace->event("wal_poisoned", {{"round", seq}});
    } else if (opts_.trace) {
      opts_.trace->event("wal_append_failed", {{"round", seq},
                                               {"reason", e.what()},
                                               {"queued", pending_.size()}});
    }
    return false;
  }
}

std::string DurableStore::instance_dir(const std::string& base, std::size_t i,
                                       std::size_t k) {
  if (k <= 1) return base;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/instance-%03zu", i);
  return base + buf;
}

void DurableStore::set_group_commit(bool enabled) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  group_commit_ = enabled;
}

bool DurableStore::group_commit() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return group_commit_;
}

bool DurableStore::commit_group() {
  std::lock_guard<std::mutex> commit(commit_mu_);
  return commit_buffers();
}

bool DurableStore::commit_buffers() {
  // Take the buffers and release pending_mu_ before the write and fsync:
  // the applied hook keeps buffering the next batch meanwhile.
  Records records;
  std::size_t group_size = 0;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (poisoned_) {
      // The callers of a poisoned store nack everything anyway; drop the
      // buffer so it cannot grow without bound.
      append_failures_ += static_cast<long long>(group_buf_.size());
      group_buf_.clear();
      return false;
    }
    if (pending_.empty() && group_buf_.empty()) return true;
    records.swap(pending_);
    group_size = group_buf_.size();
    for (auto& rec : group_buf_) records.push_back(std::move(rec));
    group_buf_.clear();
  }
  WalBatch batch;
  std::size_t payload_bytes = 0;
  for (const auto& rec : records) payload_bytes += rec.second.size();
  batch.reserve(records.size(), payload_bytes);
  for (const auto& [seq, payload] : records) batch.add(seq, payload);
  try {
    wal_.append(batch);
    return true;
  } catch (const WalError& e) {
    // Every record of this group gets nacked by the caller (pending_
    // records were nacked when they were first queued), so nothing acked
    // escapes undurable. Records the append already wrote stay in the
    // log — nacked-but-durable is the safe direction — and must not be
    // re-appended (the seq check would poison the log); the rest go back
    // to pending_, ahead of anything buffered since, so the log stays
    // contiguous once the disk recovers.
    const std::uint64_t written_through = wal_.last_seq();
    while (!records.empty() && records.front().first <= written_through)
      records.pop_front();
    std::lock_guard<std::mutex> lock(pending_mu_);
    append_failures_ += static_cast<long long>(group_size);
    for (auto& rec : pending_) records.push_back(std::move(rec));
    pending_.swap(records);
    if (pending_.size() > kMaxPending) {
      poisoned_ = true;
      pending_.clear();
      if (opts_.trace) opts_.trace->event("wal_poisoned", {});
    } else if (opts_.trace) {
      opts_.trace->event("wal_append_failed",
                         {{"reason", e.what()},
                          {"queued", pending_.size()},
                          {"group", group_size}});
    }
    return false;
  }
}

void DurableStore::sync() {
  {
    std::lock_guard<std::mutex> commit(commit_mu_);
    bool poisoned;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      poisoned = poisoned_;
    }
    // Queued records were already nacked, and group-buffered ones were
    // never acked (their batch never committed), so a failure on this
    // shutdown path breaks no promise.
    if (!poisoned) commit_buffers();
  }
  wal_.sync();
}

bool DurableStore::compact(const core::Server& server) {
  if (!recovered_) return false;
  try {
    const core::ServerCheckpoint cp = core::checkpoint_server(server);
    {
      obs::TimedScope timer(snapshot_seconds_);
      cp.save_file(snapshot_path(cp.version));
    }
    ++snapshots_written_;
    ++compactions_;

    // Only after the new snapshot is durable: prune old snapshots, then
    // prune WAL segments covered by the *oldest kept* snapshot — if the
    // newest snapshot later turns out corrupt, recovery falls back to an
    // older one and still needs the intervening records.
    const auto snapshots = list_snapshots(dir());
    for (std::size_t i = opts_.keep_snapshots; i < snapshots.size(); ++i)
      std::remove(snapshots[i].second.c_str());
    const std::uint64_t oldest_kept =
        snapshots.empty()
            ? cp.version
            : snapshots[std::min(snapshots.size(), opts_.keep_snapshots) - 1]
                  .first;
    const std::size_t segments_removed = wal_.truncate_through(oldest_kept);
    if (opts_.trace)
      opts_.trace->event("compaction", {{"version", cp.version},
                                        {"segments_removed", segments_removed}});
    return true;
  } catch (const std::exception& e) {
    // A failed snapshot must not take the server down — the WAL is intact
    // and recovery still works; the operator sees the counter and trace.
    ++compaction_failures_;
    if (opts_.trace)
      opts_.trace->event("compaction_failed", {{"reason", e.what()}});
    return false;
  }
}

}  // namespace crowdml::store
