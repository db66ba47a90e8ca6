// Draw-and-discard multi-model serving: the discard step (Pihur et al.,
// "Differentially-Private 'Draw and Discard' Machine Learning",
// PAPERS.md).
//
// The server keeps k *independent* model instances, each served by its
// own lane of the epoll engine (engine/epoll_server.hpp): a server, a
// board, a queue, an applier thread and a WAL namespace under --wal-dir
// (store::DurableStore::instance_dir). The engine does the first two
// steps of the scheme; this file holds the third:
//
//   draw     a checkout serves a uniformly drawn lane's snapshot;
//   update   a checkin routes to a uniformly drawn lane's queue and is
//            applied by that lane's applier (w_i <- Pi_W[w_i - eta g^],
//            the usual Routine 2);
//   discard  the updated instance's parameters then overwrite a
//            uniformly drawn victim instance, discarding the victim's
//            previous values.
//
// The k appliers run in parallel: k WAL streams, k group-commit clocks,
// k boards. The only cross-instance traffic is the discard step, which
// travels as an *overwrite record* through the victim lane's own queue
// and applier: every mutation of instance j still happens on j's applier
// thread, in j's arrival order, and lands in j's WAL
// (store::kOpaqueRecordMagic envelope). That is what keeps per-instance
// recovery bit-reproducible — replaying instance j's log replays the same
// checkins and the same overwrites in the same order, byte-for-byte equal
// to a never-crashed witness.
//
// Batching deviation: the paper discards once per client update; a lane
// here draws one victim per applied checkin (so the discard distribution
// is per-update uniform, which the seeded-RNG tests check) but coalesces
// same-victim draws within one drained batch into a single overwrite
// carrying the batch-final parameters. Expected copies of any one update
// remain 1 and the stationary variance bound k·sigma^2/(2k-1) is
// unaffected; see docs/PRIVACY.md "Draw-and-discard amplification".
//
// k = 1 has no discard step: the only possible victim is the updated
// instance itself, so a one-model lane carries no DiscardRecords, makes
// no draw, and enqueues or logs no overwrite; its WAL namespace is the
// base directory — byte-identical state, WAL, and params frames to the
// single-model server (tests/multimodel_test.cpp proves it).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/server.hpp"
#include "engine/applier.hpp"
#include "engine/checkin_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/durable_store.hpp"

namespace crowdml::multimodel {

/// The discard step on the wire/in the WAL: a full parameter image that
/// replaces the victim instance's w. Serialized inside the
/// store::kOpaqueRecordMagic envelope:
///
///   [u32 0xFFFFFFFF][u32 kind=1][u64 source_instance][vector w]
///
/// so a checkin record (whose payload opens with a codec length prefix,
/// capped far below 0xFFFFFFFF) can never be confused with one.
struct OverwriteRecord {
  std::uint64_t source_instance = 0;
  linalg::Vector w;

  net::Bytes serialize() const;
  /// Throws net::CodecError on a malformed or non-overwrite payload.
  static OverwriteRecord deserialize(const net::Bytes& payload);
};

/// Make stores opened with `opts` replay overwrite records through
/// Server::overwrite_parameters (leaving version == seq, so recovery and
/// live apply agree). Any other opaque record goes to the replay handler
/// installed before this one.
void install_overwrite_replay(store::DurableStoreOptions& opts);

/// Instance `index` of a k-instance pool (k > 1), as its engine lane's
/// InternalRecords: it applies the overwrite records that arrive through
/// the lane's queue, and after each batch draws the discard victims owed
/// for the updates the batch applied.
class DiscardRecords final : public engine::InternalRecords {
 public:
  /// `seed` is the pool seed; this instance's discard stream is split
  /// from it by index. `store` (null = no durability) logs the
  /// overwrites applied here. Construct once `server` is recovered.
  /// `metrics` null = obs::default_registry().
  DiscardRecords(std::size_t index, std::size_t instances, std::uint64_t seed,
                 core::Server& server, store::DurableStore* store,
                 obs::MetricsRegistry* metrics = nullptr,
                 obs::TraceSink* trace = nullptr);
  DiscardRecords(const DiscardRecords&) = delete;
  DiscardRecords& operator=(const DiscardRecords&) = delete;

  bool apply(const net::Bytes& frame) override;
  void end_batch(const std::vector<engine::CheckinQueue*>& lanes) override;

  /// Victims this instance's stream drew, by victim instance: one per
  /// update it applied (self-draws included).
  std::vector<long long> discard_counts() const;
  /// Overwrites applied to victims, pool-wide (one registry counter).
  long long overwrites_applied() const { return overwrites_applied_.value(); }
  /// Discards dropped because the victim's queue was full, pool-wide.
  /// Equivalent to the update surviving one extra round — harmless, but
  /// counted.
  long long overwrites_dropped() const { return overwrites_dropped_.value(); }

 private:
  const std::size_t index_;
  core::Server& server_;
  store::DurableStore* const store_;
  obs::TraceSink* const trace_;
  /// Discard stream: deterministic per instance (seed split by index).
  std::uint64_t discard_state_;
  /// Server version at the end of the last batch, and overwrites applied
  /// since (applier thread only): the current version minus both is the
  /// number of client updates the batch applied.
  std::uint64_t seen_version_;
  std::uint64_t batch_overwrites_ = 0;
  std::vector<std::atomic<long long>> discards_;
  obs::Counter& overwrites_applied_;
  obs::Counter& overwrites_dropped_;
};

}  // namespace crowdml::multimodel
