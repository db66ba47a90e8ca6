// Draw-and-discard multi-model serving: k parallel appliers, one model
// instance each (Pihur et al., "Differentially-Private 'Draw and
// Discard' Machine Learning", PAPERS.md).
//
// The epoll engine's single applier thread is the last serialization
// point on the checkin path: every other layer scales out, but all
// updates still funnel through one thread, one WAL, one group-commit
// clock. The draw-and-discard scheme removes that ceiling by design
// rather than by sharding a shared model: the server keeps k
// *independent* model instances, and
//
//   draw     a checkout serves a uniformly drawn instance's snapshot
//            (each instance keeps its own pre-encoded Params frame on
//            its own ModelSnapshotBoard);
//   update   a checkin routes to a uniformly drawn instance's
//            CheckinQueue and is applied by that instance's applier
//            thread (w_i <- Pi_W[w_i - eta g^], the usual Routine 2);
//   discard  the updated instance's parameters then overwrite a
//            uniformly drawn victim instance, discarding the victim's
//            previous values.
//
// Because instances are independent, the k applier threads run truly in
// parallel — k WAL streams under one --wal-dir (see
// store::DurableStore::instance_dir), k group-commit clocks, k boards.
// The only cross-instance traffic is the discard step, which travels as
// an *overwrite record* through the victim's own queue and applier: every
// mutation of instance j still happens on j's applier thread, in j's
// arrival order, and lands in j's WAL (store::kOpaqueRecordMagic
// envelope). That is what keeps per-instance recovery bit-reproducible —
// replaying instance j's log replays the same checkins and the same
// overwrites in the same order, byte-for-byte equal to a never-crashed
// witness.
//
// Batching deviation: the paper discards once per client update; the
// applier here draws one victim per applied checkin (so the discard
// distribution is per-update uniform, which the seeded-RNG tests check)
// but coalesces same-victim draws within one drained batch into a single
// overwrite carrying the batch-final parameters. Expected copies of any
// one update remain 1 and the stationary variance bound k·sigma^2/(2k-1)
// is unaffected; see docs/PRIVACY.md "Draw-and-discard amplification".
//
// Each instance runs the engine's applier loop (engine/applier.hpp) over
// its own queue, server, store and board; the overwrite records and the
// discard draws reach that loop as the instance's engine::InternalRecords.
//
// k = 1 degenerates exactly to the single-applier engine path: draws and
// routes always pick instance 0, the only possible discard victim is the
// updated instance itself (so no draw is made and no overwrite is ever
// enqueued or logged), and the WAL namespace is the base directory —
// byte-identical state, WAL, and params frames (tests/multimodel_test.cpp
// proves it).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "engine/applier.hpp"
#include "engine/checkin_queue.hpp"
#include "engine/epoll_server.hpp"
#include "engine/snapshot_board.hpp"
#include "net/auth.hpp"
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

struct PoolOptions {
  /// k. 1 reproduces the single-applier path bit for bit.
  std::size_t instances = 1;
  /// Seed for the draw/route/discard streams (deterministic given call
  /// order; per-instance discard streams are split from it by instance).
  std::uint64_t seed = 1;
  /// Per-instance CheckinQueue bound; a full queue sheds at the engine.
  std::size_t checkin_queue_max = 1024;
  /// Most checkins one applier wakeup applies (and group-commits).
  std::size_t checkin_batch_max = 256;
  /// Base directory for the per-instance WAL namespaces ("" = no
  /// durability). See store::DurableStore::instance_dir for the layout.
  std::string wal_dir;
  /// Template for each instance's store (the pool installs its own
  /// opaque_replay handler; group commit is always enabled).
  store::DurableStoreOptions store;
  /// Pace steering with k > 1 (docs/SCALING.md "Pace steering"): builds
  /// instance `i`'s own Coordinator — k independent per-class clocks,
  /// each fed only by its own applier's commits and queue depth, each
  /// stamping consuming hints only on the checkin acks its instance
  /// applied. The clock lives where the commits it measures happen; a
  /// shared clock would meter k appliers' capacity through one bucket.
  /// Null = steering off (ack bytes unchanged). With a factory set,
  /// leave EngineConfig::coordinator null — checkout hints stay advisory
  /// and classless shed hints fall back to the engine's fixed retry.
  std::function<std::unique_ptr<coord::Coordinator>(std::size_t instance)>
      coordinator_factory;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = default_registry()
  obs::TraceSink* trace = nullptr;          ///< null disables
};

class ModelInstancePool {
 public:
  /// Builds instance `i`'s core::Server (own updater, own RNG stream).
  using ServerFactory =
      std::function<std::unique_ptr<core::Server>(std::size_t instance)>;

  /// Constructs the k instances and, when wal_dir is set, recovers each
  /// from its own WAL namespace (independent recovery clocks) and
  /// attaches its applied-checkin hook with group commit enabled.
  /// Appliers do not run until start(). Throws store::WalError on
  /// unrecoverable per-instance state.
  ModelInstancePool(net::AuthRegistry& auth, const ServerFactory& factory,
                    PoolOptions options);
  ~ModelInstancePool();

  ModelInstancePool(const ModelInstancePool&) = delete;
  ModelInstancePool& operator=(const ModelInstancePool&) = delete;

  /// Start the k applier threads (each publishes its board first).
  void start();

  /// Close every queue, drain (every admitted request still answers),
  /// join the appliers, and sync the stores. Idempotent.
  void shutdown();

  std::size_t instances() const { return slots_.size(); }

  /// Uniform draw for a checkout — wire into EngineConfig::draw_snapshot.
  /// An atomic splitmix64 draw plus one board pointer copy.
  std::shared_ptr<const engine::ModelSnapshot> draw_snapshot();

  /// Uniform routing for a checkin — wire into
  /// EngineConfig::route_checkin. False when the drawn instance's queue
  /// is full (the engine sheds with a retry_after nack).
  bool route_checkin(engine::CheckinWork&& work);

  core::Server& server(std::size_t i) { return *slots_[i]->server; }
  const core::Server& server(std::size_t i) const {
    return *slots_[i]->server;
  }
  const engine::ModelSnapshotBoard& board(std::size_t i) const {
    return slots_[i]->board;
  }
  /// Null when the pool has no durability layer.
  store::DurableStore* store(std::size_t i) {
    return slots_[i]->store.get();
  }
  /// Instance i's pacing clock; null when no coordinator_factory was set.
  coord::Coordinator* coordinator(std::size_t i) {
    return slots_[i]->coordinator.get();
  }

  /// Sum of instance versions (total updates applied pool-wide,
  /// overwrites included).
  std::uint64_t total_version() const;
  /// Every instance met its stopping criteria.
  bool stopped() const;

  // Seeded-draw accounting (the distribution sanity tests).
  std::vector<long long> draw_counts() const;     ///< checkout draws
  std::vector<long long> route_counts() const;    ///< checkin routes
  /// Discard victims drawn, one per applied update. With k = 1 the only
  /// possible victim is the updated instance itself, so none is drawn.
  std::vector<long long> discard_counts() const;
  long long overwrites_applied() const {
    return overwrites_applied_.value();
  }
  /// Discards dropped because the victim's queue was full. Equivalent to
  /// the update surviving one extra round — harmless, but counted.
  long long overwrites_dropped() const { return overwrites_dropped_.value(); }

 private:
  /// One instance. With k > 1 it is also its applier's InternalRecords:
  /// overwrite records arriving through its queue, and the discard draws
  /// owed for each batch it applies.
  struct Slot : engine::InternalRecords {
    ModelInstancePool* pool;
    std::size_t index = 0;
    std::unique_ptr<core::Server> server;
    std::unique_ptr<core::ProtocolServer> protocol;
    engine::ModelSnapshotBoard board;
    engine::CheckinQueue queue;
    std::unique_ptr<store::DurableStore> store;
    /// This instance's own pacing clock (null = steering off).
    std::unique_ptr<coord::Coordinator> coordinator;
    std::thread applier;
    /// Discard stream: deterministic per instance (seed split by index).
    std::uint64_t discard_state = 0;
    /// Server version at the end of the last batch, and overwrites
    /// applied since (applier thread only): the current version minus
    /// both is the number of client updates the batch applied.
    std::uint64_t seen_version = 0;
    std::uint64_t batch_overwrites = 0;
    std::atomic<long long> draws{0};
    std::atomic<long long> routes{0};
    std::atomic<long long> discards{0};

    Slot(ModelInstancePool* owner, std::size_t idx,
         std::unique_ptr<core::Server> srv, net::AuthRegistry& auth,
         const PoolOptions& opts);

    bool apply(const net::Bytes& frame) override;
    void end_batch() override;
  };

  /// Uniform instance index from the shared atomic stream.
  std::size_t draw_index(std::atomic<std::uint64_t>& state);

  PoolOptions opts_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> draw_state_;
  std::atomic<std::uint64_t> route_state_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  obs::Counter& overwrites_applied_;
  obs::Counter& overwrites_dropped_;
};

/// Wire the pool into an engine config: checkout draws, checkin routing,
/// and the shutdown drain. The engine's own applier/board/queue idle.
void wire_engine(ModelInstancePool& pool, engine::EngineConfig& config);

}  // namespace crowdml::multimodel
