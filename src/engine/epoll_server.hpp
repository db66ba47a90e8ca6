// The serving engine: epoll event loops + snapshot checkouts + batched
// checkin application with group commit.
//
// The protocol's workload has a known shape (Section IV-B: checkouts
// vastly outnumber and out-size checkins; checkins are small but must
// serialize), and the engine is built around it:
//
//   - a configurable pool of epoll EventLoops multiplexes all device
//     connections on a few threads (nonblocking frame state machines
//     reusing the net:: codec and deadline semantics) — no OS thread per
//     device;
//   - checkouts are served on the I/O thread from a ModelSnapshotBoard's
//     pre-encoded frame — no state lock, no serialization work, no
//     contention with updates;
//   - checkins flow through a bounded MPSC CheckinQueue to an applier
//     thread (engine/applier.hpp), which applies them in arrival order
//     and hands each batch to its committer thread, which group-commits
//     the batch's WAL records with a single fsync
//     (store::DurableStore::commit_group) while the applier applies the
//     next batch; once the commit returned the applier republishes the
//     board and only then releases the acks — acked => durable still
//     holds;
//   - admission control: a full queue sheds with a machine-readable
//     "retry_after_ms" nack (net::retry_after_reason) that
//     ReconnectingDeviceSession honors as its next delay, so overload
//     degrades into scheduled retries instead of timeout storms.
//
// The engine serves k model instances, one *lane* each: a lane is a
// core::Server with its ProtocolServer, board, queue, applier thread,
// commit hook, coordinator and optional InternalRecords. k = 1 is the
// single-model server. At k > 1 (draw-and-discard, src/multimodel/) each
// authenticated checkout is served from a uniformly drawn lane's board,
// and every other frame goes to a uniformly drawn lane's queue; the two
// draws come from seeded SplitMix64 streams, and k = 1 makes no draw.
// The lane a frame went to answers it, its coordinator's hints included.
//
// For one connection sending frames in order, every response byte and
// the final (w, t) equal what core::ProtocolServer produces handling the
// same frames directly (EngineParity in tests/engine_test.cpp). See
// docs/SCALING.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.hpp"
#include "core/monitor.hpp"
#include "core/protocol.hpp"
#include "engine/applier.hpp"
#include "engine/checkin_queue.hpp"
#include "engine/event_loop.hpp"
#include "engine/snapshot_board.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crowdml::engine {

struct EngineConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral
  /// epoll I/O threads. One is right for most deployments (the loops are
  /// never CPU-bound before the applier is); more shards accepted
  /// connections round-robin.
  std::size_t io_threads = 1;
  /// Connection cap across all loops; beyond it, connections get a
  /// capacity nack with a retry hint and are closed.
  std::size_t max_connections = 256;
  int capacity_retry_after_ms = 250;
  /// Close connections silent for this long (<= 0 disables; counted as
  /// idle_closed). Devices reconnect on their next cycle.
  int idle_timeout_ms = -1;
  /// Bounded checkin queue: when full, requests are shed with a nack
  /// carrying this retry hint.
  std::size_t checkin_queue_max = 1024;
  int queue_retry_after_ms = 50;
  /// Most checkins applied (and group-committed) per batch.
  std::size_t checkin_batch_max = 256;
  /// Group-commit hook, called once per batch after every update of the
  /// batch was applied, from the applier's committer thread, one call at
  /// a time (the next batch may be applying meanwhile); returning false
  /// nacks the whole batch's acks ("durability failure"). Wire
  /// store::DurableStore::commit_group here (after
  /// set_group_commit(true)); leave null when no durability layer is
  /// attached (or it appends per record), and the applier then releases
  /// each batch itself, with no committer thread. The one-lane
  /// constructor's lane commits with it; with the lanes constructor each
  /// lane brings its own (LaneConfig) and this one is unused.
  std::function<bool()> group_commit;
  /// Follower mode (read replica): when set to the leader's device
  /// address ("host:port"), checkins are refused on the I/O thread with
  /// net::not_leader_reason(checkin_redirect) — only the leader mutates
  /// the model — and the applier never publishes the snapshot board;
  /// the replication thread owns publication via republish(). Empty =
  /// normal leader behavior. Changeable at runtime via
  /// set_checkin_redirect (failover retargeting / promotion).
  std::string checkin_redirect;
  /// Bounded-staleness follower reads: when set, called on the I/O
  /// thread per checkout for the replica's applied-seq lag behind the
  /// leader's committed watermark; a lag above max_read_lag nacks the
  /// checkout with a parseable retry hint instead of serving arbitrarily
  /// stale parameters. Null or max_read_lag == 0 disables the check.
  std::function<std::uint64_t()> read_lag;
  std::uint64_t max_read_lag = 0;
  int stale_retry_after_ms = 100;
  /// Sharded deployments (src/shard/; docs/SHARDING.md): maps a
  /// checkin's device id to the owning shard's device address when that
  /// shard is NOT this server, nullopt when the device is ours. Called
  /// on the I/O thread before the checkin is enqueued, so — exactly
  /// like the follower redirect below — the "wrong shard;
  /// shard=<addr>" nack is issued before any application and the
  /// device can safely replay the same checkin at the target.
  /// Checkouts are still served locally (a mis-routed read is harmless
  /// and the roster may be mid-rollout; the checkin is what must land
  /// on the owner). Null = unsharded: no device-facing frame changes.
  std::function<std::optional<std::string>(std::uint64_t)> shard_route;
  /// Merge-plane handler (shard::ShardService): frame types 14 and 16
  /// (ShardPull/ShardMergePush) dispatch to it on the applier thread, so
  /// a merge overwrite serializes with checkins and rides the same
  /// group-commit barrier. Null (the default) nacks those frames with
  /// "sharding disabled". Must outlive the engine.
  core::ShardHandler* shard = nullptr;
  /// Pace steering (src/coord/; docs/SCALING.md "Pace steering"). When
  /// set, every checkout response and checkin ack carries a positive
  /// next_checkin_hint_ms (advisory on checkouts, slot-consuming on
  /// checkin acks), the applier feeds the policy its queue depth and
  /// apply/commit timings, and a shed checkin's retry_after hint is
  /// stretched to the class's next reserved slot — shedding becomes the
  /// last resort behind steering. Null (the default) disables steering
  /// entirely: ack and params frames are bit-identical to the
  /// pre-coordinator path. Must outlive the engine. Like group_commit,
  /// this is the one-lane constructor's lane's; with the lanes
  /// constructor each lane brings its own (LaneConfig).
  coord::Coordinator* coordinator = nullptr;
  /// Secure-aggregation cohort manager (docs/PRIVACY.md). Frame types
  /// 11-13 (SecAggAssign/Masked/Reveal) dispatch to it after
  /// authentication; completed cohorts are applied through the ordinary
  /// checkin path (WAL'd as one synthetic cohort record). An assign or
  /// status request whose answer is not ready yet is held by the applier
  /// and answered once it is (engine/applier.hpp, the park step). Null (the
  /// default) disables secure aggregation: those frames are nacked and
  /// every classic frame's bytes are unchanged. Must outlive the engine.
  secagg::CohortManager* secagg = nullptr;
  /// Registry for engine instruments (null = obs::default_registry()).
  obs::MetricsRegistry* metrics = nullptr;
  /// Lifecycle + protocol trace events. Null disables.
  obs::TraceSink* trace = nullptr;
};

/// One lane: the model instance it serves and the hooks its applier runs
/// with. Everything referenced must outlive the engine.
struct LaneConfig {
  core::Server& server;
  /// This lane's group-commit hook (see EngineConfig::group_commit).
  std::function<bool()> group_commit;
  /// This lane's pacing clock: it stamps the hints of the checkouts,
  /// sheds and checkin acks this lane answers, and is fed this lane's
  /// queue depth and commits. Null = steering off for the lane.
  coord::Coordinator* coordinator = nullptr;
  /// Records that ride this lane's queue with no client behind them (the
  /// draw-and-discard overwrites). Null = client frames only.
  InternalRecords* records = nullptr;
};

class EpollCrowdServer {
 public:
  /// One lane over `server`, committed by config.group_commit and steered
  /// by config.coordinator. Binds, publishes the initial snapshot, and
  /// starts the I/O loops, acceptor, and applier. Throws
  /// std::runtime_error when the bind fails.
  EpollCrowdServer(core::Server& server, net::AuthRegistry& auth,
                   EngineConfig config);
  /// One lane per entry of `lanes` (at least one). `seed` seeds the
  /// checkout-draw and checkin-route streams, which only k > 1 uses.
  EpollCrowdServer(std::vector<LaneConfig> lanes, net::AuthRegistry& auth,
                   EngineConfig config, std::uint64_t seed);
  ~EpollCrowdServer();

  EpollCrowdServer(const EpollCrowdServer&) = delete;
  EpollCrowdServer& operator=(const EpollCrowdServer&) = delete;

  std::uint16_t port() const { return port_; }
  /// Lane 0's parts (the only lane of a one-model engine).
  const core::ProtocolServer& protocol() const { return lanes_[0]->protocol; }
  const ModelSnapshotBoard& board() const { return lanes_[0]->board; }
  const CheckinQueue& queue() const { return lanes_[0]->queue; }
  /// Checkout draws per lane (all zero at k = 1, which makes none).
  std::vector<long long> draw_counts() const;
  /// Checkin routes drawn per lane, shed ones included (all zero at
  /// k = 1).
  std::vector<long long> route_counts() const;
  std::size_t connections() const;
  long long checkouts_served() const { return checkouts_served_.value(); }
  long long commit_failures() const { return commit_failures_.value(); }
  long long stale_checkouts_refused() const {
    return stale_checkouts_refused_.value();
  }

  const core::NetCounters& net_counters() const { return counters_; }
  core::NetCountersSnapshot net_snapshot() const {
    return counters_.snapshot();
  }

  /// Re-publish every lane's snapshot board from its server's current
  /// state. Follower mode only: called by the replication thread after
  /// each applied batch (the board's single-publisher contract moves to
  /// that thread; the applier skips publication while a redirect is
  /// active).
  void republish();

  /// Retarget (or clear) the follower-mode checkin redirect at runtime.
  /// Non-empty: checkins nack with not_leader_reason(addr). Empty: this
  /// node accepts checkins and the applier resumes board publication —
  /// promotion must call republish() *before* clearing the redirect so
  /// the publisher handoff never has two concurrent publishers.
  void set_checkin_redirect(const std::string& leader_addr);
  bool redirect_active() const {
    return redirect_active_.load(std::memory_order_acquire);
  }

  /// Swap lane 0's group-commit hook (promotion wires the ex-follower's
  /// store and new shipper in). Takes effect from the next commit.
  void set_group_commit(std::function<bool()> hook);

  /// Stop accepting, drain every lane's queue (every admitted request
  /// still gets its response), stop the loops, and join everything.
  void shutdown();

 private:
  struct Lane {
    Lane(LaneConfig lane, net::AuthRegistry& auth, const EngineConfig& config);

    core::Server& server;
    core::ProtocolServer protocol;
    ModelSnapshotBoard board;
    CheckinQueue queue;
    /// Closed connections reported to the applier (secagg only).
    ClosedConnections closed;
    coord::Coordinator* const coordinator;
    InternalRecords* const records;
    /// Group-commit hook; swappable at runtime (promotion).
    std::mutex gc_mu;
    std::function<bool()> group_commit;
    std::thread applier;
  };

  /// A seeded SplitMix64 stream of lane draws, and its draws per lane.
  struct Draws {
    std::atomic<std::uint64_t> state{0};
    std::vector<std::atomic<long long>> counts;
  };

  void accept_loop();
  /// A lane for the next frame: drawn from `draws` at k > 1, lane 0 at
  /// k = 1 (no draw).
  Lane& pick(Draws& draws);
  /// Frame dispatch on an I/O thread: auth-valid checkouts are answered
  /// from a lane's board; everything else is queued for a lane's applier
  /// or shed.
  void on_frame(EventLoop* loop, std::uint64_t conn_id, net::Bytes&& frame);

  EngineConfig config_;
  net::AuthRegistry& auth_;
  core::NetCounters counters_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Every lane's queue, by lane: where InternalRecords push records.
  std::vector<CheckinQueue*> queues_;
  Draws checkout_draws_;
  Draws route_draws_;
  /// Pre-encoded refusal frame for checkout auth failures (constant).
  net::Bytes auth_refused_frame_;
  /// Pre-encoded "not leader" nack for checkins in follower mode. The
  /// atomic flag gates the hot path; the frame itself (rebuilt by
  /// set_checkin_redirect) is read under redirect_mu_.
  std::atomic<bool> redirect_active_{false};
  mutable std::mutex redirect_mu_;
  std::string checkin_redirect_;
  net::Bytes checkin_redirect_frame_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::size_t next_loop_ = 0;  ///< acceptor-thread round-robin cursor
  std::atomic<bool> stopping_{false};

  obs::Counter& checkouts_served_;
  obs::Counter& commit_failures_;
  obs::Counter& checkins_redirected_;
  obs::Counter& checkins_wrong_shard_;
  obs::Counter& stale_checkouts_refused_;
};

}  // namespace crowdml::engine
