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
//   - checkouts are served on the I/O thread from the
//     ModelSnapshotBoard's pre-encoded frame — no state lock, no
//     serialization work, no contention with updates;
//   - checkins flow through a bounded MPSC CheckinQueue to one applier
//     thread (engine/applier.hpp), which applies them in arrival order,
//     group-commits the whole batch's WAL appends with a single fsync
//     (store::DurableStore::commit_group), republishes the board, and
//     only then releases the acks — acked => durable still holds;
//   - admission control: a full queue sheds with a machine-readable
//     "retry_after_ms" nack (net::retry_after_reason) that
//     ReconnectingDeviceSession honors as its next delay, so overload
//     degrades into scheduled retries instead of timeout storms.
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
  /// Most checkins applied (and group-committed) per applier wakeup.
  std::size_t checkin_batch_max = 256;
  /// Group-commit hook, called once per drained batch after every update
  /// applied; returning false nacks the whole batch's acks ("durability
  /// failure"). Wire store::DurableStore::commit_group here (after
  /// set_group_commit(true)); leave null when no durability layer is
  /// attached (or it appends per record).
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
  /// Multimodel serving (draw-and-discard; src/multimodel/). When set,
  /// an authenticated checkout is answered from the snapshot this hook
  /// returns — a uniformly drawn instance's board — instead of the
  /// engine's own board. Called on I/O threads; must be lock-free-cheap
  /// and never null-return.
  std::function<std::shared_ptr<const ModelSnapshot>()> draw_snapshot;
  /// Multimodel routing: when set, every non-checkout frame is handed
  /// here (a uniformly drawn instance's CheckinQueue) instead of the
  /// engine's own queue; false means every instance refused it and the
  /// I/O thread sheds with the usual retry_after nack. The engine's own
  /// applier then never sees traffic — the pool's per-instance appliers
  /// own application, group commit, and board publication.
  std::function<bool(CheckinWork&&)> route_checkin;
  /// Called during shutdown() after the engine's own queue is drained
  /// and before the event loops stop — the pool drains its per-instance
  /// queues here so every admitted request still answers on a live loop.
  std::function<void()> shutdown_drain;
  /// Pace steering (src/coord/; docs/SCALING.md "Pace steering"). When
  /// set, every checkout response and checkin ack carries a positive
  /// next_checkin_hint_ms (advisory on checkouts, slot-consuming on
  /// checkin acks), the applier feeds the policy its queue depth and
  /// apply/commit timings, and a shed checkin's retry_after hint is
  /// stretched to the class's next reserved slot — shedding becomes the
  /// last resort behind steering. Null (the default) disables steering
  /// entirely: ack and params frames are bit-identical to the
  /// pre-coordinator path. Must outlive the engine; not compatible with
  /// route_checkin pools (the per-instance appliers own those clocks).
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

class EpollCrowdServer {
 public:
  /// Binds, publishes the initial snapshot, and starts the I/O loops,
  /// acceptor, and applier. Throws std::runtime_error when the bind
  /// fails.
  EpollCrowdServer(core::Server& server, net::AuthRegistry& auth,
                   EngineConfig config);
  ~EpollCrowdServer();

  EpollCrowdServer(const EpollCrowdServer&) = delete;
  EpollCrowdServer& operator=(const EpollCrowdServer&) = delete;

  std::uint16_t port() const { return port_; }
  const core::ProtocolServer& protocol() const { return protocol_; }
  const ModelSnapshotBoard& board() const { return board_; }
  const CheckinQueue& queue() const { return queue_; }
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

  /// Re-publish the snapshot board from the server's current state.
  /// Follower mode only: called by the replication thread after each
  /// applied batch (the board's single-publisher contract moves to that
  /// thread; the applier skips publication while a redirect is active).
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

  /// Swap the group-commit hook (promotion wires the ex-follower's store
  /// and new shipper in). Takes effect from the next drained batch.
  void set_group_commit(std::function<bool()> hook);

  /// Stop accepting, drain the queue (every admitted request still gets
  /// its response), stop the loops, and join everything.
  void shutdown();

 private:
  void accept_loop();
  /// The applier's commit step: the current group-commit hook, if any.
  bool group_commit();
  /// Frame dispatch on an I/O thread: auth-valid checkouts are answered
  /// from the board; everything else is queued for the applier or shed.
  void on_frame(EventLoop* loop, std::uint64_t conn_id, net::Bytes&& frame);

  EngineConfig config_;
  core::Server& server_;
  net::AuthRegistry& auth_;
  core::ProtocolServer protocol_;
  core::NetCounters counters_;
  ModelSnapshotBoard board_;
  CheckinQueue queue_;
  /// Closed connections reported to the applier (secagg only).
  ClosedConnections closed_;
  /// Pre-encoded refusal frame for checkout auth failures (constant).
  net::Bytes auth_refused_frame_;
  /// Pre-encoded "not leader" nack for checkins in follower mode. The
  /// atomic flag gates the hot path; the frame itself (rebuilt by
  /// set_checkin_redirect) is read under redirect_mu_.
  std::atomic<bool> redirect_active_{false};
  mutable std::mutex redirect_mu_;
  std::string checkin_redirect_;
  net::Bytes checkin_redirect_frame_;
  /// Group-commit hook; swappable at runtime (promotion).
  std::mutex gc_mu_;
  std::function<bool()> group_commit_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::thread applier_;
  std::size_t next_loop_ = 0;  ///< acceptor-thread round-robin cursor
  std::atomic<bool> stopping_{false};

  obs::Counter& checkouts_served_;
  obs::Counter& commit_failures_;
  obs::Counter& checkins_redirected_;
  obs::Counter& checkins_wrong_shard_;
  obs::Counter& stale_checkouts_refused_;
};

}  // namespace crowdml::engine
