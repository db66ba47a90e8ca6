// Checkout serving from a versioned, published model snapshot.
//
// Served through Server::handle_checkout, every checkout takes the
// server's state lock to copy w (Server Routine 1). At scale that lock is the
// bottleneck: checkouts are pure reads (handle_checkout mutates nothing),
// yet they serialize against every checkin's SGD update. The board fixes
// this with RCU-style publication: the applier thread builds a complete
// snapshot — version, accepted flag, and the *pre-encoded* kParams
// response frame — and publishes it by swapping one shared_ptr. I/O
// threads serve a checkout by copying the pointer and writing the
// ready-made frame; they never touch the server, its lock, or the codec.
// The pointer sits behind a mutex held only for the copy or the swap
// (never while a snapshot is built or a frame written), which a thread
// sanitizer can see through; libstdc++ 12's std::atomic<std::shared_ptr>
// hides its lock from one.
//
// Freshness: the board holds committed state only. The applier builds a
// batch's snapshot right after applying the batch, while no other
// checkin is applied, and installs it when the batch's group commit has
// returned, just before the batch's acks leave — a device that sees its
// ack and checks out again finds its own update. Because the applier
// applies batch N+1 while batch N commits, a served snapshot trails the
// true state by at most the batch in flight plus the batch being
// applied — the same staleness window Section IV-B3 already budgets for
// (a device's gradient is computed against a w that aged in transit).
// The snapshot-age gauge makes the window observable.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/server.hpp"
#include "net/messages.hpp"
#include "obs/metrics.hpp"

namespace crowdml::engine {

/// One published model state. Immutable after construction.
struct ModelSnapshot {
  std::uint64_t version = 0;
  bool accepted = true;  ///< false once the stopping criteria are met
  /// Complete kParams response frame (encode_frame already applied), so
  /// serving a checkout is a pointer load plus a socket write.
  net::Bytes params_frame;
  std::chrono::steady_clock::time_point published_at;
};

class ModelSnapshotBoard {
 public:
  /// `metrics` (null = obs::default_registry()) receives the publish
  /// counter and the snapshot-age gauge. Must outlive the board.
  explicit ModelSnapshotBoard(obs::MetricsRegistry* metrics = nullptr);

  /// Snapshot `server`'s current parameters and publish atomically:
  /// install(snapshot(server)).
  void publish(const core::Server& server);

  /// Build a snapshot of `server`'s current parameters without publishing
  /// it. Caller contract: no checkin may be applied concurrently (the
  /// epoll engine's single applier thread satisfies this by
  /// construction).
  static std::shared_ptr<ModelSnapshot> snapshot(const core::Server& server);

  /// Publish `snap` (from snapshot()) atomically, stamping it published
  /// now. Concurrent current() loads are always safe.
  void install(std::shared_ptr<ModelSnapshot> snap);

  /// The latest snapshot (never null after construction-time publish;
  /// null only if publish was never called).
  std::shared_ptr<const ModelSnapshot> current() const;

  std::uint64_t version() const;
  long long publishes() const { return publishes_.value(); }

  /// Export seconds-since-last-publish to the snapshot-age gauge (the
  /// applier refreshes it every drain cycle, including idle ones).
  void refresh_age_gauge();
  double age_seconds() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> current_;  // guarded by mu_
  obs::Counter& publishes_;
  obs::Gauge& age_seconds_gauge_;
};

}  // namespace crowdml::engine
