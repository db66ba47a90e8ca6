// The applier loop: the one place checkins are applied.
//
// An applier thread drains its CheckinQueue and runs every batch through
// the same steps, in this order:
//
//   drain      up to batch_max queued items, arrival order preserved;
//   apply      each frame through the ProtocolServer (Eq. 3 for a
//              checkin), so the server's update sequence is exactly the
//              order the requests were admitted in;
//   commit     one group commit for the whole batch (one WAL fsync, plus
//              the replication quorum wait when a shipper is wired in);
//   nack       on commit failure every ok-ack in the batch becomes a
//              "durability failure" nack — the acks have not left yet, so
//              acked => durable never lies;
//   pace       with a coordinator, every checkin ack carries the class's
//              next_checkin_hint_ms (after the nack rewrite, so the hint
//              survives it);
//   publish    the snapshot board, before any ack leaves — a device that
//              sees its ack and checks out again finds its own update;
//   release    responses grouped per event loop, one wakeup per loop.
//
// engine::EpollCrowdServer runs one applier over the caller's server;
// multimodel::ModelInstancePool runs one per model instance.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "coord/coordinator.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "engine/checkin_queue.hpp"
#include "engine/snapshot_board.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crowdml::engine {

/// Records that ride an applier's queue with no client waiting on them —
/// the draw-and-discard pool's overwrites (src/multimodel/). A queue that
/// carries only client frames has none.
///
/// No ack waits on these records, so they owe no fsync of their own: a
/// batch of only records commits once kRecordFlush of them are pending,
/// and an idle queue flushes whatever is pending (followers only see
/// committed records, so the flush bounds replication lag).
class InternalRecords {
 public:
  virtual ~InternalRecords() = default;
  /// Apply `frame` and return true when it is one of these records;
  /// false hands it to the protocol server as a client frame.
  virtual bool apply(const net::Bytes& frame) = 0;
  /// Records applied since the last successful commit.
  virtual std::size_t uncommitted() const = 0;
  /// Called once per batch after its commit and before publication.
  virtual void end_batch() = 0;
};

/// A batch made only of internal records commits once this many are
/// pending.
inline constexpr std::size_t kRecordFlush = 64;

/// What one applier runs over. Everything referenced must outlive
/// run_applier.
struct ApplierParts {
  CheckinQueue& queue;
  core::Server& server;
  core::ProtocolServer& protocol;
  ModelSnapshotBoard& board;
  std::size_t batch_max = 256;
  /// Group commit for the batch just applied; false nacks its ok-acks.
  std::function<bool()> commit;
  /// Pace steering: fed queue depth and apply/commit timings, stamps
  /// checkin-ack hints. Null disables (ack bytes unchanged).
  coord::Coordinator* coordinator = nullptr;
  /// While set, the board is left alone: a follower's replication thread
  /// is its single publisher. Null = always publish.
  const std::atomic<bool>* publish_paused = nullptr;
  InternalRecords* records = nullptr;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = default_registry()
  obs::TraceSink* trace = nullptr;
};

/// The commit-failure counter the applier bumps
/// (crowdml_engine_commit_failures_total).
obs::Counter& commit_failures_counter(obs::MetricsRegistry& registry);

/// Run the loop until the queue is closed and drained.
void run_applier(const ApplierParts& parts);

}  // namespace crowdml::engine
