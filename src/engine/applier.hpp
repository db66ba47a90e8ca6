// The applier loop: the one place checkins are applied.
//
// An applier thread drains its CheckinQueue and runs every batch through
// the same steps, in this order:
//
//   drain      queued items, arrival order preserved, up to batch_max
//              per batch;
//   apply      each frame through the ProtocolServer (Eq. 3 for a
//              checkin), so the server's update sequence is exactly the
//              order the requests were admitted in;
//   park       with a secagg::CohortManager attached, a secure-aggregation
//              request whose answer is not ready yet (a pending assign, a
//              collecting status poll) is held instead of answered, up to
//              the queue's capacity (past it the reply goes at once).
//              Held requests go through the same ProtocolServer call
//              again when the manager's change counter moves, when its
//              next deadline passes, and on every idle pass; the ones now
//              answered (cohort sealed, round resolved or recovering,
//              fallback decided) join the batch's replies;
//   snapshot   the board snapshot of the state the batch leaves, taken
//              right after the batch is applied (nothing else is applied
//              meanwhile);
//   commit     one group commit for the whole batch (one WAL fsync, plus
//              the replication quorum wait when a shipper is wired in),
//              run by the applier's committer thread; with no commit
//              hook installed the batch skips to release on the applier
//              thread;
//   nack       on commit failure every ok-ack in the batch becomes a
//              "durability failure" nack — the acks have not left yet, so
//              acked => durable never lies. Replies to held requests
//              and a status reply saying a round completed (that round's
//              ack) are kept, as they are, for the first later batch
//              whose commit succeeds; past the cap a "complete" reply
//              becomes the nack instead;
//   pace       with a coordinator, every checkin ack carries the class's
//              next_checkin_hint_ms (after the nack rewrite, so the hint
//              survives it);
//   publish    the batch's snapshot goes on the board, before any ack
//              leaves — a device that sees its ack and checks out again
//              finds its own update, and the board never shows state
//              that is not committed;
//   release    responses grouped per event loop, one wakeup per loop.
//
// The commit is pipelined. At most one batch is in flight: while the
// committer commits batch N, the applier keeps draining and applying new
// arrivals into batch N+1, and hands N+1 over as soon as N's commit has
// returned and N is released. Steps nack through release for batch N
// run on the applier thread, only after N's commit returned. A failed
// commit nacks N alone; the store re-queues N's records ahead of N+1's,
// so the log stays contiguous.
//
// Once the queue is closed and drained, held requests get their current
// answer (a not-ready one carries its retry hint), and the batch in
// flight and the last one applied are committed and released, before
// the loop exits: it never leaves records applied but uncommitted.
//
// engine::EpollCrowdServer runs one applier per lane (one model
// instance each); a draw-and-discard pool's overwrites reach a lane's
// loop as its InternalRecords (src/multimodel/).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

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
/// batch of only records commits once kRecordFlush of them are pending
/// (the applier counts them), and an idle queue flushes whatever is
/// pending (followers only see committed records, so the flush bounds
/// replication lag).
class InternalRecords {
 public:
  virtual ~InternalRecords() = default;
  /// Apply `frame` and return true when it is one of these records;
  /// false hands it to the protocol server as a client frame.
  virtual bool apply(const net::Bytes& frame) = 0;
  /// Called on the applier thread once per batch, after the batch is
  /// applied and before its snapshot is taken. `lanes` holds every
  /// lane's queue, by lane index: records bound for another lane are
  /// pushed there.
  virtual void end_batch(const std::vector<CheckinQueue*>& lanes) = 0;
};

/// A batch made only of internal records commits once this many are
/// pending.
inline constexpr std::size_t kRecordFlush = 64;

/// Connections the event loops have closed, handed from loop threads to
/// the applier so requests it holds for them are dropped, not answered
/// into the void. Thread-safe.
class ClosedConnections {
 public:
  using Entry = std::pair<EventLoop*, std::uint64_t>;
  void add(EventLoop* loop, std::uint64_t conn_id);
  /// Move every entry added since the last call into `out` (cleared).
  void take(std::vector<Entry>& out);

 private:
  std::mutex mu_;
  std::vector<Entry> entries_;
};

/// What one applier runs over. Everything referenced must outlive
/// run_applier.
struct ApplierParts {
  CheckinQueue& queue;
  core::Server& server;
  core::ProtocolServer& protocol;
  ModelSnapshotBoard& board;
  std::size_t batch_max = 256;
  /// The group-commit hook for the batch being sealed, asked once per
  /// batch on the applier thread; empty means nothing to commit, and the
  /// batch is released at once. The hook runs on the applier's committer
  /// thread, one call at a time, while the applier thread applies the
  /// next batch; false nacks the batch's ok-acks.
  std::function<std::function<bool()>()> commit;
  /// Pace steering: fed queue depth and apply/commit timings, stamps
  /// checkin-ack hints. Null disables (ack bytes unchanged).
  coord::Coordinator* coordinator = nullptr;
  /// While set, the board is left alone: a follower's replication thread
  /// is its single publisher. Null = always publish.
  const std::atomic<bool>* publish_paused = nullptr;
  InternalRecords* records = nullptr;
  /// Every lane's queue, handed to `records` at the end of each batch.
  const std::vector<CheckinQueue*>* lanes = nullptr;
  /// The cohort manager the protocol server dispatches secagg frames to;
  /// set, not-ready secagg requests are held (the park step). Null = no
  /// request is ever held and no frame is inspected for it.
  const secagg::CohortManager* secagg = nullptr;
  /// Where the event loops report closed connections (with `secagg`).
  ClosedConnections* closed = nullptr;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = default_registry()
  obs::TraceSink* trace = nullptr;
};

/// The commit-failure counter the applier bumps
/// (crowdml_engine_commit_failures_total).
obs::Counter& commit_failures_counter(obs::MetricsRegistry& registry);

/// Run the loop until the queue is closed and drained.
void run_applier(const ApplierParts& parts);

}  // namespace crowdml::engine
