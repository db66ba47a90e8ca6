// Follower side of WAL shipping: connects to the leader's replication
// port, announces its durable position, and applies every shipped record
// through the same deterministic Server::handle_checkin path recovery
// uses — so leader and follower are byte-identical at equal log offsets
// (state, WAL bytes, and encoded parameter frames alike). Applied
// records are appended to the follower's own WAL and fsynced before the
// ack goes back: a ReplAck is a durability claim, which is what lets a
// quorum leader promise acked => replicated.
//
// Epoch fencing: frames below the follower's promised epoch are refused
// and the connection dropped (a deposed leader cannot feed us); frames
// above it are adopted — durably, via EpochStore, *before* any record of
// the new term is applied. See docs/REPLICATION.md.
//
// Automatic failover: when a FailureDetectorConfig is enabled the
// follower also runs a failure detector fed by the leader's lease
// heartbeats, a vote listener (so it can be an elector in someone else's
// campaign), and — when its own detector fires — a candidacy. Winning
// sets promoted(); the process's main loop then performs the
// leader-role handoff (new shipper on the freed vote port, engine
// redirect cleared). Granting a vote retargets this follower at the
// winner and severs the old leader session. All of it is zero-operator:
// the manual promote_on_start path remains only as a break-glass.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/server.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replica/epoch.hpp"
#include "replica/failure_detector.hpp"
#include "replica/lease.hpp"
#include "store/durable_store.hpp"

namespace crowdml::replica {

struct FollowerOptions {
  std::string leader_host = "127.0.0.1";
  std::uint16_t leader_port = 0;
  std::uint64_t follower_id = 0;
  store::DurableStoreOptions store;
  /// Directory for the epoch register; "" = the store directory.
  std::string epoch_dir;
  int reconnect_backoff_ms = 200;
  int reconnect_backoff_max_ms = 2000;
  int io_deadline_ms = 10'000;
  int connect_timeout_ms = 2000;
  /// Called (from the replication thread) after each applied batch or
  /// installed snapshot — the serving engine republishes its snapshot
  /// board here so checkouts see the new parameters.
  std::function<void()> on_applied;
  /// Failure detection / election. Disabled (min == 0) reproduces the
  /// manual-failover behavior exactly: no vote listener, no elections,
  /// recv blocks without a poll slice.
  FailureDetectorConfig detector;
  /// Vote listener port (0 = ephemeral). Only bound when the detector is
  /// enabled. After winning an election this port is freed and reused as
  /// the promoted node's replication port — which is exactly the
  /// repl_addr peers were told to reconnect to in the vote request.
  std::uint16_t vote_port = 0;
  /// Fellow followers' vote endpoints (the electorate, minus this node).
  std::vector<PeerAddr> peers;
  /// This node's device-facing host:port — advertised in vote requests
  /// so electors can repoint their checkin redirects at the winner.
  std::string device_addr;
  /// Host peers reach this node's vote/replication port on.
  std::string advertise_host = "127.0.0.1";
  /// Shared HMAC key for all Repl* frames (empty = unauthenticated).
  ReplKey key;
  /// Called (from the replication or vote thread) whenever the leader's
  /// device-facing address changes — wire the serving engine's
  /// set_checkin_redirect here so clients get redirected to the winner.
  std::function<void(const std::string&)> on_leader_changed;
  /// Recv poll slice while the detector is enabled: the replication
  /// thread wakes at least this often to check the election deadline
  /// even when the leader is silent.
  int heartbeat_poll_ms = 50;
  /// Seed for the detector's jitter draw (mixed with follower_id).
  std::uint64_t rng_seed = 0;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = default_registry()
  obs::TraceSink* trace = nullptr;          ///< null disables
};

class Follower {
 public:
  /// Builds the durable store in `dir`, recovers `server` from it, and
  /// loads the promised epoch — but does not connect until start().
  /// Throws (WalError, EpochError) on unrecoverable local state.
  Follower(core::Server& server, std::string dir, FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Bind the vote listener (with a failure detector) and start
  /// replicating. Throws std::runtime_error("vote listener bind failed
  /// on port N") when the vote port cannot be bound; nothing is started.
  void start();
  void shutdown();

  std::uint64_t epoch() const { return epoch_.load(); }
  /// Highest epoch some leader actually spoke to this follower (what the
  /// hello advertises; see witnessed_epoch_ below).
  std::uint64_t witnessed_epoch() const { return witnessed_epoch_.load(); }
  /// Highest WAL seq applied to the server (== the server's iteration).
  std::uint64_t applied_seq() const { return server_.version(); }
  bool connected() const { return connected_.load(); }
  /// A local divergence or disk failure stopped replication; the process
  /// must be restarted (recovery re-derives a consistent state).
  bool fatal() const { return fatal_.load(); }
  /// This node won an election and must take over as leader. The
  /// replication thread has exited; the owner performs the handoff
  /// (shutdown(), rewire group commit, new shipper on vote_port(),
  /// republish, clear the redirect).
  bool promoted() const { return promoted_.load(); }
  /// The bound vote-listener port (0 when the detector is disabled).
  std::uint16_t vote_port() const;
  /// How far this replica's applied state trails the leader's committed
  /// watermark (records). Safe from any thread; feeds the engine's
  /// bounded-staleness checkout gate.
  std::uint64_t read_lag() const;
  /// Committed watermark from the most recent leader heartbeat.
  std::uint64_t leader_committed() const { return leader_committed_.load(); }
  const Lease& lease() const { return lease_; }
  long long stale_frames_refused() const {
    return stale_frames_refused_.value();
  }
  long long snapshots_installed() const {
    return snapshots_installed_.value();
  }
  long long records_applied() const { return records_applied_.value(); }
  long long lease_expirations() const { return lease_expirations_.value(); }
  long long elections_started() const { return elections_started_.value(); }
  long long elections_won() const { return elections_won_.value(); }
  long long elections_lost() const { return elections_lost_.value(); }
  long long auth_failures() const { return auth_failed_.value(); }

  /// Retarget the replication source (normally driven by granted votes;
  /// exposed for tests and manual repointing).
  void set_leader_address(const std::string& host, std::uint16_t port);

  /// Set the device-facing address advertised in this node's vote
  /// requests (known only once the serving engine binds). Must be called
  /// before start().
  void set_device_addr(const std::string& addr) { opts_.device_addr = addr; }

  /// Compact the replica's store (snapshot + prune shipped history),
  /// from any thread; excluded against a concurrent snapshot install.
  /// False when compaction failed (the WAL stays intact).
  bool compact();

  /// The replica's store. Unsynchronized: only safe while the follower
  /// is not running (before start() / after shutdown()); while running,
  /// use compact() and the counters instead.
  store::DurableStore& store() { return *store_; }

 private:
  /// Why serve_connection returned: reconnect and keep following, stop
  /// on local corruption, or campaign (detector fired). kContinue is an
  /// internal handler outcome only (frame handled, keep the session).
  enum class ServeResult { kReconnect, kFatal, kElect, kContinue };

  void run();
  ServeResult serve_connection(net::TcpConnection& conn);
  /// Apply one shipped batch; false => fatal_ was set.
  bool apply_records(const std::vector<net::ReplRecord>& records);
  bool install_snapshot(std::uint64_t version, const net::Bytes& checkpoint);
  /// One kReplSnapshot chunk: buffer (or install when complete).
  /// kReconnect on reassembly desync, kFatal on install failure.
  ServeResult handle_snapshot_chunk(const net::ReplSnapshotMessage& snap);
  /// Highest seq this follower holds durably (what hello and acks claim).
  std::uint64_t durable_position() const;
  std::uint64_t durable_position_locked() const;
  /// Adopt a frame's epoch: refuse stale (returns false, caller drops the
  /// connection), durably store newer before proceeding.
  bool accept_epoch(std::uint64_t frame_epoch);
  /// Best-effort reply sent before dropping a connection whose frame was
  /// refused as stale: a ReplAck carrying the promised epoch, so a
  /// deposed leader that can still reach us fences itself and steps down
  /// instead of heartbeating old-epoch leases forever.
  void send_refusal_ack(net::TcpConnection& conn);
  /// Vote-listener handler: grant iff the candidate's term is news and
  /// its log is at least as long as ours; a grant durably bumps the
  /// promised epoch, retargets replication at the winner, and severs the
  /// old leader session.
  net::ReplVoteMessage grant_vote(const net::ReplVoteMessage& req);
  /// The detector fired: durably self-promise epoch+1 and campaign.
  void try_elect();
  void set_fatal(const std::string& reason);

  core::Server& server_;
  std::string dir_;
  FollowerOptions opts_;
  EpochStore epoch_store_;
  /// Separate durable register for the witnessed epoch (file
  /// "witnessed-epoch" beside the promised one). Kept apart so a restart
  /// cannot conflate a failed candidacy's promise with proof of a leader:
  /// reloading the promise as the witness would make the hello fence a
  /// perfectly live leader. Invariant: witnessed register <= promised
  /// register (a witness is always adopted as a promise first).
  EpochStore witnessed_store_;
  std::unique_ptr<store::DurableStore> store_;
  store::DurableStore::RecoveryInfo recovery_;

  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> connected_{false};
  std::atomic<bool> fatal_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<std::uint64_t> epoch_{0};
  /// Highest epoch a leader has demonstrably *led* — the epoch of some
  /// frame this follower accepted (reloaded from witnessed_store_ at
  /// startup). The hello advertises this, not epoch_: a failed candidacy
  /// inflates the promised epoch, and advertising that — live or after a
  /// restart — would let one starved follower fence a perfectly live
  /// leader (the pre-vote disruption). Invariant: witnessed_epoch_ <=
  /// epoch_.
  std::atomic<std::uint64_t> witnessed_epoch_{0};
  std::atomic<std::uint64_t> leader_committed_{0};

  std::mutex conn_mu_;
  net::TcpConnection* live_conn_ = nullptr;

  /// Serializes store_ replacement (snapshot install) against compact()
  /// and against the vote thread reading durable_position().
  mutable std::mutex store_mu_;

  /// Serializes EpochStore writes: the vote thread (grants) and the
  /// replication thread (adoptions, candidacies) both bump it durably.
  std::mutex epoch_mu_;

  /// Current replication source; granted votes repoint it at the winner.
  std::mutex leader_mu_;
  std::string leader_host_;
  std::uint16_t leader_port_ = 0;
  std::string last_leader_device_addr_;

  Lease lease_;
  FailureDetector detector_;
  /// Nonce draws for this node's own campaigns (replication thread only).
  rng::Engine nonce_rng_;
  std::unique_ptr<VoteListener> votes_;

  /// Chunked-snapshot reassembly buffer (replication thread only). The
  /// hello's resume fields come from here so an interrupted transfer
  /// restarts at the first missing byte, not byte zero.
  std::uint64_t pending_snap_version_ = 0;
  std::uint64_t pending_snap_total_ = 0;
  net::Bytes pending_snap_;

  obs::Counter& records_applied_;
  obs::Counter& stale_frames_refused_;
  obs::Counter& snapshots_installed_;
  obs::Counter& reconnects_;
  obs::Counter& lease_expirations_;
  obs::Counter& elections_started_;
  obs::Counter& elections_won_;
  obs::Counter& elections_lost_;
  obs::Counter& auth_failed_;
  obs::Gauge& epoch_gauge_;
  obs::Histogram& apply_seconds_;
};

}  // namespace crowdml::replica
