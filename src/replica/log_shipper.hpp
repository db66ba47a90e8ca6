// Leader side of WAL shipping: accepts follower connections on a
// dedicated replication port and streams the durable store's log to each
// of them — segments first (the disk is the replication buffer; there is
// no in-memory queue to overflow), then the live tail as group commits
// land. Each session keeps its own read position in the log, so a batch
// reads only the records it ships rather than rescanning the active
// segment. Every frame carries the leader's epoch; a hello or ack bearing a
// higher epoch means this leader has been superseded and it fences
// itself: no further quorum waits succeed, so no checkin acked here can
// contradict the new leader's history. See docs/REPLICATION.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/server.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replica/repl_session.hpp"
#include "store/durable_store.hpp"

namespace crowdml::replica {

struct ShipperOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see LogShipper::port()
  ReplAckMode ack_mode = ReplAckMode::kAsync;
  /// Follower acks required before await_quorum() releases a checkin;
  /// see quorum_follower_acks_for. Only meaningful under kQuorum.
  std::size_t quorum_follower_acks = 1;
  int quorum_timeout_ms = 5000;
  std::size_t batch_max_records = 256;
  std::size_t batch_max_bytes = 1u << 20;
  /// Deadline for each replication-socket send/recv. Followers that stall
  /// past it are disconnected (and simply reconnect later).
  int io_deadline_ms = 10'000;
  /// Lease heartbeats: when > 0, every session sends a kReplHeartbeat at
  /// least this often (and immediately after the hello), granting
  /// lease_ms of leader liveness. 0 disables (pre-failover behavior).
  int heartbeat_interval_ms = 0;
  /// Lease granted per heartbeat; 0 = 3 * heartbeat_interval_ms.
  std::uint32_t lease_ms = 0;
  /// Device-facing host:port advertised in heartbeats so replicas keep
  /// their checkin redirects pointed at the live leader ("" = omit).
  std::string advertise_leader_addr;
  /// Chunked snapshot transfer: at most this many checkpoint bytes per
  /// kReplSnapshot frame (a multi-GB state can neither stall the session
  /// loop nor exceed the frame-size cap), throttled to at most
  /// snapshot_max_bytes_per_sec (0 = unthrottled).
  std::size_t snapshot_chunk_bytes = 1u << 20;
  std::size_t snapshot_max_bytes_per_sec = 0;
  /// Shared HMAC key for all Repl* frames (empty = unauthenticated).
  ReplKey key;
  /// Multimodel pool instance this shipper's WAL stream belongs to
  /// (src/multimodel/; 0 = single-model). Stamped into every ReplAppend
  /// and verified against each hello: a follower for instance j is
  /// dropped rather than fed instance i's records.
  std::uint64_t instance_id = 0;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = default_registry()
  obs::TraceSink* trace = nullptr;          ///< null disables
};

/// Majority of `followers` configured replicas: floor((F + 1) / 2), so
/// leader + that many followers is a strict majority of the F + 1 nodes.
std::size_t quorum_follower_acks_for(std::size_t followers);

class LogShipper {
 public:
  /// Starts the acceptor immediately. `server` and `store` must outlive
  /// the shipper; `epoch` is the leader's already-durable term. Throws
  /// std::runtime_error when the replication port cannot be bound.
  LogShipper(core::Server& server, store::DurableStore& store,
             std::uint64_t epoch, ShipperOptions options = {});
  ~LogShipper();

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Advance the shipping watermark to the WAL's committed tail and wake
  /// idle sessions. Call after every successful commit_group().
  void notify_committed();

  /// Block until `quorum_follower_acks` followers durably hold `seq`
  /// (true), or the quorum times out / the leader is fenced / shutdown
  /// begins (false). Immediately true under kNone/kAsync.
  bool await_quorum(std::uint64_t seq);

  /// True once a follower presented a higher epoch: this leader is stale
  /// and must stop acking (quorum waits fail fast from then on).
  bool fenced() const { return fenced_.load(); }

  /// Update the device-facing address heartbeats advertise. Exists
  /// because the serving engine usually binds (and learns its ephemeral
  /// port) only after the shipper is constructed; the next heartbeat on
  /// every session picks the new address up.
  void set_advertise_leader_addr(const std::string& addr);

  std::size_t follower_sessions() const { return tracker_.sessions(); }
  long long heartbeats_sent() const { return heartbeats_sent_.value(); }
  long long auth_failures() const { return auth_failed_.value(); }

  void shutdown();

 private:
  void accept_loop();
  void session_loop(std::uint64_t session_id, net::TcpConnection conn);
  void fence(std::uint64_t observed_epoch);
  /// Stream `blob` (a serialized checkpoint at `version`) in bounded,
  /// rate-limited chunks starting at `offset`. Under want_ack modes each
  /// chunk waits for the follower's ack (fencing on a higher epoch, in
  /// which case `fenced_session` is set). `heartbeat` is invoked between
  /// chunks and inside throttle waits so the receiver's lease keeps
  /// renewing however slow the transfer runs (a throttled snapshot must
  /// not read as a dead leader). False on any failure.
  bool ship_snapshot_chunks(net::TcpConnection& conn, std::uint64_t session_id,
                            std::uint64_t version, const net::Bytes& blob,
                            std::uint64_t offset, bool want_ack,
                            bool* fenced_session,
                            const std::function<bool()>& heartbeat);

  core::Server& server_;
  store::DurableStore& store_;
  const std::uint64_t epoch_;
  ShipperOptions opts_;

  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> fenced_{false};

  AckTracker tracker_;

  // Committed watermark: sessions ship only through it, and sleep on the
  // condvar when caught up until notify_committed() moves it.
  std::mutex watermark_mu_;
  std::condition_variable watermark_cv_;
  std::uint64_t watermark_ = 0;

  // Live sessions, for shutdown_both() at shutdown; threads are joined.
  std::mutex sessions_mu_;
  std::map<std::uint64_t, net::TcpConnection*> live_conns_;
  std::vector<std::thread> session_threads_;
  std::uint64_t next_session_id_ = 1;

  // Guards opts_.advertise_leader_addr: set_advertise_leader_addr races
  // with heartbeats on live sessions.
  mutable std::mutex advertise_mu_;

  // Serialized-snapshot cache for resumable chunked transfers: a
  // follower that disconnected mid-transfer announces (version, offset)
  // in its next hello and resumes when the cache still holds that
  // version's exact bytes.
  std::mutex snap_cache_mu_;
  std::uint64_t snap_cache_version_ = 0;
  std::shared_ptr<const net::Bytes> snap_cache_;

  obs::Gauge& lag_records_;
  obs::Histogram& ship_seconds_;
  obs::Counter& records_shipped_;
  obs::Counter& snapshots_shipped_;
  obs::Counter& fenced_hellos_;
  obs::Counter& quorum_timeouts_;
  obs::Counter& followers_connected_;
  obs::Counter& heartbeats_sent_;
  obs::Counter& auth_failed_;
  obs::Counter& wal_read_bytes_;
};

}  // namespace crowdml::replica
