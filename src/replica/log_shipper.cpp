#include "replica/log_shipper.hpp"

#include <chrono>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "net/messages.hpp"

namespace crowdml::replica {

namespace {

obs::MetricsRegistry& registry_of(const ShipperOptions& opts) {
  return opts.metrics ? *opts.metrics : obs::default_registry();
}

}  // namespace

std::size_t quorum_follower_acks_for(std::size_t followers) {
  return (followers + 1) / 2;
}

LogShipper::LogShipper(core::Server& server, store::DurableStore& store,
                       std::uint64_t epoch, ShipperOptions options)
    : server_(server),
      store_(store),
      epoch_(epoch),
      opts_(options),
      lag_records_(registry_of(opts_).gauge(
          "crowdml_repl_lag_records",
          "WAL records the laggiest connected follower is behind the "
          "leader's committed tail (0 when no follower is connected)",
          obs::Provenance::kTransportEvent)),
      ship_seconds_(registry_of(opts_).histogram(
          "crowdml_repl_ship_seconds",
          "One replication batch: send + follower durable-append + ack",
          obs::Provenance::kTiming)),
      records_shipped_(registry_of(opts_).counter(
          "crowdml_repl_records_shipped_total",
          "WAL records streamed to followers (counted per session)",
          obs::Provenance::kTransportEvent)),
      snapshots_shipped_(registry_of(opts_).counter(
          "crowdml_repl_snapshots_shipped_total",
          "Full-state snapshots shipped because compaction outran a "
          "follower's cursor",
          obs::Provenance::kTransportEvent)),
      fenced_hellos_(registry_of(opts_).counter(
          "crowdml_repl_fenced_hellos_total",
          "Replication frames refused because the peer held a newer epoch",
          obs::Provenance::kTransportEvent)),
      quorum_timeouts_(registry_of(opts_).counter(
          "crowdml_repl_quorum_timeouts_total",
          "Checkin batches nacked because the follower quorum did not ack "
          "in time",
          obs::Provenance::kTransportEvent)),
      followers_connected_(registry_of(opts_).counter(
          "crowdml_repl_followers_connected_total",
          "Follower replication sessions accepted",
          obs::Provenance::kTransportEvent)),
      heartbeats_sent_(registry_of(opts_).counter(
          "crowdml_repl_heartbeats_sent_total",
          "Lease heartbeats sent to follower sessions",
          obs::Provenance::kTransportEvent)),
      auth_failed_(registry_of(opts_).counter(
          "crowdml_repl_auth_failed_total",
          "Replication-plane frames dropped for a missing or invalid "
          "HMAC tag",
          obs::Provenance::kTransportEvent)),
      wal_read_bytes_(registry_of(opts_).counter(
          "crowdml_repl_wal_read_bytes_total",
          "Bytes follower sessions read from WAL segment files to build "
          "batches",
          obs::Provenance::kTransportEvent)) {
  auto listener = net::TcpListener::bind(opts_.bind_address, opts_.port);
  if (!listener)
    throw std::runtime_error("cannot bind replication port " +
                             opts_.bind_address + ":" +
                             std::to_string(opts_.port));
  listener_ = std::move(*listener);
  port_ = listener_.port();
  watermark_ = store_.wal().last_seq();
  acceptor_ = std::thread([this] { accept_loop(); });
}

LogShipper::~LogShipper() { shutdown(); }

void LogShipper::notify_committed() {
  {
    std::lock_guard<std::mutex> lock(watermark_mu_);
    watermark_ = store_.wal().last_seq();
  }
  watermark_cv_.notify_all();
}

bool LogShipper::await_quorum(std::uint64_t seq) {
  if (opts_.ack_mode != ReplAckMode::kQuorum) return true;
  if (fenced_.load() || stopping_.load()) return false;
  const bool ok = tracker_.await(
      seq, opts_.quorum_follower_acks, opts_.quorum_timeout_ms,
      [this] { return fenced_.load() || stopping_.load(); });
  if (!ok && !fenced_.load() && !stopping_.load()) ++quorum_timeouts_;
  return ok;
}

void LogShipper::fence(std::uint64_t observed_epoch) {
  fenced_.store(true);
  ++fenced_hellos_;
  if (opts_.trace)
    opts_.trace->event("repl_fenced", {{"epoch", epoch_},
                                       {"observed_epoch", observed_epoch}});
  tracker_.wake();
  watermark_cv_.notify_all();
}

void LogShipper::accept_loop() {
  while (!stopping_.load()) {
    auto conn = listener_.accept();
    if (!conn) break;  // listener closed
    conn->set_deadline_ms(opts_.io_deadline_ms);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (stopping_.load()) break;
    const std::uint64_t id = next_session_id_++;
    session_threads_.emplace_back(
        [this, id, c = std::move(*conn)]() mutable {
          session_loop(id, std::move(c));
        });
  }
}

bool LogShipper::ship_snapshot_chunks(net::TcpConnection& conn,
                                      std::uint64_t session_id,
                                      std::uint64_t version,
                                      const net::Bytes& blob,
                                      std::uint64_t offset, bool want_ack,
                                      bool* fenced_session,
                                      const std::function<bool()>& heartbeat) {
  const auto total = static_cast<std::uint64_t>(blob.size());
  const std::size_t chunk_max = std::max<std::size_t>(
      1, std::min(opts_.snapshot_chunk_bytes,
                  static_cast<std::size_t>(net::kMaxFieldLength / 2)));
  const auto throttle_start = std::chrono::steady_clock::now();
  std::uint64_t throttled_bytes = 0;
  std::uint64_t off = offset;
  do {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_max, total - off));
    net::ReplSnapshotMessage snap;
    snap.epoch = epoch_;
    snap.want_ack = want_ack;
    snap.version = version;
    snap.total_bytes = total;
    snap.offset = off;
    snap.checkpoint.assign(blob.begin() + static_cast<std::ptrdiff_t>(off),
                           blob.begin() + static_cast<std::ptrdiff_t>(off + n));
    if (!conn.send_frame(net::encode_frame(
            net::MessageType::kReplSnapshot,
            seal_repl_payload(opts_.key, net::MessageType::kReplSnapshot,
                              snap.serialize()))))
      return false;
    off += n;
    if (want_ack) {
      auto ack_frame = conn.recv_frame();
      if (!ack_frame) return false;
      try {
        const net::Frame f = net::decode_frame(*ack_frame);
        if (f.type != net::MessageType::kReplAck) return false;
        const auto body =
            open_repl_payload(opts_.key, net::MessageType::kReplAck, f.payload);
        if (!body) {
          ++auth_failed_;
          if (opts_.trace)
            opts_.trace->event("repl_auth_failed", {{"where", "snapshot_ack"}});
          return false;
        }
        const auto ack = net::ReplAckMessage::deserialize(*body);
        if (ack.epoch > epoch_) {
          fence(ack.epoch);
          if (fenced_session) *fenced_session = true;
          return false;
        }
        tracker_.ack(session_id, ack.durable_seq);
      } catch (const net::CodecError&) {
        return false;
      }
    }
    // A heartbeat between chunks bounds the inter-frame gap to the
    // heartbeat interval regardless of how slow the throttle runs —
    // otherwise a long transfer reads as leader death and the receiver
    // abandons it for a doomed election.
    if (!heartbeat()) return false;
    // Rate limit: never run ahead of max_bytes_per_sec averaged over the
    // transfer, sleeping in slices so shutdown stays responsive.
    if (opts_.snapshot_max_bytes_per_sec > 0 && off < total) {
      throttled_bytes += n;
      const double due_s = static_cast<double>(throttled_bytes) /
                           static_cast<double>(opts_.snapshot_max_bytes_per_sec);
      for (;;) {
        if (stopping_.load()) return false;
        if (!heartbeat()) return false;
        const double elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          throttle_start)
                .count();
        if (elapsed_s >= due_s) break;
        const double wait_s = std::min(0.02, due_s - elapsed_s);
        std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
      }
    }
    if (stopping_.load()) return false;
  } while (off < total);
  return true;
}

void LogShipper::session_loop(std::uint64_t session_id,
                              net::TcpConnection conn) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    live_conns_[session_id] = &conn;
  }
  const bool want_ack = opts_.ack_mode != ReplAckMode::kNone;
  bool joined = false;
  std::uint64_t follower_id = 0;

  // Heartbeats grant the lease followers' failure detectors watch. One
  // goes out right after the hello (the lease starts with the session),
  // then at least every heartbeat_interval_ms.
  auto last_heartbeat = std::chrono::steady_clock::time_point::min();
  const auto maybe_heartbeat = [&]() -> bool {
    // A fenced leader grants no leases: its heartbeats would suppress
    // the very elections that replace it.
    if (fenced_.load()) return false;
    if (opts_.heartbeat_interval_ms <= 0) return true;
    const auto now = std::chrono::steady_clock::now();
    if (last_heartbeat != std::chrono::steady_clock::time_point::min() &&
        now - last_heartbeat <
            std::chrono::milliseconds(opts_.heartbeat_interval_ms))
      return true;
    net::ReplHeartbeatMessage hb;
    hb.epoch = epoch_;
    {
      std::lock_guard<std::mutex> lock(watermark_mu_);
      hb.committed_seq = watermark_;
    }
    hb.lease_ms = opts_.lease_ms != 0
                      ? opts_.lease_ms
                      : static_cast<std::uint32_t>(
                            3 * opts_.heartbeat_interval_ms);
    {
      std::lock_guard<std::mutex> lock(advertise_mu_);
      hb.leader_addr = opts_.advertise_leader_addr;
    }
    if (!conn.send_frame(net::encode_frame(
            net::MessageType::kReplHeartbeat,
            seal_repl_payload(opts_.key, net::MessageType::kReplHeartbeat,
                              hb.serialize()))))
      return false;
    ++heartbeats_sent_;
    last_heartbeat = now;
    return true;
  };

  // A follower that refused one of our frames as stale replies with an
  // unsolicited ReplAck carrying its (higher) promised epoch before
  // hanging up — the step-down signal. Every solicited ack is consumed
  // synchronously, so anything found by this short poll is that signal
  // (or a harmless duplicate). True = nothing pending, session fine;
  // false = session over (fenced, peer gone, or garbage).
  const auto drain_acks = [&](int deadline_ms) -> bool {
    conn.set_deadline_ms(deadline_ms);
    bool ok = false;
    for (;;) {
      auto frame = conn.recv_frame();
      if (!frame) {
        ok = conn.last_error() == net::NetError::kTimeout;
        break;
      }
      try {
        const net::Frame f = net::decode_frame(*frame);
        if (f.type != net::MessageType::kReplAck) break;
        const auto body =
            open_repl_payload(opts_.key, net::MessageType::kReplAck, f.payload);
        if (!body) {
          ++auth_failed_;
          if (opts_.trace)
            opts_.trace->event("repl_auth_failed", {{"where", "ack_drain"}});
          break;
        }
        const auto ack = net::ReplAckMessage::deserialize(*body);
        if (ack.epoch > epoch_) {
          fence(ack.epoch);
          break;
        }
        tracker_.ack(session_id, ack.durable_seq);
      } catch (const net::CodecError&) {
        break;
      }
    }
    conn.set_deadline_ms(opts_.io_deadline_ms);
    return ok;
  };

  // One follower session: hello, then stream batches (or a chunked
  // snapshot when compaction pruned the follower's resume point) until
  // disconnect, with heartbeats interleaved throughout.
  do {
    auto hello_frame = conn.recv_frame();
    if (!hello_frame) break;
    net::ReplHelloMessage hello;
    try {
      const net::Frame f = net::decode_frame(*hello_frame);
      if (f.type != net::MessageType::kReplHello) break;
      const auto body =
          open_repl_payload(opts_.key, net::MessageType::kReplHello, f.payload);
      if (!body) {
        // Dropped, NOT fenced: without the key this hello proves
        // nothing about epochs.
        ++auth_failed_;
        if (opts_.trace)
          opts_.trace->event("repl_auth_failed", {{"where", "hello"}});
        break;
      }
      hello = net::ReplHelloMessage::deserialize(*body);
    } catch (const net::CodecError&) {
      break;
    }
    if (hello.epoch > epoch_) {
      fence(hello.epoch);
      break;
    }
    // Every stream is instance 0 (a pool does not replicate): a hello
    // tagged for another instance is foreign input; drop it before any
    // record ships. Not a fencing event — its epoch may be valid.
    if (hello.instance_id != 0) {
      if (opts_.trace)
        opts_.trace->event("repl_instance_mismatch",
                           {{"follower_id", hello.follower_id},
                            {"hello_instance", hello.instance_id}});
      break;
    }
    follower_id = hello.follower_id;
    ++followers_connected_;
    tracker_.join(session_id);
    joined = true;
    // The follower already durably holds everything through its hello
    // position, so it counts toward quorums immediately.
    tracker_.ack(session_id, hello.last_seq);
    if (opts_.trace)
      opts_.trace->event("repl_follower_connected",
                         {{"follower_id", follower_id},
                          {"last_seq", hello.last_seq},
                          {"epoch", hello.epoch}});

    std::uint64_t cursor = hello.last_seq;
    // Where this session's last batch ended in the WAL: batches resume
    // there instead of rescanning the segment (a snapshot moves `cursor`
    // off it, and the next read falls back to a scan).
    store::WalReadPos read_pos;
    bool alive = true;
    if (!maybe_heartbeat()) break;

    // Resume a chunked snapshot the follower held partially from a
    // previous connection — but only when the cache still has that exact
    // serialization (offsets into a different serialization of the same
    // version would corrupt the reassembly).
    if (hello.snapshot_version != 0) {
      std::shared_ptr<const net::Bytes> blob;
      {
        std::lock_guard<std::mutex> lock(snap_cache_mu_);
        if (snap_cache_ && snap_cache_version_ == hello.snapshot_version &&
            hello.snapshot_offset < snap_cache_->size())
          blob = snap_cache_;
      }
      if (blob && hello.snapshot_version > cursor) {
        bool fenced_session = false;
        if (opts_.trace)
          opts_.trace->event("repl_snapshot_resumed",
                             {{"follower_id", follower_id},
                              {"version", hello.snapshot_version},
                              {"offset", hello.snapshot_offset}});
        if (!ship_snapshot_chunks(conn, session_id, hello.snapshot_version,
                                  *blob, hello.snapshot_offset, want_ack,
                                  &fenced_session, maybe_heartbeat))
          break;
        ++snapshots_shipped_;
        cursor = hello.snapshot_version;
      }
    }

    while (alive && !stopping_.load() && !fenced_.load()) {
      if (!maybe_heartbeat()) break;
      std::uint64_t watermark;
      {
        std::lock_guard<std::mutex> lock(watermark_mu_);
        watermark = watermark_;
      }
      const std::uint64_t read_before = read_pos.bytes_read;
      ShipBatch batch =
          next_ship_batch(store_.dir(), cursor, watermark,
                          opts_.batch_max_records, opts_.batch_max_bytes,
                          &read_pos);
      wal_read_bytes_ +=
          static_cast<long long>(read_pos.bytes_read - read_before);

      if (batch.gap) {
        // Compaction already pruned cursor+1: ship the full state in
        // bounded chunks and resume streaming above the snapshot's
        // version. The snapshot may run ahead of the committed watermark
        // (records applied in memory but still pending durability ride
        // along); that is the nacked-but-durable-on-the-follower
        // direction, which breaks no promise.
        const core::ServerCheckpoint cp = core::checkpoint_server(server_);
        auto blob = std::make_shared<const net::Bytes>(cp.serialize());
        {
          std::lock_guard<std::mutex> lock(snap_cache_mu_);
          snap_cache_version_ = cp.version;
          snap_cache_ = blob;
        }
        bool fenced_session = false;
        if (!ship_snapshot_chunks(conn, session_id, cp.version, *blob, 0,
                                  want_ack, &fenced_session,
                                  maybe_heartbeat)) {
          if (fenced_session) alive = false;
          break;
        }
        ++snapshots_shipped_;
        if (opts_.trace)
          opts_.trace->event("repl_snapshot_shipped",
                             {{"follower_id", follower_id},
                              {"version", cp.version},
                              {"bytes", blob->size()}});
        cursor = cp.version;
      } else if (batch.records.empty()) {
        // Caught up: first a short socket poll for the refusal ack a
        // deposed leader would otherwise never read (nothing solicited
        // is in flight here), then sleep until the next commit (or
        // shutdown/fencing), waking often enough that heartbeats never
        // miss their interval.
        if (!drain_acks(1)) break;
        std::unique_lock<std::mutex> lock(watermark_mu_);
        watermark_cv_.wait_for(lock, std::chrono::milliseconds(20), [&] {
          return stopping_.load() || watermark_ > cursor;
        });
        continue;
      } else {
        const auto started = std::chrono::steady_clock::now();
        net::ReplAppendMessage append;
        append.epoch = epoch_;
        append.want_ack = want_ack;
        append.records.reserve(batch.records.size());
        for (auto& rec : batch.records)
          append.records.push_back({rec.seq, std::move(rec.payload)});
        if (!conn.send_frame(net::encode_frame(
                net::MessageType::kReplAppend,
                seal_repl_payload(opts_.key, net::MessageType::kReplAppend,
                                  append.serialize()))))
          break;
        cursor = batch.records.back().seq;
        records_shipped_ += static_cast<long long>(batch.records.size());
        if (want_ack) {
          auto ack_frame = conn.recv_frame();
          if (!ack_frame) break;
          try {
            const net::Frame f = net::decode_frame(*ack_frame);
            if (f.type != net::MessageType::kReplAck) break;
            const auto body = open_repl_payload(
                opts_.key, net::MessageType::kReplAck, f.payload);
            if (!body) {
              ++auth_failed_;
              if (opts_.trace)
                opts_.trace->event("repl_auth_failed", {{"where", "ack"}});
              break;
            }
            const auto ack = net::ReplAckMessage::deserialize(*body);
            if (ack.epoch > epoch_) {
              fence(ack.epoch);
              alive = false;
              break;
            }
            tracker_.ack(session_id, ack.durable_seq);
          } catch (const net::CodecError&) {
            break;
          }
          ship_seconds_.observe(
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            started)
                  .count());
        } else {
          // kNone: record the shipped position so lag is still reported;
          // this is *not* a durability claim and kNone never gates acks.
          tracker_.ack(session_id, cursor);
        }
      }

      // Lag = committed tail minus the laggiest live follower.
      std::uint64_t tail;
      {
        std::lock_guard<std::mutex> lock(watermark_mu_);
        tail = watermark_;
      }
      const std::uint64_t floor = tracker_.min_acked();
      lag_records_.set(tail > floor ? static_cast<double>(tail - floor) : 0.0);
    }
    // The session usually ends because a send failed — and a follower
    // that refused us hangs up right after its refusal ack, so that ack
    // may still be sitting in the receive buffer. Read it out; without
    // this a deposed leader under continuous traffic reconnects forever
    // instead of stepping down.
    if (alive && !stopping_.load() && !fenced_.load()) drain_acks(50);
  } while (false);

  if (joined) {
    tracker_.leave(session_id);
    if (tracker_.sessions() == 0) lag_records_.set(0.0);
    if (opts_.trace)
      opts_.trace->event("repl_follower_disconnected",
                         {{"follower_id", follower_id}});
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    live_conns_.erase(session_id);
  }
}

void LogShipper::set_advertise_leader_addr(const std::string& addr) {
  std::lock_guard<std::mutex> lock(advertise_mu_);
  opts_.advertise_leader_addr = addr;
}

void LogShipper::shutdown() {
  if (stopping_.exchange(true)) return;
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [_, conn] : live_conns_) conn->shutdown_both();
  }
  watermark_cv_.notify_all();
  tracker_.wake();
  for (auto& t : session_threads_)
    if (t.joinable()) t.join();
  session_threads_.clear();
}

}  // namespace crowdml::replica
