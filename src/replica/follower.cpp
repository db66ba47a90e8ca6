#include "replica/follower.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "net/messages.hpp"
#include "obs/profile.hpp"

namespace crowdml::replica {

namespace {

obs::MetricsRegistry& registry_of(const FollowerOptions& opts) {
  return opts.metrics ? *opts.metrics : obs::default_registry();
}

}  // namespace

Follower::Follower(core::Server& server, std::string dir,
                   FollowerOptions options)
    : server_(server),
      dir_(std::move(dir)),
      opts_(std::move(options)),
      epoch_store_(opts_.epoch_dir.empty() ? dir_ : opts_.epoch_dir),
      witnessed_store_(opts_.epoch_dir.empty() ? dir_ : opts_.epoch_dir,
                       "witnessed-epoch"),
      detector_(opts_.detector,
                rng::Engine(opts_.rng_seed ^
                            (opts_.follower_id * 0x9E3779B97F4A7C15ULL + 1))),
      nonce_rng_(opts_.rng_seed ^
                 (opts_.follower_id * 0x9E3779B97F4A7C15ULL + 2)),
      records_applied_(registry_of(opts_).counter(
          "crowdml_repl_records_applied_total",
          "Shipped WAL records applied and made durable on this follower",
          obs::Provenance::kTransportEvent)),
      stale_frames_refused_(registry_of(opts_).counter(
          "crowdml_repl_stale_frames_refused_total",
          "Replication frames refused because their epoch predates the "
          "follower's promised epoch",
          obs::Provenance::kTransportEvent)),
      snapshots_installed_(registry_of(opts_).counter(
          "crowdml_repl_snapshots_installed_total",
          "Full-state snapshots installed to catch up past pruned history",
          obs::Provenance::kTransportEvent)),
      reconnects_(registry_of(opts_).counter(
          "crowdml_repl_reconnects_total",
          "Attempts to (re)connect to the leader's replication port",
          obs::Provenance::kTransportEvent)),
      lease_expirations_(registry_of(opts_).counter(
          "crowdml_repl_lease_expirations_total",
          "Leader leases that lapsed on this follower (the trigger for an "
          "election)",
          obs::Provenance::kTransportEvent)),
      elections_started_(registry_of(opts_).counter(
          "crowdml_repl_elections_started_total",
          "Candidacies this follower opened after its failure detector "
          "fired",
          obs::Provenance::kTransportEvent)),
      elections_won_(registry_of(opts_).counter(
          "crowdml_repl_elections_won_total",
          "Elections this follower won (each one is a promotion)",
          obs::Provenance::kTransportEvent)),
      elections_lost_(registry_of(opts_).counter(
          "crowdml_repl_elections_lost_total",
          "Candidacies that failed to reach a majority",
          obs::Provenance::kTransportEvent)),
      auth_failed_(registry_of(opts_).counter(
          "crowdml_repl_auth_failed_total",
          "Replication-plane frames dropped for a missing or invalid "
          "HMAC tag",
          obs::Provenance::kTransportEvent)),
      epoch_gauge_(registry_of(opts_).gauge(
          "crowdml_repl_epoch",
          "Highest replication epoch this node has durably promised to",
          obs::Provenance::kTransportEvent)),
      apply_seconds_(registry_of(opts_).histogram(
          "crowdml_repl_apply_seconds",
          "One shipped batch: deterministic replay + WAL append + fsync",
          obs::Provenance::kTiming)) {
  leader_host_ = opts_.leader_host;
  leader_port_ = opts_.leader_port;
  epoch_.store(epoch_store_.load());
  // The witness reloads from its own register, never from the promise: a
  // failed candidacy inflates the promise, and a restart must not turn
  // that into a hello that fences the live leader. (A restarted granter
  // still fences its deposed leader — via the refusal ack its stale
  // frames draw, not via the hello.) Clamped for the invariant; a
  // pre-upgrade directory simply has no witnessed register yet and
  // under-advertises at 0, which is always safe.
  witnessed_epoch_.store(std::min(epoch_.load(), witnessed_store_.load()));
  epoch_gauge_.set(static_cast<double>(epoch_.load()));
  store_ = std::make_unique<store::DurableStore>(dir_, opts_.store);
  recovery_ = store_->recover(server_);
}

Follower::~Follower() { shutdown(); }

void Follower::start() {
  if (thread_.joinable()) return;
  if (detector_.enabled()) {
    VoteListener::Options vo;
    vo.port = opts_.vote_port;
    vo.key = opts_.key;
    vo.metrics = opts_.metrics;
    vo.trace = opts_.trace;
    votes_ = std::make_unique<VoteListener>(
        std::move(vo),
        [this](const net::ReplVoteMessage& req) { return grant_vote(req); });
    if (!votes_->start()) {
      votes_.reset();
      throw std::runtime_error("vote listener bind failed on port " +
                               std::to_string(opts_.vote_port));
    }
    // A leader that never appears is as dead as one that crashed: the
    // detector starts counting from here, not from the first heartbeat.
    detector_.arm();
  }
  thread_ = std::thread([this] { run(); });
}

void Follower::shutdown() {
  if (stopping_.exchange(true)) {
    if (votes_) votes_->shutdown();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (live_conn_) live_conn_->shutdown_both();
  }
  if (thread_.joinable()) thread_.join();
  // After the replication thread is gone: the listener port must be free
  // before the promotion handoff binds its shipper there.
  if (votes_) votes_->shutdown();
}

std::uint16_t Follower::vote_port() const {
  return votes_ ? votes_->port() : 0;
}

std::uint64_t Follower::read_lag() const {
  const std::uint64_t committed = leader_committed_.load();
  const std::uint64_t applied = server_.version();
  return committed > applied ? committed - applied : 0;
}

void Follower::set_leader_address(const std::string& host,
                                  std::uint16_t port) {
  std::lock_guard<std::mutex> lock(leader_mu_);
  leader_host_ = host;
  leader_port_ = port;
}

std::uint64_t Follower::durable_position() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return durable_position_locked();
}

std::uint64_t Follower::durable_position_locked() const {
  if (!store_) return recovery_.recovered_version;
  return std::max(recovery_.recovered_version, store_->wal().last_seq());
}

void Follower::set_fatal(const std::string& reason) {
  fatal_.store(true);
  if (opts_.trace)
    opts_.trace->event("repl_follower_fatal", {{"reason", reason}});
}

bool Follower::accept_epoch(std::uint64_t frame_epoch) {
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  const std::uint64_t promised = epoch_.load();
  if (frame_epoch < promised) {
    ++stale_frames_refused_;
    if (opts_.trace)
      opts_.trace->event("repl_stale_frame_refused",
                         {{"frame_epoch", frame_epoch},
                          {"promised_epoch", promised}});
    return false;
  }
  if (frame_epoch > promised) {
    // Durable before honored: a crash after this point must still refuse
    // the old term on restart.
    try {
      epoch_store_.store(frame_epoch);
    } catch (const EpochError& e) {
      if (opts_.trace)
        opts_.trace->event("repl_epoch_store_failed", {{"reason", e.what()}});
      return false;  // drop the connection; retry later
    }
    epoch_.store(frame_epoch);
    epoch_gauge_.set(static_cast<double>(frame_epoch));
    if (opts_.trace)
      opts_.trace->event("repl_epoch_adopted", {{"epoch", frame_epoch}});
  }
  // An accepted frame is proof some leader speaks this epoch — the only
  // kind of epoch the hello may fence a leader with. Persisted to its
  // own register (best-effort: the witness is an advertisement floor,
  // not a safety promise — an unwritable register just means a restart
  // under-advertises, which can never fence anyone wrongly).
  if (frame_epoch > witnessed_epoch_.load()) {
    try {
      witnessed_store_.store(frame_epoch);
    } catch (const EpochError& e) {
      if (opts_.trace)
        opts_.trace->event("repl_witnessed_store_failed",
                           {{"reason", e.what()}});
    }
    witnessed_epoch_.store(frame_epoch);
  }
  return true;
}

void Follower::send_refusal_ack(net::TcpConnection& conn) {
  net::ReplAckMessage ack;
  // The promise, not the witness: this is the step-down signal. A leader
  // whose epoch is below it learns it was deposed, fences, and stops
  // heartbeating — which is what lets its healthy followers elect a
  // successor instead of nacking writes behind a zombie's leases.
  ack.epoch = epoch_.load();
  ack.durable_seq = durable_position();
  conn.send_frame(net::encode_frame(
      net::MessageType::kReplAck,
      seal_repl_payload(opts_.key, net::MessageType::kReplAck,
                        ack.serialize())));
}

void Follower::run() {
  int backoff = opts_.reconnect_backoff_ms;
  while (!stopping_.load() && !fatal_.load() && !promoted_.load()) {
    if (detector_.due()) {
      try_elect();
      continue;
    }
    std::string host;
    std::uint16_t port;
    {
      std::lock_guard<std::mutex> lock(leader_mu_);
      host = leader_host_;
      port = leader_port_;
    }
    ++reconnects_;
    auto conn =
        net::TcpConnection::connect(host, port, opts_.connect_timeout_ms);
    if (!conn) {
      // Interruptible backoff, capped — and sliced so a dead leader still
      // trips the election deadline between attempts.
      for (int slept = 0; slept < backoff && !stopping_.load() &&
                          !detector_.due();
           slept += 20)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      backoff = std::min(backoff * 2, opts_.reconnect_backoff_max_ms);
      continue;
    }
    backoff = opts_.reconnect_backoff_ms;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      live_conn_ = &*conn;
    }
    if (stopping_.load()) {
      std::lock_guard<std::mutex> lock(conn_mu_);
      live_conn_ = nullptr;
      break;
    }
    const ServeResult outcome = serve_connection(*conn);
    connected_.store(false);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      live_conn_ = nullptr;
    }
    if (outcome == ServeResult::kFatal) break;
    // kElect loops to the top, where detector_.due() routes into
    // try_elect; kReconnect just reconnects (possibly to a new leader,
    // when a granted vote retargeted us mid-session).
  }
}

Follower::ServeResult Follower::serve_connection(net::TcpConnection& conn) {
  net::ReplHelloMessage hello;
  hello.follower_id = opts_.follower_id;
  // Advertise the witnessed epoch, not the promised one: a candidacy
  // that never won must not depose the leader it failed to replace.
  hello.epoch = witnessed_epoch_.load();
  hello.last_seq = durable_position();
  // Resume an interrupted chunked snapshot at its first missing byte.
  hello.snapshot_version = pending_snap_version_;
  hello.snapshot_offset = static_cast<std::uint64_t>(pending_snap_.size());
  conn.set_deadline_ms(opts_.io_deadline_ms);
  if (!conn.send_frame(net::encode_frame(
          net::MessageType::kReplHello,
          seal_repl_payload(opts_.key, net::MessageType::kReplHello,
                            hello.serialize()))))
    return ServeResult::kReconnect;
  connected_.store(true);
  if (opts_.trace)
    opts_.trace->event("repl_connected", {{"last_seq", hello.last_seq},
                                          {"epoch", hello.epoch}});

  while (!stopping_.load()) {
    // Wait for the next frame. With the detector enabled the wait is
    // sliced so a silent leader still trips the election deadline;
    // without it, block indefinitely (shutdown_both unblocks this).
    // Individual sends get the I/O deadline back.
    conn.set_deadline_ms(detector_.enabled() ? opts_.heartbeat_poll_ms
                                             : net::TcpConnection::kNoDeadline);
    auto frame = conn.recv_frame();
    if (!frame) {
      if (detector_.enabled() &&
          conn.last_error() == net::NetError::kTimeout) {
        if (detector_.due()) return ServeResult::kElect;
        continue;  // poll slice expired; the leader is merely quiet
      }
      return ServeResult::kReconnect;
    }
    conn.set_deadline_ms(opts_.io_deadline_ms);

    net::Frame f;
    try {
      f = net::decode_frame(*frame);
    } catch (const net::CodecError&) {
      return ServeResult::kReconnect;  // corrupt frame: reconnect
    }
    const auto body = open_repl_payload(opts_.key, f.type, f.payload);
    if (!body) {
      // Unauthenticated frames are dropped, never honored and never
      // fenced on: without the key they prove nothing about epochs.
      ++auth_failed_;
      if (opts_.trace)
        opts_.trace->event("repl_auth_failed", {{"where", "follower"}});
      return ServeResult::kReconnect;
    }

    bool want_ack = false;
    if (f.type == net::MessageType::kReplHeartbeat) {
      net::ReplHeartbeatMessage hb;
      try {
        hb = net::ReplHeartbeatMessage::deserialize(*body);
      } catch (const net::CodecError&) {
        return ServeResult::kReconnect;
      }
      if (!accept_epoch(hb.epoch)) {
        send_refusal_ack(conn);
        return ServeResult::kReconnect;
      }
      lease_.renew(hb.epoch, hb.committed_seq, hb.lease_ms);
      std::uint64_t seen = leader_committed_.load();
      while (seen < hb.committed_seq &&
             !leader_committed_.compare_exchange_weak(seen, hb.committed_seq))
        ;
      detector_.observe();
      bool leader_addr_changed = false;
      if (!hb.leader_addr.empty()) {
        std::lock_guard<std::mutex> lock(leader_mu_);
        if (hb.leader_addr != last_leader_device_addr_) {
          last_leader_device_addr_ = hb.leader_addr;
          leader_addr_changed = true;
        }
      }
      if (leader_addr_changed && opts_.on_leader_changed)
        opts_.on_leader_changed(hb.leader_addr);
      continue;  // heartbeats are fire-and-forget
    } else if (f.type == net::MessageType::kReplAppend) {
      net::ReplAppendMessage append;
      try {
        append = net::ReplAppendMessage::deserialize(*body);
      } catch (const net::CodecError&) {
        return ServeResult::kReconnect;
      }
      if (!accept_epoch(append.epoch)) {
        send_refusal_ack(conn);
        return ServeResult::kReconnect;
      }
      // Every stream is instance 0 (a pool does not replicate): records
      // tagged for another instance are foreign and must never enter
      // this log. Drop and reconnect (backoff keeps the spin bounded).
      if (append.instance_id != 0) {
        if (opts_.trace)
          opts_.trace->event("repl_instance_mismatch",
                             {{"batch_instance", append.instance_id}});
        return ServeResult::kReconnect;
      }
      detector_.observe();  // any authed leader frame is liveness
      {
        obs::TimedScope timer(apply_seconds_);
        if (!apply_records(append.records)) return ServeResult::kFatal;
      }
      want_ack = append.want_ack;
    } else if (f.type == net::MessageType::kReplSnapshot) {
      net::ReplSnapshotMessage snap;
      try {
        snap = net::ReplSnapshotMessage::deserialize(*body);
      } catch (const net::CodecError&) {
        return ServeResult::kReconnect;
      }
      if (!accept_epoch(snap.epoch)) {
        send_refusal_ack(conn);
        return ServeResult::kReconnect;
      }
      detector_.observe();
      const ServeResult chunk = handle_snapshot_chunk(snap);
      if (chunk != ServeResult::kContinue) return chunk;
      want_ack = snap.want_ack;
    } else {
      return ServeResult::kReconnect;  // protocol abuse
    }

    if (opts_.on_applied) opts_.on_applied();
    if (want_ack) {
      net::ReplAckMessage ack;
      ack.epoch = witnessed_epoch_.load();
      ack.durable_seq = durable_position();
      if (!conn.send_frame(net::encode_frame(
              net::MessageType::kReplAck,
              seal_repl_payload(opts_.key, net::MessageType::kReplAck,
                                ack.serialize()))))
        return ServeResult::kReconnect;
    }
  }
  return ServeResult::kReconnect;
}

bool Follower::apply_records(const std::vector<net::ReplRecord>& records) {
  const std::uint64_t durable = durable_position();
  store::WalBatch to_append;
  for (const auto& rec : records) {
    if (rec.seq <= durable) continue;  // already held durably; idempotent
    if (rec.seq <= server_.version()) {
      // Applied in memory on a previous connection but its append never
      // completed: persist without re-applying, closing the hole.
      to_append.add(rec.seq, rec.payload);
      continue;
    }
    if (rec.seq != server_.version() + 1) {
      set_fatal("replication gap: got seq " + std::to_string(rec.seq) +
                " at version " + std::to_string(server_.version()));
      return false;
    }
    if (store::is_opaque_record(rec.payload)) {
      // Multimodel overwrite record: apply through the same hook
      // recovery uses, so the live-replication path and the
      // crash-recovery path produce identical state.
      if (!opts_.store.opaque_replay) {
        set_fatal("opaque record " + std::to_string(rec.seq) +
                  " shipped to a follower with no opaque_replay handler "
                  "(multimodel stream into a single-model follower?)");
        return false;
      }
      try {
        opts_.store.opaque_replay(server_, rec.seq, rec.payload);
      } catch (const std::exception& e) {
        set_fatal("opaque record " + std::to_string(rec.seq) +
                  " failed to apply (" + e.what() + ")");
        return false;
      }
      if (server_.version() != rec.seq) {
        set_fatal("opaque replay diverged at seq " + std::to_string(rec.seq));
        return false;
      }
      to_append.add(rec.seq, rec.payload);
      continue;
    }
    net::CheckinMessage msg;
    try {
      msg = net::CheckinMessage::deserialize(rec.payload);
    } catch (const net::CodecError& e) {
      set_fatal("undecodable shipped record " + std::to_string(rec.seq) +
                " (" + e.what() + ")");
      return false;
    }
    const net::AckMessage ack = server_.handle_checkin(msg);
    if (!ack.ok || server_.version() != rec.seq) {
      // The leader applied this record; a faithful replica must too. A
      // rejection here means configs diverge — refuse to guess.
      set_fatal("replay diverged at seq " + std::to_string(rec.seq) +
                (ack.ok ? "" : (": " + ack.reason)));
      return false;
    }
    to_append.add(rec.seq, rec.payload);
  }
  if (!to_append.empty()) {
    try {
      store_->wal().append(to_append);
      store_->wal().sync();
    } catch (const store::WalError& e) {
      // Acking would claim durability we do not have.
      set_fatal(std::string("follower wal append failed: ") + e.what());
      return false;
    }
    records_applied_ += static_cast<long long>(to_append.size());
  }
  return true;
}

bool Follower::compact() {
  std::lock_guard<std::mutex> store_lock(store_mu_);
  if (!store_ || fatal_.load()) return false;
  return store_->compact(server_);
}

Follower::ServeResult Follower::handle_snapshot_chunk(
    const net::ReplSnapshotMessage& snap) {
  // Reassemble bounded chunks into the pending buffer; a (version,
  // offset) that does not extend it contiguously means the transfer
  // restarted or desynced — reset and reconnect so the hello renegotiates
  // the resume point (offset 0 of a new version just begins fresh).
  if (snap.version != pending_snap_version_ ||
      snap.total_bytes != pending_snap_total_ ||
      snap.offset != pending_snap_.size()) {
    if (snap.offset != 0) {
      pending_snap_version_ = 0;
      pending_snap_total_ = 0;
      pending_snap_.clear();
      if (opts_.trace)
        opts_.trace->event("repl_snapshot_desync",
                           {{"version", snap.version},
                            {"offset", snap.offset}});
      return ServeResult::kReconnect;
    }
    pending_snap_version_ = snap.version;
    pending_snap_total_ = snap.total_bytes;
    pending_snap_.clear();
    pending_snap_.reserve(static_cast<std::size_t>(snap.total_bytes));
  }
  pending_snap_.insert(pending_snap_.end(), snap.checkpoint.begin(),
                       snap.checkpoint.end());
  if (!snap.last_chunk()) return ServeResult::kContinue;

  const std::uint64_t version = pending_snap_version_;
  net::Bytes blob = std::move(pending_snap_);
  pending_snap_version_ = 0;
  pending_snap_total_ = 0;
  pending_snap_.clear();
  if (!install_snapshot(version, blob)) return ServeResult::kFatal;
  return ServeResult::kContinue;
}

bool Follower::install_snapshot(std::uint64_t version,
                                const net::Bytes& checkpoint) {
  if (version <= durable_position()) return true;  // stale; just ack
  core::ServerCheckpoint cp;
  try {
    cp = core::ServerCheckpoint::deserialize(checkpoint);
  } catch (const net::CodecError& e) {
    set_fatal(std::string("undecodable shipped snapshot: ") + e.what());
    return false;
  }
  std::lock_guard<std::mutex> store_lock(store_mu_);
  try {
    // Replace local history wholesale: drop the store handle, clear the
    // old log (its records are all below the snapshot), write the
    // shipped checkpoint as a normal snapshot file, and recover from it
    // through the standard path.
    store_.reset();
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal-", 0) == 0) std::filesystem::remove(entry.path());
    }
    cp.save_file(dir_ + "/" +
                 store::DurableStore::snapshot_filename(cp.version));
    store_ = std::make_unique<store::DurableStore>(dir_, opts_.store);
    recovery_ = store_->recover(server_);
  } catch (const std::exception& e) {
    set_fatal(std::string("snapshot install failed: ") + e.what());
    return false;
  }
  if (server_.version() != version) {
    set_fatal("snapshot version mismatch: installed " +
              std::to_string(server_.version()) + ", shipped " +
              std::to_string(version));
    return false;
  }
  ++snapshots_installed_;
  if (opts_.trace)
    opts_.trace->event("repl_snapshot_installed", {{"version", version}});
  return true;
}

net::ReplVoteMessage Follower::grant_vote(const net::ReplVoteMessage& req) {
  net::ReplVoteMessage resp;
  resp.request = false;
  // Echo the campaign's identity: a ballot is bound to one request from
  // one candidate, so a captured grant cannot be replayed into a
  // concurrent candidate's election (see ReplVoteMessage::nonce).
  resp.candidate_id = req.candidate_id;
  resp.nonce = req.nonce;

  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  const std::uint64_t promised = epoch_.load();
  const std::uint64_t mine = durable_position();
  resp.last_seq = mine;

  // A live lease means our leader is demonstrably alive: refuse without
  // adopting the proposed epoch, so one follower's spurious detector (a
  // blip on just its link) cannot assemble a majority against a healthy
  // leader. A candidate only wins once a majority has actually watched
  // the leader go silent — the check-quorum/pre-vote discipline.
  if (lease_.held()) {
    resp.granted = false;
    resp.epoch = promised;
    if (opts_.trace)
      opts_.trace->event("election_vote_refused_lease_held",
                         {{"epoch", req.epoch},
                          {"candidate_id", req.candidate_id},
                          {"lease_remaining_ms", lease_.remaining_ms()}});
    return resp;
  }

  // Grant iff the proposed term is news AND the candidate's durable log
  // is at least as long as ours — the Raft voting rule, which keeps any
  // winner a superset of every acked checkin (see failure_detector.hpp).
  if (req.epoch > promised && req.last_seq >= mine) {
    try {
      // Durable before granted: the grant *is* the promise, and it must
      // survive a crash or two candidates could win the same epoch.
      epoch_store_.store(req.epoch);
    } catch (const EpochError& e) {
      if (opts_.trace)
        opts_.trace->event("repl_epoch_store_failed", {{"reason", e.what()}});
      resp.granted = false;
      resp.epoch = promised;
      return resp;
    }
    epoch_.store(req.epoch);
    epoch_gauge_.set(static_cast<double>(req.epoch));
    resp.granted = true;
    resp.epoch = req.epoch;
    // Follow the winner: replicate from its advertised address, repoint
    // device redirects, and sever the old leader's session (its next
    // frame would be refused as stale anyway).
    bool leader_addr_changed = false;
    {
      std::lock_guard<std::mutex> lock(leader_mu_);
      if (const auto hp = net::split_host_port(req.repl_addr)) {
        leader_host_ = hp->first;
        leader_port_ = hp->second;
      }
      if (!req.device_addr.empty() &&
          req.device_addr != last_leader_device_addr_) {
        last_leader_device_addr_ = req.device_addr;
        leader_addr_changed = true;
      }
    }
    if (leader_addr_changed && opts_.on_leader_changed)
      opts_.on_leader_changed(req.device_addr);
    {
      std::lock_guard<std::mutex> conn_lock(conn_mu_);
      if (live_conn_) live_conn_->shutdown_both();
    }
    // Fresh grace period for the new leader to start heartbeating.
    detector_.arm();
    if (opts_.trace)
      opts_.trace->event("election_vote_granted",
                         {{"epoch", req.epoch},
                          {"candidate_id", req.candidate_id},
                          {"candidate_last_seq", req.last_seq}});
  } else {
    // Refusals do NOT adopt the proposed epoch: a blackholed candidate
    // spamming doomed candidacies must not cascade-fence a live leader.
    resp.granted = false;
    resp.epoch = promised;
    if (opts_.trace)
      opts_.trace->event("election_vote_refused",
                         {{"epoch", req.epoch},
                          {"candidate_id", req.candidate_id},
                          {"candidate_last_seq", req.last_seq},
                          {"promised_epoch", promised},
                          {"own_last_seq", mine}});
  }
  return resp;
}

void Follower::try_elect() {
  if (lease_.held()) {
    // The detector fired but the lease says the leader is still alive
    // (possible when the lease outlasts the election timeout). Trust the
    // lease — the same rule electors apply to us — rather than inflate
    // the promised epoch with a campaign nobody may grant.
    if (opts_.trace)
      opts_.trace->event("election_suppressed_lease_held",
                         {{"lease_remaining_ms", lease_.remaining_ms()}});
    detector_.arm();
    return;
  }
  if (lease_.expired()) {
    ++lease_expirations_;
    if (opts_.trace)
      opts_.trace->event("repl_lease_expired",
                         {{"epoch", lease_.epoch()},
                          {"remaining_ms", lease_.remaining_ms()}});
  }
  std::uint64_t proposed;
  {
    std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
    proposed = epoch_.load() + 1;
    try {
      // Durable before solicited: our own ballot is a promise too.
      epoch_store_.store(proposed);
    } catch (const EpochError& e) {
      set_fatal(std::string("epoch store failed during candidacy: ") +
                e.what());
      return;
    }
    epoch_.store(proposed);
    epoch_gauge_.set(static_cast<double>(proposed));
  }
  ++elections_started_;
  if (opts_.trace)
    opts_.trace->event("election_started",
                       {{"epoch", proposed},
                        {"candidate_id", opts_.follower_id},
                        {"peers", opts_.peers.size()}});

  ElectionOptions eo;
  eo.epoch = proposed;
  eo.candidate_id = opts_.follower_id;
  eo.last_seq = durable_position();
  eo.nonce = nonce_rng_();
  eo.device_addr = opts_.device_addr;
  eo.repl_addr = opts_.advertise_host + ":" + std::to_string(vote_port());
  eo.peers = opts_.peers;
  eo.key = opts_.key;
  eo.trace = opts_.trace;
  const ElectionResult result = run_election(eo);

  if (result.won) {
    ++elections_won_;
    promoted_.store(true);
    if (opts_.trace)
      opts_.trace->event("election_won", {{"epoch", proposed},
                                          {"grants", result.grants},
                                          {"electorate", result.electorate}});
    return;
  }
  ++elections_lost_;
  if (opts_.trace)
    opts_.trace->event("election_lost",
                       {{"epoch", proposed},
                        {"grants", result.grants},
                        {"electorate", result.electorate},
                        {"higher_epoch_seen", result.higher_epoch_seen}});
  if (result.higher_epoch_seen > proposed) {
    // Someone promised further ahead; adopt so the next candidacy is not
    // dead on arrival (accept_epoch's durable-before-honored rules).
    accept_epoch(result.higher_epoch_seen);
  }
  // De-synchronize the retry from whoever collided with us.
  detector_.arm();
}

}  // namespace crowdml::replica
