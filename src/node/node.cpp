#include "node/node.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/monitor.hpp"
#include "net/messages.hpp"
#include "opt/schedule.hpp"
#include "replica/epoch.hpp"
#include "shard/merge.hpp"

namespace crowdml::node {

namespace {

std::unique_ptr<opt::Updater> make_updater(const std::string& kind, double lr,
                                           double radius) {
  if (kind == "adagrad") return std::make_unique<opt::AdaGradUpdater>(lr, radius);
  if (kind == "momentum")
    return std::make_unique<opt::MomentumUpdater>(
        std::make_unique<opt::SqrtDecaySchedule>(lr), radius);
  if (kind == "dualavg")
    return std::make_unique<opt::DualAveragingUpdater>(lr, radius);
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(lr), radius);
}

std::string hex_key(const net::SecretKey& key) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : key) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

void report_recovery(const store::DurableStore::RecoveryInfo& info) {
  std::printf(
      "recovered state: iteration %llu (snapshot v%llu%s, %llu wal "
      "records replayed%s%s)\n",
      static_cast<unsigned long long>(info.recovered_version),
      static_cast<unsigned long long>(info.snapshot_version),
      info.snapshot_loaded ? "" : " [none]",
      static_cast<unsigned long long>(info.records_replayed),
      info.torn_tail_truncated ? ", torn tail truncated" : "",
      info.corrupt_snapshots_skipped > 0 ? ", corrupt snapshot skipped" : "");
}

/// The leader's group-commit hook: one fsync per applied batch instead of
/// one per checkin, and acks are held until it succeeds, so acked =>
/// durable. With a quorum shipper, acks also wait for a majority of
/// followers to durably append the batch (acked => replicated). Used at
/// start-up and by a follower's promotion.
std::function<bool()> leader_commit(store::DurableStore& store,
                                    replica::LogShipper* shipper) {
  return [&store, shipper] {
    if (!store.commit_group()) return false;
    if (!shipper) return true;
    shipper->notify_committed();
    return shipper->await_quorum(store.wal().last_seq());
  };
}

}  // namespace

std::unique_ptr<Node> Node::build(NodeConfig config) {
  if (const std::string refusal = validate(config); !refusal.empty())
    throw std::runtime_error(refusal);
  std::unique_ptr<Node> node(new Node(std::move(config)));
  node->open_stores();
  node->replicate();
  node->steer();
  node->discard();
  node->aggregate();
  node->partition();
  node->serve();
  return node;
}

Node::Node(NodeConfig config)
    : cfg_(std::move(config)),
      metrics_(cfg_.metrics ? *cfg_.metrics : obs::default_registry()),
      auth_(rng::Engine(cfg_.auth_seed)) {
  server_cfg_.param_dim =
      cfg_.classes >= 2 ? cfg_.classes * cfg_.dim : cfg_.dim;
  server_cfg_.num_classes = cfg_.classes >= 2 ? cfg_.classes : 1;
  server_cfg_.max_iterations = cfg_.max_iterations;
  server_cfg_.target_error = cfg_.target_error;
  if (!cfg_.trace_out.empty())
    trace_ = std::make_unique<obs::TraceSink>(cfg_.trace_out);
  if (cfg_.enroll > 0) {
    std::ofstream keys(cfg_.keys_out);
    for (long long i = 0; i < cfg_.enroll; ++i) {
      enrolled_.push_back(auth_.enroll());
      keys << enrolled_.back().device_id << ','
           << hex_key(enrolled_.back().key) << '\n';
    }
    std::printf("enrolled %lld devices; secrets in %s\n", cfg_.enroll,
                cfg_.keys_out.c_str());
  }
  // Sharded deployments namespace each shard's durability under one
  // --wal-dir (docs/SHARDING.md): shard i of k recovers from and appends
  // to <wal-dir>/shard-NNN, so co-located shards never share a log.
  wal_dir_ = cfg_.shard.enabled
                 ? shard::shard_wal_dir(cfg_.wal_dir, cfg_.shard.shard_id,
                                        cfg_.shard.map.size())
                 : cfg_.wal_dir;
  store_opts_.wal.fsync =
      store::parse_fsync_policy(cfg_.fsync, &store_opts_.wal.fsync_every);
  store_opts_.wal.segment_max_bytes = cfg_.segment_max_bytes;
  store_opts_.wal.metrics = &metrics_;
  store_opts_.trace = trace_.get();
  // Cross-shard merges and a pool's discard overwrites are logged as
  // opaque records; recovery (and a follower replaying this shard's WAL)
  // must re-apply them as overwrites. Each kind is harmless where it
  // cannot occur: no such record ever appears in that log.
  shard::install_merge_replay(store_opts_);
  multimodel::install_overwrite_replay(store_opts_);
  // Shared replication-plane HMAC key (empty = unauthenticated); it also
  // seals the shard merge plane.
  if (!cfg_.repl.repl_key_file.empty())
    repl_key_ = replica::load_repl_key_file(cfg_.repl.repl_key_file);
  std::string peers_error;
  peers_ = replica::parse_peer_list(cfg_.repl.peers, &peers_error);
  if (!peers_error.empty())
    throw std::runtime_error("--peers: " + peers_error);
}

Node::~Node() {
  if (follower_) follower_->shutdown();
}

std::unique_ptr<core::Server> Node::make_server(std::size_t i) const {
  rng::Engine eng(cfg_.seed);
  return std::make_unique<core::Server>(
      server_cfg_, make_updater(cfg_.updater, cfg_.lr, cfg_.radius),
      cfg_.model_instances > 1 ? eng.split(i) : eng);
}

// Servers and stores, one of each per model instance. Every store
// recovers its server strictly before the engine binds, so no device ever
// talks to a node that has not finished recovering. Instance i of k
// recovers from and appends to store::DurableStore::instance_dir (the
// --wal-dir itself when k = 1). A follower's replica store is owned by its
// replica::Follower, a leader's by its instance.
void Node::open_stores() {
  const std::size_t k = cfg_.model_instances;
  instances_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    Instance& in = instances_.emplace_back();
    in.server = make_server(i);
    const auto legacy = load_checkpoint(*in.server);
    if (cfg_.repl.role == "follower") {
      // A follower recovers from its local replica store, then streams
      // the leader's WAL (docs/REPLICATION.md); the engine redirects its
      // checkins to the leader until an election promotes it.
      // validate() has already refused an unparseable address.
      const auto leader = net::split_host_port(cfg_.repl.leader_addr);
      replica::FollowerOptions fopts;
      fopts.leader_host = leader->first;
      fopts.leader_port = leader->second;
      fopts.follower_id = static_cast<std::uint64_t>(cfg_.follower_id);
      fopts.store = store_opts_;
      fopts.epoch_dir = cfg_.repl.epoch_dir;
      fopts.on_applied = [this] { engine_->republish(); };
      fopts.detector.election_timeout_min_ms =
          static_cast<int>(cfg_.repl.election_timeout_ms);
      fopts.vote_port = cfg_.repl.vote_port;
      fopts.peers = peers_;
      fopts.advertise_host = cfg_.repl.advertise_host;
      fopts.key = repl_key_;
      fopts.rng_seed = static_cast<std::uint64_t>(cfg_.seed);
      fopts.on_leader_changed = [this](const std::string& addr) {
        engine_->set_checkin_redirect(addr);
      };
      fopts.metrics = &metrics_;
      fopts.trace = trace_.get();
      try {
        follower_ =
            std::make_unique<replica::Follower>(*in.server, wal_dir_, fopts);
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string("follower init failed: ") +
                                 e.what());
      }
      in.store = &follower_->store();
    } else if (!wal_dir_.empty()) {
      recover_or_refuse(in, store::DurableStore::instance_dir(wal_dir_, i, k),
                        legacy);
    }
  }
  for (const Instance& in : instances_)
    if (in.store) report_recovery(in.store->recovery_info());
}

// Missing state is a fresh start; *unreadable* state is refused unless
// the operator explicitly discards it — silent data loss must never
// masquerade as a fresh start.
std::optional<core::ServerCheckpoint> Node::load_checkpoint(
    core::Server& server) {
  const std::string& path = cfg_.checkpoint;
  if (path.empty()) return std::nullopt;
  if (!std::filesystem::exists(path)) {
    std::printf("no checkpoint at %s; starting fresh\n", path.c_str());
    return std::nullopt;
  }
  try {
    auto cp = core::ServerCheckpoint::load_file(path);
    server.restore(cp.w, cp.version, cp.device_stats);
    std::printf("restored checkpoint %s at iteration %llu\n", path.c_str(),
                static_cast<unsigned long long>(cp.version));
    return cp;
  } catch (const std::exception& e) {
    if (!cfg_.force_fresh)
      throw std::runtime_error("checkpoint " + path +
                               " exists but cannot be loaded (" + e.what() +
                               "); refusing to start — pass --force-fresh "
                               "to discard it");
    std::printf("checkpoint %s unreadable (%s); --force-fresh set, starting "
                "fresh\n",
                path.c_str(), e.what());
    return std::nullopt;
  }
}

// Recover a leader instance's store in `dir` (newest snapshot + WAL tail
// replay), or refuse; with --force-fresh a corrupt log is set aside
// instead. In a pool each instance directory is recovered, refused or set
// aside on its own.
void Node::recover_or_refuse(
    Instance& in, const std::string& dir,
    const std::optional<core::ServerCheckpoint>& legacy) {
  const auto recover = [&] {
    in.durable = std::make_unique<store::DurableStore>(dir, store_opts_);
    in.durable->recover(*in.server);
  };
  try {
    recover();
  } catch (const store::WalError& e) {
    if (!cfg_.force_fresh)
      throw std::runtime_error("wal recovery from " + dir + " failed (" +
                               e.what() +
                               "); refusing to start — pass --force-fresh "
                               "to set the corrupt log aside");
    // Preserve the evidence rather than deleting it, then start over.
    const std::string aside = dir + ".corrupt";
    try {
      std::filesystem::remove_all(aside);
      std::filesystem::rename(dir, aside);
    } catch (const std::filesystem::filesystem_error& fe) {
      throw std::runtime_error("cannot set corrupt wal " + dir + " aside (" +
                               fe.what() + ")");
    }
    std::printf("wal recovery failed (%s); --force-fresh set, corrupt state "
                "moved to %s\n",
                e.what(), aside.c_str());
    in.durable.reset();
    // The failed attempt may have replayed a prefix; reset to the legacy
    // checkpoint that loaded (if any) before recovering into the now-empty
    // store — only the WAL directory was corrupt, so the checkpoint's
    // state must not be discarded with it.
    if (legacy)
      in.server->restore(legacy->w, legacy->version, legacy->device_stats);
    else
      in.server->restore(linalg::Vector(server_cfg_.param_dim, 0.0), 0, {});
    try {
      recover();
    } catch (const store::WalError& e2) {
      throw std::runtime_error("cannot reinitialize durable store in " + dir +
                               " (" + e2.what() + ")");
    }
  }
  in.durable->set_group_commit(true);
  in.durable->attach(*in.server);
  in.store = in.durable.get();
}

// Leader shipping options, for a leader or a promoted follower. Leases:
// heartbeat at a third of the lease so one lost frame never looks like a
// dead leader.
replica::ShipperOptions Node::shipper_options(std::uint16_t port,
                                              replica::ReplAckMode ack,
                                              std::size_t followers,
                                              long long lease_ms) const {
  replica::ShipperOptions o;
  o.port = port;
  o.ack_mode = ack;
  o.quorum_follower_acks = replica::quorum_follower_acks_for(followers);
  o.lease_ms = static_cast<std::uint32_t>(lease_ms);
  o.heartbeat_interval_ms = std::max(1, static_cast<int>(lease_ms / 3));
  o.key = repl_key_;
  o.metrics = &metrics_;
  o.trace = trace_.get();
  return o;
}

// Replication plane of a leader (docs/REPLICATION.md): durably load or
// bump the fencing epoch, then ship the WAL on a dedicated port. A pool
// never gets here: validate() refuses pool plus replication. The
// device-facing redirect target is known only once the engine binds;
// serve() injects it.
void Node::replicate() {
  if (follower_ || !cfg_.repl.repl_enabled) return;
  replica::EpochStore estore(cfg_.repl.epoch_dir.empty() ? wal_dir_
                                                         : cfg_.repl.epoch_dir);
  std::uint64_t epoch = estore.load();
  // First boot starts at epoch 1; promotion bumps whatever was promised
  // before. Durable before the shipper exists: a frame stamped with this
  // epoch must survive our own crash.
  if (cfg_.repl.promote_on_start || epoch == 0) ++epoch;
  estore.store(epoch);
  const auto opts =
      shipper_options(cfg_.repl.repl_port,
                      *replica::parse_repl_ack_mode(cfg_.repl.ack_mode),
                      static_cast<std::size_t>(cfg_.repl.followers),
                      cfg_.repl.lease_ms);
  shipper_ = std::make_unique<replica::LogShipper>(
      *instances_[0].server, *instances_[0].durable, epoch, opts);
  std::printf("replication: shipping on 127.0.0.1:%u (epoch %llu, ack=%s, "
              "quorum=%zu of %lld followers)\n",
              shipper_->port(), static_cast<unsigned long long>(epoch),
              cfg_.repl.ack_mode.c_str(), opts.quorum_follower_acks,
              cfg_.repl.followers);
}

coord::CoordConfig Node::coord_config() const {
  coord::CoordConfig c;
  c.steering.target_utilization = cfg_.coord.target_utilization;
  c.steering.init_rate_per_s = cfg_.coord.init_rate;
  c.steering.min_hint_ms = static_cast<std::uint32_t>(cfg_.coord.min_hint_ms);
  c.steering.max_hint_ms = static_cast<std::uint32_t>(cfg_.coord.max_hint_ms);
  c.steering.queue_max = cfg_.checkin_queue_max;
  c.steering.batch_max = engine::EngineConfig{}.checkin_batch_max;
  // Round-deadline awareness: never steer a device past half the secagg
  // round timeout, or paced devices would miss their cohort deadlines and
  // drag every round into recovery.
  if (cfg_.secagg.enabled)
    c.steering.deadline_ceiling_ms = static_cast<std::uint32_t>(
        std::max<long long>(1, cfg_.secagg.round_timeout_ms / 2));
  c.metrics = &metrics_;
  return c;
}

// Pace steering (docs/SCALING.md): one coordinator per instance, fed by
// the commits and queue depth of the lane that serves it, and stamping
// the hints of the frames that lane answers. The clock lives where the
// commits it measures happen; a shared clock would meter k appliers'
// capacity through one bucket.
void Node::steer() {
  if (!cfg_.coord.enabled) return;
  for (Instance& in : instances_)
    in.coordinator = std::make_unique<coord::Coordinator>(coord_config(),
                                                          cfg_.coord.classes);
}

// Draw-and-discard (docs/SCALING.md): in a pool, each instance's lane
// carries its discard step. One model has none — its only possible
// victim is itself.
void Node::discard() {
  const std::size_t k = instances_.size();
  if (k == 1) return;
  for (std::size_t i = 0; i < k; ++i)
    instances_[i].discard = std::make_unique<multimodel::DiscardRecords>(
        i, k, static_cast<std::uint64_t>(cfg_.seed), *instances_[i].server,
        instances_[i].store, &metrics_, trace_.get());
}

// Secure-aggregation cohorts (docs/PRIVACY.md): a completed cohort applies
// through the ordinary checkin path, so the WAL records one synthetic
// cohort checkin per round and recovery is unchanged.
void Node::aggregate() {
  if (!cfg_.secagg.enabled) return;
  secagg::CohortConfig c;
  c.cohort_size = static_cast<std::size_t>(cfg_.secagg.cohort);
  c.min_survivors = static_cast<std::size_t>(cfg_.secagg.min_survivors);
  c.round_timeout_ms = cfg_.secagg.round_timeout_ms;
  c.param_dim = server_cfg_.param_dim;
  c.num_classes = server_cfg_.num_classes;
  c.metrics = &metrics_;
  c.trace = trace_.get();
  core::Server& server = *instances_[0].server;
  cohort_ = std::make_unique<secagg::CohortManager>(
      c, [&server](const net::CheckinMessage& m) {
        return server.handle_checkin(m);
      });
  engine_cfg_.secagg = cohort_.get();
}

// Sharding (docs/SHARDING.md): the merge plane answers ShardPull /
// ShardMergePush (sealed with the replication key) on the applier thread,
// and a merge overwrite is WAL'd as a MergeRecord and group-committed
// exactly like a checkin batch.
void Node::partition() {
  if (!cfg_.shard.enabled) return;
  shard::ShardServiceConfig c;
  c.shard_id = cfg_.shard.shard_id;
  c.key = repl_key_;
  c.store = instances_[0].durable.get();
  c.metrics = &metrics_;
  c.trace = trace_.get();
  shard_service_ =
      std::make_unique<shard::ShardService>(c, *instances_[0].server);
  engine_cfg_.shard = shard_service_.get();
  if (cfg_.shard.map.size() > 1) {
    // Device partitioning: checkins for a device this shard does not own
    // are nacked pre-application with "wrong shard; shard=<addr>" so the
    // session replays at the owner. With one shard the hook stays null
    // and every frame is byte-identical to unsharded.
    engine_cfg_.shard_route =
        [map = cfg_.shard.map, self = cfg_.shard.shard_id](
            std::uint64_t device_id) -> std::optional<std::string> {
      const std::size_t owner = map.shard_of(device_id);
      if (owner == self) return std::nullopt;
      return map.addr(owner);
    };
  }
}

// Serving engine (docs/SCALING.md): one lane per instance — snapshot
// checkouts on the I/O loops, checkins applied and group-committed by the
// lane's applier; a pool draws a lane per checkout and per checkin.
// Binding it is the last step; the tiers that need the bound device port
// start after it.
void Node::serve() {
  engine_cfg_.port = cfg_.port;
  engine_cfg_.io_threads = cfg_.io_threads;
  engine_cfg_.checkin_queue_max = cfg_.checkin_queue_max;
  engine_cfg_.metrics = &metrics_;
  engine_cfg_.trace = trace_.get();
  if (follower_) {
    engine_cfg_.checkin_redirect = cfg_.repl.leader_addr;
    if (cfg_.repl.max_read_lag > 0) {
      // Bounded-staleness reads: checkouts on a replica lagging more than
      // this many records behind the leader's committed watermark are
      // nacked with a retry hint instead of served stale.
      replica::Follower* f = follower_.get();
      engine_cfg_.read_lag = [f] { return f->read_lag(); };
      engine_cfg_.max_read_lag =
          static_cast<std::uint64_t>(cfg_.repl.max_read_lag);
    }
  }
  std::vector<engine::LaneConfig> lanes;
  for (Instance& in : instances_)
    lanes.push_back(
        {.server = *in.server,
         .group_commit = in.durable
                             ? leader_commit(*in.durable, shipper_.get())
                             : nullptr,
         .coordinator = in.coordinator.get(),
         .records = in.discard.get()});
  engine_ = std::make_unique<engine::EpollCrowdServer>(
      std::move(lanes), auth_, engine_cfg_,
      static_cast<std::uint64_t>(cfg_.seed));
  if (shipper_) shipper_->set_advertise_leader_addr(device_addr());
  if (follower_) {
    follower_->set_device_addr(device_addr());
    follower_->start();
    if (cfg_.repl.election_timeout_ms > 0)
      std::printf("failover: election timeout %lldms, vote listener on "
                  "127.0.0.1:%u, %zu peer(s)\n",
                  cfg_.repl.election_timeout_ms, follower_->vote_port(),
                  peers_.size());
  }
  if (cfg_.shard.enabled && cfg_.shard.merge_ms > 0) {
    // Cross-shard merge driver. Exactly one process per cluster should
    // drive merges (by convention shard 0); every other shard only
    // answers the merge plane.
    shard::MergeDirectorConfig d;
    d.map = cfg_.shard.map;
    d.key = repl_key_;
    d.interval_ms = static_cast<std::uint32_t>(cfg_.shard.merge_ms);
    d.metrics = &metrics_;
    d.trace = trace_.get();
    merge_director_ = std::make_unique<shard::MergeDirector>(d);
    merge_director_->start();
    std::printf("shard merge director: %zu shard(s), every %lldms\n",
                cfg_.shard.map.size(), cfg_.shard.merge_ms);
  }
  // The effective configuration, once, so a log file pins down exactly
  // what this process is running with (flags have defaults; the port may
  // have been ephemeral).
  std::printf(
      "config: role=%s port=%u dim=%zu classes=%zu updater=%s lr=%g "
      "radius=%g max-iterations=%lld target-error=%g wal=%s fsync=%s "
      "io-threads=%zu checkin-queue-max=%zu model-instances=%zu "
      "report-every=%gs\n",
      cfg_.repl.role.c_str(), port(), cfg_.dim, cfg_.classes,
      cfg_.updater.c_str(), cfg_.lr, cfg_.radius, cfg_.max_iterations,
      cfg_.target_error, wal_dir_.empty() ? "(none)" : wal_dir_.c_str(),
      wal_dir_.empty() ? "-" : cfg_.fsync.c_str(), cfg_.io_threads,
      cfg_.checkin_queue_max, cfg_.model_instances, cfg_.report_every_s);
  if (const coord::Coordinator* c = instances_[0].coordinator.get())
    std::printf("config: coord-steering=on classes=%s target-utilization=%g "
                "min-hint-ms=%lld max-hint-ms=%lld init-rate=%g\n",
                c->classes().describe().c_str(),
                cfg_.coord.target_utilization, cfg_.coord.min_hint_ms,
                cfg_.coord.max_hint_ms, cfg_.coord.init_rate);
  if (cohort_)
    std::printf("config: secagg=on cohort=%lld min-survivors=%lld "
                "round-timeout-ms=%lld\n",
                cfg_.secagg.cohort, cfg_.secagg.min_survivors,
                cfg_.secagg.round_timeout_ms);
  if (cfg_.shard.enabled)
    std::printf("config: shard-id=%zu shards=%zu shard-merge-ms=%lld\n",
                cfg_.shard.shard_id, cfg_.shard.map.size(),
                cfg_.shard.merge_ms);
  std::printf("crowdml-server listening on 127.0.0.1:%u (dim=%zu classes=%zu)\n",
              port(), cfg_.dim, cfg_.classes);
  std::fflush(stdout);
  last_report_ = std::chrono::steady_clock::now();
}

std::string Node::device_addr() const {
  return cfg_.repl.advertise_host + ":" + std::to_string(port());
}

bool Node::tick() {
  if (follower_ && follower_->fatal()) {
    std::fprintf(stderr,
                 "crowdml-server: follower replication hit a fatal local "
                 "error; restart to re-recover\n");
    return false;
  }
  if (follower_ && follower_->promoted() && !shipper_ && !promote())
    return false;
  const auto now = std::chrono::steady_clock::now();
  if (std::chrono::duration<double>(now - last_report_).count() >=
      cfg_.report_every_s) {
    report();
    last_report_ = now;
  }
  return true;
}

// Leader-role handoff, zero-operator. Ordering matters at every step: the
// replication thread must be gone before its store is attached to the
// serving path; the board must be republished by the applier's new owner
// *before* checkins are admitted (single-publisher contract); and the
// shipper binds the just-freed vote port — the address peers were told to
// replicate from when they granted their votes.
bool Node::promote() {
  const std::uint64_t won_epoch = follower_->epoch();
  const std::uint16_t repl_port = follower_->vote_port();
  follower_->shutdown();
  store::DurableStore& store = follower_->store();
  core::Server& server = *instances_[0].server;
  store.set_group_commit(true);
  store.attach(server);
  // The ex-followers' detectors still run on --election-timeout-ms;
  // lease well inside it so the new regime is stable.
  auto opts = shipper_options(
      repl_port, replica::ReplAckMode::kQuorum, peers_.size(),
      std::max<long long>(1, cfg_.repl.election_timeout_ms / 2));
  opts.advertise_leader_addr = device_addr();
  try {
    shipper_ = std::make_unique<replica::LogShipper>(server, store, won_epoch,
                                                     opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "crowdml-server: promotion failed binding replication port "
                 "%u: %s\n",
                 repl_port, e.what());
    return false;
  }
  engine_->set_group_commit(leader_commit(store, shipper_.get()));
  engine_->republish();
  engine_->set_checkin_redirect("");
  std::printf("election won: serving as leader (epoch %llu, replication on "
              "127.0.0.1:%u, quorum=%zu of %zu peers)\n",
              static_cast<unsigned long long>(won_epoch), shipper_->port(),
              opts.quorum_follower_acks, peers_.size());
  std::fflush(stdout);
  return true;
}

void Node::report() {
  if (const multimodel::DiscardRecords* d = instances_[0].discard.get())
    std::printf("pool: %zu instances, total iteration %llu (overwrites "
                "applied %lld, dropped %lld)\n",
                instances_.size(), static_cast<unsigned long long>(iteration()),
                d->overwrites_applied(), d->overwrites_dropped());
  for (const Instance& in : instances_)
    std::fputs(core::portal_report(*in.server).c_str(), stdout);
  if (cohort_) {
    cohort_->tick();  // advance round deadlines even through a lull
    std::printf("secagg: rounds sealed %lld, completed %lld (recovered "
                "%lld), aborted %lld, masked checkins %lld\n",
                cohort_->rounds_sealed(), cohort_->rounds_completed(),
                cohort_->rounds_recovered(), cohort_->rounds_aborted(),
                cohort_->masked_checkins());
  }
  if (follower_)
    std::printf("replicated through seq %llu (epoch %llu, connected=%d, "
                "stale frames refused %lld, snapshots installed %lld)\n",
                static_cast<unsigned long long>(follower_->applied_seq()),
                static_cast<unsigned long long>(follower_->epoch()),
                follower_->connected() ? 1 : 0,
                follower_->stale_frames_refused(),
                follower_->snapshots_installed());
  if (shipper_)
    std::printf("replication: %zu follower session(s), epoch %llu%s\n",
                shipper_->follower_sessions(),
                static_cast<unsigned long long>(shipper_->epoch()),
                shipper_->fenced() ? " [FENCED: a newer leader exists]" : "");
  std::fflush(stdout);
  // Persistence failures must never take a serving loop down: the WAL
  // (if any) still guarantees recovery, so log the failure and keep
  // serving.
  save_checkpoint();
  for (std::size_t i = 0; i < instances_.size(); ++i)
    if (!compact(instances_[i]))
      std::printf("instance %zu: snapshot compaction failed; wal intact, "
                  "continuing\n",
                  i);
  if (!cfg_.metrics_out.empty())
    obs::write_metrics_file(metrics_, cfg_.metrics_out);
}

// A running follower's store is compacted through the follower, which
// excludes a concurrent snapshot install.
bool Node::compact(const Instance& in) {
  if (follower_) return follower_->compact();
  return !in.store || in.store->compact(*in.server);
}

void Node::save_checkpoint() {
  if (cfg_.checkpoint.empty()) return;
  try {
    core::checkpoint_server(*instances_[0].server).save_file(cfg_.checkpoint);
  } catch (const std::exception& e) {
    std::printf("checkpoint save failed (%s); continuing\n", e.what());
  }
}

bool Node::stopped() const {
  return std::all_of(instances_.begin(), instances_.end(),
                     [](const Instance& in) { return in.server->stopped(); });
}

std::uint64_t Node::iteration() const {
  std::uint64_t total = 0;
  for (const Instance& in : instances_) total += in.server->version();
  return total;
}

// Teardown order: the follower and the merge director stop while the
// engine still runs (a follower republishes through it; a mid-flight merge
// round finishes against live appliers). The engine's shutdown drains
// every lane's applier while the shipper still runs, so the last quorum
// waits complete; only then does the shipping plane stop. The instances,
// cohort and shard service outlive the engine by declaration order.
void Node::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (follower_) {
    follower_->shutdown();
    std::printf("replicated through seq %llu (epoch %llu) at shutdown\n",
                static_cast<unsigned long long>(follower_->applied_seq()),
                static_cast<unsigned long long>(follower_->epoch()));
  }
  if (merge_director_) {
    merge_director_->shutdown();
    std::printf("merge director: %llu round(s) completed, %llu skipped\n",
                static_cast<unsigned long long>(
                    merge_director_->rounds_completed()),
                static_cast<unsigned long long>(
                    merge_director_->rounds_skipped()));
  }
  engine_->shutdown();
  // Appliers drained: leave a fresh snapshot behind so the next start —
  // possibly a promotion — recovers instantly.
  for (const Instance& in : instances_) {
    if (in.store) {
      in.store->sync();  // flush any WAL records the fsync policy buffered
      if (compact(in))
        std::printf("durable state compacted in %s at iteration %llu\n",
                    in.store->dir().c_str(),
                    static_cast<unsigned long long>(in.server->version()));
    }
    std::fputs(core::portal_report(*in.server).c_str(), stdout);
  }
  if (const multimodel::DiscardRecords* d = instances_[0].discard.get())
    std::printf("pool total iteration %llu (overwrites applied %lld, "
                "dropped %lld)\n",
                static_cast<unsigned long long>(iteration()),
                d->overwrites_applied(), d->overwrites_dropped());
  save_checkpoint();
  if (!cfg_.checkpoint.empty())
    std::printf("checkpoint saved to %s\n", cfg_.checkpoint.c_str());
  if (shipper_) shipper_->shutdown();
  if (!cfg_.metrics_out.empty()) {
    obs::write_metrics_file(metrics_, cfg_.metrics_out);
    std::printf("metrics written to %s\n", cfg_.metrics_out.c_str());
  }
  if (trace_) trace_->flush();
  std::fflush(stdout);
}

}  // namespace crowdml::node
