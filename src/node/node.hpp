// One Crowd-ML server node, composed from its tiers (docs/ARCHITECTURE.md,
// "Composing a node"): the store, the server(s), the serving engine or a
// draw-and-discard pool, the log shipper or a follower, the coordinator,
// secure-aggregation cohorts, and the shard service and merge director.
//
// Node::build refuses what node::validate (node/config.hpp) refuses, then
// builds the tiers in a fixed order; tick() runs the periodic step (a follower's
// in-place promotion to leader, the portal report, compaction, metrics);
// shutdown() runs the ordered teardown. crowdml-server is parse -> build
// -> tick until a signal -> shutdown, and tests build the same node
// in-process.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coord/coordinator.hpp"
#include "core/checkpoint.hpp"
#include "core/server.hpp"
#include "engine/epoll_server.hpp"
#include "multimodel/instance_pool.hpp"
#include "net/auth.hpp"
#include "node/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replica/follower.hpp"
#include "replica/log_shipper.hpp"
#include "secagg/cohort.hpp"
#include "shard/director.hpp"
#include "shard/service.hpp"
#include "store/durable_store.hpp"

namespace crowdml::node {

class Node {
 public:
  /// Validates `config` and composes the tiers. When it returns, stores
  /// are recovered and the engine is serving. Throws std::runtime_error
  /// carrying the refusal when the config is invalid or a tier cannot
  /// start.
  static std::unique_ptr<Node> build(NodeConfig config);
  /// Stops a still-running follower first (it republishes through the
  /// engine); every other tier stops in its own destructor.
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// The periodic step, called every ~200 ms: promotes a follower that
  /// won an election, and every report_every_s prints the portal report,
  /// compacts and writes metrics. False when the node must stop (a
  /// follower's fatal local error, or a failed promotion).
  bool tick();
  /// The stopping criteria hold on every model instance.
  bool stopped() const;
  /// The ordered teardown; prints the final state. Idempotent.
  void shutdown();

  std::uint16_t port() const { return engine_->port(); }
  /// The leader's replication port (0 when this node ships nothing).
  std::uint16_t repl_port() const { return shipper_ ? shipper_->port() : 0; }
  /// A follower's vote listener (0 when it runs no elections).
  std::uint16_t vote_port() const {
    return follower_ ? follower_->vote_port() : 0;
  }
  /// Applies checkins: a leader, or a follower promoted by tick().
  bool leading() const { return !follower_ || shipper_ != nullptr; }
  /// Checkins applied, summed over the model instances.
  std::uint64_t iteration() const;
  const std::vector<net::DeviceCredentials>& enrolled() const {
    return enrolled_;
  }

 private:
  /// One model instance: a server and the store that makes it durable
  /// (null without --wal-dir). A k = 1 node has one; a pool has k.
  struct Instance {
    core::Server* server;
    store::DurableStore* store;
  };

  explicit Node(NodeConfig config);

  // Build steps, in order; each wires its handles into engine_cfg_.
  void open_stores();
  void replicate();
  void steer();
  void aggregate();
  void partition();
  void serve();

  std::unique_ptr<core::Server> make_server(rng::Engine eng) const;
  std::optional<core::ServerCheckpoint> load_checkpoint();
  void recover_or_refuse(const std::optional<core::ServerCheckpoint>& legacy);
  coord::CoordConfig coord_config() const;
  replica::ShipperOptions shipper_options(std::uint16_t port,
                                          replica::ReplAckMode ack,
                                          std::size_t followers,
                                          long long lease_ms) const;
  bool promote();
  void report();
  bool compact(const Instance& instance);
  void save_checkpoint();
  std::string device_addr() const;

  NodeConfig cfg_;
  core::ServerConfig server_cfg_;
  obs::MetricsRegistry& metrics_;
  std::unique_ptr<obs::TraceSink> trace_;
  net::AuthRegistry auth_;
  std::vector<net::DeviceCredentials> enrolled_;
  /// --wal-dir, namespaced per shard when sharded.
  std::string wal_dir_;
  store::DurableStoreOptions store_opts_;
  replica::ReplKey repl_key_;
  std::vector<replica::PeerAddr> peers_;
  engine::EngineConfig engine_cfg_;

  // Tiers, declared so that each outlives the tiers that call into it.
  std::unique_ptr<core::Server> server_;  // k = 1
  std::unique_ptr<store::DurableStore> durable_;  // k = 1 leader
  std::unique_ptr<secagg::CohortManager> cohort_;
  std::unique_ptr<coord::Coordinator> coordinator_;
  std::unique_ptr<shard::ShardService> shard_service_;
  std::unique_ptr<multimodel::ModelInstancePool> pool_;  // k > 1
  std::unique_ptr<replica::LogShipper> shipper_;
  std::unique_ptr<replica::Follower> follower_;
  std::unique_ptr<engine::EpollCrowdServer> engine_;
  std::unique_ptr<shard::MergeDirector> merge_director_;

  std::vector<Instance> instances_;
  std::chrono::steady_clock::time_point last_report_;
  bool shut_down_ = false;
};

}  // namespace crowdml::node
