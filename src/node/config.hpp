// The plain configuration of one Crowd-ML server node: every tier's
// settings, already parsed, and node::validate, the one place that
// refuses a setting or a combination of settings. tools/flags.hpp fills
// a NodeConfig from the crowdml-server command line (each field's flag
// is documented there) and refuses only what a NodeConfig cannot
// express: malformed numbers and grammars, and a flag given where it
// means nothing. node::Node::build (node/node.hpp) runs validate, then
// composes the tiers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "coord/device_class.hpp"
#include "shard/shard_map.hpp"

namespace crowdml::obs {
class MetricsRegistry;
}

namespace crowdml::node {

/// Replication role and plane (docs/REPLICATION.md).
struct ReplicationSettings {
  std::string role = "leader";  ///< leader|follower
  /// A follower's leader, host:port: where it streams the WAL from, and
  /// the target of its checkin redirect nacks.
  std::string leader_addr;
  std::string ack_mode = "none";
  std::string epoch_dir;
  long long followers = 2;
  bool promote_on_start = false;
  /// True when this leader runs a replication plane at all (a
  /// --repl-port was given or an ack mode other than none requested).
  bool repl_enabled = false;
  std::uint16_t repl_port = 0;
  long long lease_ms = 1000;
  long long election_timeout_ms = 0;
  std::string peers;
  std::uint16_t vote_port = 0;
  long long max_read_lag = 0;
  std::string repl_key_file;
  std::string advertise_host = "127.0.0.1";
};

/// Pace steering (docs/SCALING.md, "Pace steering").
struct SteeringSettings {
  bool enabled = false;
  coord::DeviceClassTable classes;  ///< parsed table (default when empty)
  double target_utilization = 0.7;
  long long min_hint_ms = 5;
  long long max_hint_ms = 30'000;
  double init_rate = 2000.0;
};

/// Secure-aggregation cohorts (docs/PRIVACY.md, "Secure aggregation").
struct SecAggSettings {
  bool enabled = false;
  long long cohort = 0;
  long long min_survivors = 2;
  long long round_timeout_ms = 2000;
  /// The fleet masking key: a device setting. A node refuses it.
  std::string key_file;
};

/// Sharded leaders (docs/SHARDING.md).
struct ShardSettings {
  bool enabled = false;
  std::size_t shard_id = 0;
  shard::ShardMap map;
  long long merge_ms = 0;
};

struct NodeConfig {
  // The parameter server (§V) and its updater.
  std::size_t classes = 10;
  std::size_t dim = 50;
  std::string updater = "sgd";  ///< sgd|adagrad|momentum|dualavg
  double lr = 50.0;
  double radius = 500.0;
  long long max_iterations = -1;
  double target_error = -1.0;
  long long seed = 1;

  // Device enrollment: `enroll` credentials drawn from `auth_seed`,
  // written to `keys_out` as "device_id,hex_key" rows.
  long long auth_seed = 2;
  long long enroll = 0;
  std::string keys_out = "device_keys.csv";

  // Durability (docs/DURABILITY.md).
  std::string checkpoint;
  std::string wal_dir;
  std::string fsync = "every-64";
  std::size_t segment_max_bytes = 4 << 20;
  bool force_fresh = false;

  // Serving (docs/SCALING.md).
  std::uint16_t port = 0;
  std::size_t io_threads = 1;
  std::size_t checkin_queue_max = 1024;
  std::size_t model_instances = 1;

  ReplicationSettings repl;
  long long follower_id = 1;
  SteeringSettings coord;
  SecAggSettings secagg;
  ShardSettings shard;

  // Observability (docs/OBSERVABILITY.md).
  double report_every_s = 10.0;
  std::string metrics_out;
  std::string trace_out;
  /// Registry for every tier's instruments; null = obs::default_registry().
  /// Lets nodes in one process keep separate counters.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The first invalid setting or tier combination in `config`, or "" when
/// it can be built. The message is the server's refusal text (without
/// the "crowdml-server: " prefix).
std::string validate(const NodeConfig& config);

/// The cohort, survivor and round-timeout rules of secure aggregation,
/// which a device (crowdml-device) and a node share; "" when `secagg` is
/// off or valid.
std::string validate(const SecAggSettings& secagg);

}  // namespace crowdml::node
