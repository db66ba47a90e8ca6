#include "node/config.hpp"

#include "net/messages.hpp"

namespace crowdml::node {

namespace {

std::string validate_replication(const NodeConfig& c) {
  const ReplicationSettings& r = c.repl;
  if (r.role != "leader" && r.role != "follower")
    return "unknown --role " + r.role + " (leader|follower)";
  if (r.ack_mode != "none" && r.ack_mode != "async" && r.ack_mode != "quorum")
    return "unknown --repl-ack " + r.ack_mode + " (none|async|quorum)";
  if (r.advertise_host.empty() ||
      r.advertise_host.find(':') != std::string::npos)
    return "--advertise-host takes a bare host (ports are the bound ones), "
           "got '" + r.advertise_host + "'";
  if (r.role == "follower") {
    if (r.leader_addr.empty())
      return "--role follower requires --leader-addr host:port";
    const auto colon = r.leader_addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= r.leader_addr.size())
      return "--leader-addr must be host:port, got " + r.leader_addr;
    if (!net::split_host_port(r.leader_addr))
      return "--leader-addr port out of range in " + r.leader_addr;
    if (c.wal_dir.empty())
      return "--role follower requires --wal-dir (the replica's log)";
    if (r.election_timeout_ms < 0)
      return "--election-timeout-ms must be >= 0";
    if (r.max_read_lag < 0) return "--max-read-lag must be >= 0";
    return "";
  }
  if (!r.leader_addr.empty())
    return "--leader-addr is a follower flag (this node IS the leader)";
  if (r.lease_ms < 1) return "--lease-ms must be >= 1";
  if (r.repl_enabled && c.wal_dir.empty())
    return "replication requires --wal-dir (the WAL is the shipping buffer)";
  if (r.ack_mode == "quorum" && r.followers < 1)
    return "--repl-ack quorum requires --repl-followers >= 1";
  return "";
}

std::string validate_steering(const NodeConfig& c) {
  const SteeringSettings& s = c.coord;
  if (!s.enabled) return "";
  if (c.repl.role == "follower")
    return "--coord-steering is a leader feature (a follower refuses "
           "checkins, so it has no applier to steer toward)";
  if (!(s.target_utilization > 0.0 && s.target_utilization <= 1.0))
    return "--coord-target-utilization must be in (0, 1]";
  if (s.min_hint_ms < 1) return "--coord-min-hint-ms must be >= 1";
  if (s.max_hint_ms < s.min_hint_ms)
    return "--coord-max-hint-ms must be >= --coord-min-hint-ms";
  if (s.max_hint_ms >= 3'600'000)
    return "--coord-max-hint-ms must be < 3600000 (one hour; the parseable "
           "retry-hint ceiling)";
  if (!(s.init_rate > 0.0)) return "--coord-init-rate must be > 0";
  return "";
}

std::string validate_node_secagg(const NodeConfig& c) {
  if (!c.secagg.enabled) return "";
  if (std::string refusal = validate(c.secagg); !refusal.empty())
    return refusal;
  // The whole threat model rests on the server never holding the fleet
  // masking key (docs/PRIVACY.md) — refuse loudly rather than let an
  // operator paste the device command line onto the server.
  if (!c.secagg.key_file.empty())
    return "--secagg-key-file is a device flag; the server must never "
           "hold the fleet masking key";
  if (c.repl.role == "follower")
    return "--secagg-cohort is a leader feature (a follower refuses "
           "checkins, so it cannot apply cohort sums)";
  if (c.model_instances != 1)
    return "--secagg-cohort requires --model-instances 1 (cohort sums "
           "apply to one model)";
  return "";
}

std::string validate_sharding(const NodeConfig& c) {
  const ShardSettings& s = c.shard;
  if (!s.enabled) return "";
  if (s.shard_id >= s.map.size())
    return "--shard-id " + std::to_string(s.shard_id) +
           " is out of range for a " + std::to_string(s.map.size()) +
           "-entry --shard-map";
  if (s.merge_ms < 0) return "--shard-merge-ms must be >= 0";
  if (c.repl.role != "leader")
    return "--shard-map is a leader flag (a shard's followers are plain "
           "followers of that shard's leader and need no map)";
  if (c.model_instances != 1)
    return "--shard-map requires --model-instances 1 (a shard leader is "
           "the single-applier stack; scale out with more shards)";
  if (c.wal_dir.empty())
    return "--shard-map requires --wal-dir (merges are WAL records; acked "
           "=> durable must hold across a shard leader crash)";
  return "";
}

// A pool is k appliers on one leader. A follower pool would need
// coordinated elections (ROADMAP.md), a replicated pool ships k streams
// that no follower can rebuild into one node, and the single-model
// --checkpoint format cannot describe k instances (per-instance state
// lives in the WAL namespaces instead).
std::string validate_pool(const NodeConfig& c) {
  if (c.model_instances <= 1) return "";
  if (c.repl.role == "follower")
    return "--model-instances > 1 with --role follower is not supported "
           "yet (pool failover is a coordinated-election problem; see "
           "ROADMAP.md)";
  if (c.repl.repl_enabled)
    return "--model-instances > 1 does not replicate: drop --repl-port/"
           "--repl-ack/--promote-on-start or serve one model (no follower "
           "can rebuild a pool's k instance streams; see "
           "docs/REPLICATION.md)";
  if (!c.checkpoint.empty())
    return "--checkpoint is single-model; use --wal-dir for a "
           "--model-instances pool";
  return "";
}

}  // namespace

std::string validate(const SecAggSettings& s) {
  if (!s.enabled) return "";
  if (s.cohort < 2)
    return "--secagg-cohort must be >= 2 (a cohort of one is just LDP)";
  if (s.min_survivors < 2 || s.min_survivors > s.cohort)
    return "--secagg-min-survivors must be in [2, --secagg-cohort] (below 2 "
           "a lone survivor's blob would be unmaskable alone)";
  if (s.round_timeout_ms < 1)
    return "--secagg-round-timeout-ms must be >= 1";
  return "";
}

std::string validate(const NodeConfig& c) {
  for (const auto rule : {validate_replication, validate_steering,
                          validate_node_secagg, validate_sharding,
                          validate_pool})
    if (std::string refusal = rule(c); !refusal.empty()) return refusal;
  return "";
}

}  // namespace crowdml::node
