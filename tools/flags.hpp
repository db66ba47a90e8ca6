// Minimal command-line flag parsing for the CLI tools (no external deps).
// Supports --name=value and --name value forms plus boolean --name.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "coord/device_class.hpp"
#include "shard/shard_map.hpp"

namespace crowdml::tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw std::runtime_error("unexpected positional argument: " + arg);
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  long long get_int(const std::string& name, long long fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }

  double get_double(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

  bool get_bool(const std::string& name, bool fallback = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Replication role flags for crowdml-server, validated as a unit (the
/// combinations are easy to get wrong; see docs/REPLICATION.md):
///   --role leader|follower          (default leader)
///   --leader-addr host:port         (follower only; required there)
///   --repl-ack none|async|quorum    (leader only)
///   --repl-port N                   (leader only; 0 = ephemeral)
///   --repl-followers N              (leader; sizes the quorum)
///   --epoch-dir DIR                 (default: the wal dir)
///   --promote-on-start              (leader only; bump the epoch —
///                                    break-glass; elections supersede it)
/// Automatic failover (see docs/REPLICATION.md "Automatic failover"):
///   --lease-ms N                    (leader; heartbeat lease, default 1000)
///   --election-timeout-ms N         (follower; 0 = manual failover only)
///   --peers h1:p1,h2:p2             (follower; fellow vote endpoints)
///   --vote-port N                   (follower; 0 = ephemeral)
///   --max-read-lag N                (follower; stale-checkout gate, 0 = off)
///   --repl-key-file PATH            (both; hex HMAC key for Repl* frames)
///   --advertise-host HOST           (both; the host peers and devices
///                                    reach this node on — redirect
///                                    targets, vote repl_addr; default
///                                    127.0.0.1 suits single-host tests
///                                    only)
/// `error` is non-empty when the combination is invalid.
struct ReplicaFlags {
  std::string role = "leader";
  std::string leader_host;
  std::uint16_t leader_port = 0;
  std::string leader_addr;  ///< the raw host:port, for redirect nacks
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
  std::string error;
};

inline ReplicaFlags parse_replica_flags(const Flags& flags) {
  ReplicaFlags r;
  r.role = flags.get("role", "leader");
  r.ack_mode = flags.get("repl-ack", "none");
  r.epoch_dir = flags.get("epoch-dir", "");
  r.followers = flags.get_int("repl-followers", 2);
  r.promote_on_start = flags.get_bool("promote-on-start");
  r.repl_port = static_cast<std::uint16_t>(flags.get_int("repl-port", 0));
  r.leader_addr = flags.get("leader-addr", "");
  r.lease_ms = flags.get_int("lease-ms", 1000);
  r.election_timeout_ms = flags.get_int("election-timeout-ms", 0);
  r.peers = flags.get("peers", "");
  r.vote_port = static_cast<std::uint16_t>(flags.get_int("vote-port", 0));
  r.max_read_lag = flags.get_int("max-read-lag", 0);
  r.repl_key_file = flags.get("repl-key-file", "");
  r.advertise_host = flags.get("advertise-host", "127.0.0.1");
  const std::string wal_dir = flags.get("wal-dir", "");

  if (r.role != "leader" && r.role != "follower") {
    r.error = "unknown --role " + r.role + " (leader|follower)";
    return r;
  }
  if (r.ack_mode != "none" && r.ack_mode != "async" && r.ack_mode != "quorum") {
    r.error = "unknown --repl-ack " + r.ack_mode + " (none|async|quorum)";
    return r;
  }
  if (r.advertise_host.empty() ||
      r.advertise_host.find(':') != std::string::npos) {
    r.error = "--advertise-host takes a bare host (ports are the bound "
              "ones), got '" + r.advertise_host + "'";
    return r;
  }

  if (r.role == "follower") {
    if (r.leader_addr.empty()) {
      r.error = "--role follower requires --leader-addr host:port";
      return r;
    }
    const auto colon = r.leader_addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= r.leader_addr.size()) {
      r.error = "--leader-addr must be host:port, got " + r.leader_addr;
      return r;
    }
    r.leader_host = r.leader_addr.substr(0, colon);
    long long port = 0;
    try {
      port = std::stoll(r.leader_addr.substr(colon + 1));
    } catch (const std::exception&) {
      port = 0;
    }
    if (port < 1 || port > 65535) {
      r.error = "--leader-addr port out of range in " + r.leader_addr;
      return r;
    }
    r.leader_port = static_cast<std::uint16_t>(port);
    if (wal_dir.empty()) {
      r.error = "--role follower requires --wal-dir (the replica's log)";
      return r;
    }
    if (flags.has("repl-ack") || flags.has("repl-port") ||
        flags.has("promote-on-start") || flags.has("repl-followers")) {
      r.error = "--repl-ack/--repl-port/--repl-followers/--promote-on-start "
                "are leader flags; a follower learns them from its leader";
      return r;
    }
    if (flags.has("lease-ms")) {
      r.error = "--lease-ms is a leader flag; a follower's deadline comes "
                "from --election-timeout-ms";
      return r;
    }
    if (r.election_timeout_ms < 0) {
      r.error = "--election-timeout-ms must be >= 0";
      return r;
    }
    if (r.max_read_lag < 0) {
      r.error = "--max-read-lag must be >= 0";
      return r;
    }
    if ((flags.has("peers") || flags.has("vote-port")) &&
        r.election_timeout_ms == 0) {
      r.error = "--peers/--vote-port require --election-timeout-ms > 0 "
                "(they only matter to an elector)";
      return r;
    }
    return r;
  }

  // Leader.
  if (!r.leader_addr.empty()) {
    r.error = "--leader-addr is a follower flag (this node IS the leader)";
    return r;
  }
  if (flags.has("election-timeout-ms") || flags.has("peers") ||
      flags.has("vote-port") || flags.has("max-read-lag")) {
    r.error = "--election-timeout-ms/--peers/--vote-port/--max-read-lag are "
              "follower flags (the leader grants leases, it does not watch "
              "them)";
    return r;
  }
  if (r.lease_ms < 1) {
    r.error = "--lease-ms must be >= 1";
    return r;
  }
  if (flags.has("lease-ms") && !flags.has("repl-port") &&
      r.ack_mode == "none" && !r.promote_on_start) {
    r.error = "--lease-ms requires a replication plane (--repl-port or "
              "--repl-ack)";
    return r;
  }
  r.repl_enabled = flags.has("repl-port") || r.ack_mode != "none" ||
                   r.promote_on_start;
  if (r.repl_enabled && wal_dir.empty()) {
    r.error = "replication requires --wal-dir (the WAL is the shipping "
              "buffer)";
    return r;
  }
  if (r.ack_mode == "quorum" && r.followers < 1) {
    r.error = "--repl-ack quorum requires --repl-followers >= 1";
    return r;
  }
  return r;
}

/// Coordinator / pace-steering flags for crowdml-server, validated as a
/// unit (docs/SCALING.md, "Pace steering"):
///   --coord-steering                  (enable the coordinator tier)
///   --coord-classes name:w,name:w     (device classes, listed order =
///                                      priority; e.g. fast:4,slow:2,flaky:1)
///   --coord-target-utilization F      (fraction of measured service rate
///                                      to steer toward; (0,1], default 0.7)
///   --coord-min-hint-ms N             (hint clamp floor, default 5)
///   --coord-max-hint-ms N             (hint clamp ceiling, default 30000;
///                                      must stay parseable as a retry
///                                      hint, i.e. < 1 hour)
///   --coord-init-rate N               (assumed service rate before the
///                                      first measured commit, checkins/s,
///                                      default 2000)
/// Every --coord-* flag other than --coord-steering requires steering to
/// be enabled; steering requires a leader role. With
/// --model-instances k > 1 each instance's applier owns its own
/// Coordinator (k independent per-class pacing clocks — the clock must
/// live where the commits it measures happen; see docs/SCALING.md).
/// `error` is non-empty when the combination is invalid.
struct CoordFlags {
  bool enabled = false;
  std::string classes_spec;
  coord::DeviceClassTable classes;  ///< parsed table (default when empty)
  double target_utilization = 0.7;
  long long min_hint_ms = 5;
  long long max_hint_ms = 30'000;
  double init_rate = 2000.0;
  std::string error;
};

inline CoordFlags parse_coord_flags(const Flags& flags) {
  CoordFlags c;
  c.enabled = flags.get_bool("coord-steering");
  c.classes_spec = flags.get("coord-classes", "");
  try {
    c.target_utilization =
        flags.get_double("coord-target-utilization", c.target_utilization);
    c.min_hint_ms = flags.get_int("coord-min-hint-ms", c.min_hint_ms);
    c.max_hint_ms = flags.get_int("coord-max-hint-ms", c.max_hint_ms);
    c.init_rate = flags.get_double("coord-init-rate", c.init_rate);
  } catch (const std::exception&) {
    c.error = "malformed numeric value in a --coord-* flag";
    return c;
  }

  if (!c.enabled) {
    if (flags.has("coord-classes") || flags.has("coord-target-utilization") ||
        flags.has("coord-min-hint-ms") || flags.has("coord-max-hint-ms") ||
        flags.has("coord-init-rate")) {
      c.error = "--coord-classes/--coord-target-utilization/"
                "--coord-min-hint-ms/--coord-max-hint-ms/--coord-init-rate "
                "require --coord-steering";
      return c;
    }
    return c;
  }

  if (flags.get("role", "leader") == "follower") {
    c.error = "--coord-steering is a leader feature (a follower refuses "
              "checkins, so it has no applier to steer toward)";
    return c;
  }
  if (!(c.target_utilization > 0.0 && c.target_utilization <= 1.0)) {
    c.error = "--coord-target-utilization must be in (0, 1]";
    return c;
  }
  if (c.min_hint_ms < 1) {
    c.error = "--coord-min-hint-ms must be >= 1";
    return c;
  }
  if (c.max_hint_ms < c.min_hint_ms) {
    c.error = "--coord-max-hint-ms must be >= --coord-min-hint-ms";
    return c;
  }
  if (c.max_hint_ms >= 3'600'000) {
    c.error = "--coord-max-hint-ms must be < 3600000 (one hour; the "
              "parseable retry-hint ceiling)";
    return c;
  }
  if (!(c.init_rate > 0.0)) {
    c.error = "--coord-init-rate must be > 0";
    return c;
  }
  if (!c.classes_spec.empty()) {
    std::string perr;
    const auto table = coord::DeviceClassTable::parse(c.classes_spec, &perr);
    if (!table) {
      c.error = "--coord-classes: " + perr;
      return c;
    }
    c.classes = *table;
  }
  return c;
}

/// Secure-aggregation flags, validated as a unit (docs/PRIVACY.md,
/// "Secure aggregation") — shared by crowdml-server and crowdml-device:
///   --secagg-cohort N            (cohort size c >= 2; 0/absent = off)
///   --secagg-min-survivors N     (abort threshold, default 2; in
///                                 [2, cohort])
///   --secagg-round-timeout-ms N  (collect + reveal deadline, default 2000)
///   --secagg-key-file PATH       (hex fleet masking key; devices only —
///                                 the server must NOT be given it)
/// Every other --secagg-* flag requires --secagg-cohort. `error` is
/// non-empty when the combination is invalid.
struct SecAggFlags {
  bool enabled = false;
  long long cohort = 0;
  long long min_survivors = 2;
  long long round_timeout_ms = 2000;
  std::string key_file;
  std::string error;
};

inline SecAggFlags parse_secagg_flags(const Flags& flags) {
  SecAggFlags s;
  try {
    s.cohort = flags.get_int("secagg-cohort", 0);
    s.min_survivors = flags.get_int("secagg-min-survivors", 2);
    s.round_timeout_ms = flags.get_int("secagg-round-timeout-ms", 2000);
  } catch (const std::exception&) {
    s.error = "malformed numeric value in a --secagg-* flag";
    return s;
  }
  s.key_file = flags.get("secagg-key-file", "");
  s.enabled = s.cohort > 0;

  if (!s.enabled) {
    if (flags.has("secagg-min-survivors") ||
        flags.has("secagg-round-timeout-ms") || flags.has("secagg-key-file")) {
      s.error = "--secagg-min-survivors/--secagg-round-timeout-ms/"
                "--secagg-key-file require --secagg-cohort";
      return s;
    }
    return s;
  }

  if (s.cohort < 2) {
    s.error = "--secagg-cohort must be >= 2 (a cohort of one is just LDP)";
    return s;
  }
  if (s.min_survivors < 2 || s.min_survivors > s.cohort) {
    s.error = "--secagg-min-survivors must be in [2, --secagg-cohort] "
              "(below 2 a lone survivor's blob would be unmaskable alone)";
    return s;
  }
  if (s.round_timeout_ms < 1) {
    s.error = "--secagg-round-timeout-ms must be >= 1";
    return s;
  }
  return s;
}

/// Sharded-leader flags for crowdml-server, validated as a unit
/// (docs/SHARDING.md):
///   --shard-map h1:p1,h2:p2,...  (every shard leader's *device* address,
///                                 in shard-id order; the roster every
///                                 node and device must agree on)
///   --shard-id N                 (this server's index into the map)
///   --shards N                   (optional cross-check: must equal the
///                                 map's size — catches a truncated map
///                                 pasted across a fleet)
///   --shard-merge-ms N           (run the MergeDirector in THIS process
///                                 every N ms; 0/absent = no director
///                                 here. Exactly one process per cluster
///                                 should set it — by convention shard 0)
/// Sharding requires a leader role, --model-instances 1
/// (a shard leader is the plain single-applier stack), and --wal-dir
/// (the merge plane's "acked => durable" rides the WAL). `error` is
/// non-empty when the combination is invalid.
struct ShardFlags {
  bool enabled = false;
  std::size_t shard_id = 0;
  shard::ShardMap map;
  long long merge_ms = 0;
  std::string error;
};

inline ShardFlags parse_shard_flags(const Flags& flags) {
  ShardFlags s;
  const std::string map_spec = flags.get("shard-map", "");
  s.enabled = !map_spec.empty();
  long long merge_ms = 0;
  long long shard_id = 0;
  long long shards = -1;
  try {
    shard_id = flags.get_int("shard-id", 0);
    shards = flags.get_int("shards", -1);
    merge_ms = flags.get_int("shard-merge-ms", 0);
  } catch (const std::exception&) {
    s.error = "malformed numeric value in a --shard-* flag";
    return s;
  }

  if (!s.enabled) {
    if (flags.has("shard-id") || flags.has("shards") ||
        flags.has("shard-merge-ms")) {
      s.error = "--shard-id/--shards/--shard-merge-ms require --shard-map";
    }
    return s;
  }

  const auto map = shard::ShardMap::parse(map_spec);
  if (!map) {
    s.error = "--shard-map must be a comma-separated host:port list, got '" +
              map_spec + "'";
    return s;
  }
  s.map = *map;
  if (shards >= 0 && static_cast<std::size_t>(shards) != s.map.size()) {
    s.error = "--shards disagrees with the --shard-map size (" +
              std::to_string(shards) + " vs " +
              std::to_string(s.map.size()) + "); fix the roster";
    return s;
  }
  if (!flags.has("shard-id")) {
    s.error = "--shard-map requires --shard-id (which entry is this "
              "server?)";
    return s;
  }
  if (shard_id < 0 || static_cast<std::size_t>(shard_id) >= s.map.size()) {
    s.error = "--shard-id " + std::to_string(shard_id) +
              " is out of range for a " + std::to_string(s.map.size()) +
              "-entry --shard-map";
    return s;
  }
  s.shard_id = static_cast<std::size_t>(shard_id);
  if (merge_ms < 0) {
    s.error = "--shard-merge-ms must be >= 0";
    return s;
  }
  s.merge_ms = merge_ms;
  if (flags.get("role", "leader") != "leader") {
    s.error = "--shard-map is a leader flag (a shard's followers are "
              "plain followers of that shard's leader and need no map)";
    return s;
  }
  if (flags.get_int("model-instances", 1) != 1) {
    s.error = "--shard-map requires --model-instances 1 (a shard leader "
              "is the single-applier stack; scale out with more shards)";
    return s;
  }
  if (flags.get("wal-dir", "").empty()) {
    s.error = "--shard-map requires --wal-dir (merges are WAL records; "
              "acked => durable must hold across a shard leader crash)";
    return s;
  }
  return s;
}

}  // namespace crowdml::tools
