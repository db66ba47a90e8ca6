// Minimal command-line flag parsing for the CLI tools (no external deps).
// Supports --name=value and --name value forms plus boolean --name.
//
// This file refuses only what it alone can see: a malformed number,
// port or grammar (--shard-map, --coord-classes), and a flag given where
// it means nothing. Every rule on the parsed values — ranges, roles,
// tier combinations — is node::validate's (src/node/config.hpp), which
// an in-process NodeConfig passes through too.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "node/config.hpp"

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

  /// The whole value must parse; a malformed or out-of-range number
  /// throws std::invalid_argument("--name: ...").
  long long get_int(const std::string& name, long long fallback) const {
    return get_number(name, fallback, "an integer",
                      [](const std::string& v, std::size_t* n) {
                        return std::stoll(v, n);
                      });
  }

  double get_double(const std::string& name, double fallback) const {
    return get_number(name, fallback, "a number",
                      [](const std::string& v, std::size_t* n) {
                        return std::stod(v, n);
                      });
  }

  bool get_bool(const std::string& name, bool fallback = false) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

 private:
  template <class T, class Parse>
  T get_number(const std::string& name, T fallback, const char* expected,
               Parse parse) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    T value{};
    try {
      value = parse(it->second, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != it->second.size())
      throw std::invalid_argument("--" + name + ": expected " + expected +
                                  ", got '" + it->second + "'");
    return value;
  }

  std::map<std::string, std::string> values_;
};

/// An integer flag in [min, max]; anything else throws.
inline long long get_in_range(const Flags& flags, const std::string& name,
                              long long fallback, long long min,
                              long long max) {
  const long long n = flags.get_int(name, fallback);
  if (n < min || n > max)
    throw std::invalid_argument(
        "--" + name + ": must be " +
        (max == std::numeric_limits<long long>::max()
             ? ">= " + std::to_string(min)
             : "in " + std::to_string(min) + ".." + std::to_string(max)) +
        ", got " + std::to_string(n));
  return n;
}

/// A port flag: 0 (ephemeral) through 65535; anything else throws.
inline std::uint16_t get_port(const Flags& flags, const std::string& name,
                              std::uint16_t fallback = 0) {
  return static_cast<std::uint16_t>(
      get_in_range(flags, name, fallback, 0, 65535));
}

/// A count flag that must be at least 1; anything else throws.
inline std::size_t get_count(const Flags& flags, const std::string& name,
                             std::size_t fallback) {
  return static_cast<std::size_t>(
      get_in_range(flags, name, static_cast<long long>(fallback), 1,
                   std::numeric_limits<long long>::max()));
}

/// Throws `refusal` when `given`: a flag present where it means nothing.
inline void refuse_if(bool given, const std::string& refusal) {
  if (given) throw std::invalid_argument(refusal);
}

/// Replication role flags for crowdml-server (docs/REPLICATION.md):
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
inline node::ReplicationSettings parse_replica_flags(const Flags& flags) {
  node::ReplicationSettings r;
  r.role = flags.get("role", "leader");
  r.ack_mode = flags.get("repl-ack", "none");
  r.epoch_dir = flags.get("epoch-dir", "");
  r.followers = flags.get_int("repl-followers", 2);
  r.promote_on_start = flags.get_bool("promote-on-start");
  r.repl_port = get_port(flags, "repl-port");
  r.leader_addr = flags.get("leader-addr", "");
  r.lease_ms = flags.get_int("lease-ms", 1000);
  r.election_timeout_ms = flags.get_int("election-timeout-ms", 0);
  r.peers = flags.get("peers", "");
  r.vote_port = get_port(flags, "vote-port");
  r.max_read_lag = flags.get_int("max-read-lag", 0);
  r.repl_key_file = flags.get("repl-key-file", "");
  r.advertise_host = flags.get("advertise-host", "127.0.0.1");
  r.repl_enabled = flags.has("repl-port") || r.ack_mode != "none" ||
                   r.promote_on_start;

  if (r.role == "follower") {
    refuse_if(flags.has("repl-ack") || flags.has("repl-port") ||
                  flags.has("promote-on-start") ||
                  flags.has("repl-followers"),
              "--repl-ack/--repl-port/--repl-followers/--promote-on-start "
              "are leader flags; a follower learns them from its leader");
    refuse_if(flags.has("lease-ms"),
              "--lease-ms is a leader flag; a follower's deadline comes "
              "from --election-timeout-ms");
    refuse_if((flags.has("peers") || flags.has("vote-port")) &&
                  r.election_timeout_ms == 0,
              "--peers/--vote-port require --election-timeout-ms > 0 "
              "(they only matter to an elector)");
  } else if (r.role == "leader") {
    refuse_if(flags.has("election-timeout-ms") || flags.has("peers") ||
                  flags.has("vote-port") || flags.has("max-read-lag"),
              "--election-timeout-ms/--peers/--vote-port/--max-read-lag "
              "are follower flags (the leader grants leases, it does not "
              "watch them)");
    refuse_if(flags.has("lease-ms") && !r.repl_enabled,
              "--lease-ms requires a replication plane (--repl-port or "
              "--repl-ack)");
  }
  return r;
}

/// Coordinator / pace-steering flags for crowdml-server
/// (docs/SCALING.md, "Pace steering"):
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
/// be enabled. With --model-instances k > 1 each instance's applier owns
/// its own Coordinator (k independent per-class pacing clocks — the
/// clock must live where the commits it measures happen; see
/// docs/SCALING.md).
inline node::SteeringSettings parse_coord_flags(const Flags& flags) {
  node::SteeringSettings c;
  c.enabled = flags.get_bool("coord-steering");
  c.target_utilization =
      flags.get_double("coord-target-utilization", c.target_utilization);
  c.min_hint_ms = flags.get_int("coord-min-hint-ms", c.min_hint_ms);
  c.max_hint_ms = flags.get_int("coord-max-hint-ms", c.max_hint_ms);
  c.init_rate = flags.get_double("coord-init-rate", c.init_rate);
  refuse_if(!c.enabled && (flags.has("coord-classes") ||
                           flags.has("coord-target-utilization") ||
                           flags.has("coord-min-hint-ms") ||
                           flags.has("coord-max-hint-ms") ||
                           flags.has("coord-init-rate")),
            "--coord-classes/--coord-target-utilization/"
            "--coord-min-hint-ms/--coord-max-hint-ms/--coord-init-rate "
            "require --coord-steering");
  const std::string spec = flags.get("coord-classes", "");
  if (!spec.empty()) {
    std::string perr;
    const auto table = coord::DeviceClassTable::parse(spec, &perr);
    if (!table) throw std::invalid_argument("--coord-classes: " + perr);
    c.classes = *table;
  }
  return c;
}

/// Secure-aggregation flags (docs/PRIVACY.md, "Secure aggregation") —
/// shared by crowdml-server and crowdml-device, which both check the
/// values with node::validate(SecAggSettings):
///   --secagg-cohort N            (cohort size c >= 2; 0/absent = off)
///   --secagg-min-survivors N     (abort threshold, default 2; in
///                                 [2, cohort])
///   --secagg-round-timeout-ms N  (collect + reveal deadline, default 2000)
///   --secagg-key-file PATH       (hex fleet masking key; devices only —
///                                 the server must NOT be given it)
/// Every other --secagg-* flag requires --secagg-cohort.
inline node::SecAggSettings parse_secagg_flags(const Flags& flags) {
  node::SecAggSettings s;
  s.cohort = flags.get_int("secagg-cohort", 0);
  s.min_survivors = flags.get_int("secagg-min-survivors", 2);
  s.round_timeout_ms = flags.get_int("secagg-round-timeout-ms", 2000);
  s.key_file = flags.get("secagg-key-file", "");
  s.enabled = s.cohort > 0;
  refuse_if(!s.enabled && (flags.has("secagg-min-survivors") ||
                           flags.has("secagg-round-timeout-ms") ||
                           flags.has("secagg-key-file")),
            "--secagg-min-survivors/--secagg-round-timeout-ms/"
            "--secagg-key-file require --secagg-cohort");
  return s;
}

/// Sharded-leader flags for crowdml-server (docs/SHARDING.md):
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
/// Sharding requires a leader role, --model-instances 1 (a shard leader
/// is the plain single-applier stack), and --wal-dir (the merge plane's
/// "acked => durable" rides the WAL).
inline node::ShardSettings parse_shard_flags(const Flags& flags) {
  node::ShardSettings s;
  const std::string map_spec = flags.get("shard-map", "");
  s.enabled = !map_spec.empty();
  const long long shard_id = flags.get_int("shard-id", 0);
  const long long shards = flags.get_int("shards", -1);
  s.merge_ms = flags.get_int("shard-merge-ms", 0);
  if (!s.enabled) {
    refuse_if(flags.has("shard-id") || flags.has("shards") ||
                  flags.has("shard-merge-ms"),
              "--shard-id/--shards/--shard-merge-ms require --shard-map");
    return s;
  }
  const auto map = shard::ShardMap::parse(map_spec);
  refuse_if(!map,
            "--shard-map must be a comma-separated host:port list, got '" +
                map_spec + "'");
  s.map = *map;
  refuse_if(shards >= 0 && static_cast<std::size_t>(shards) != s.map.size(),
            "--shards disagrees with the --shard-map size (" +
                std::to_string(shards) + " vs " +
                std::to_string(s.map.size()) + "); fix the roster");
  refuse_if(!flags.has("shard-id"),
            "--shard-map requires --shard-id (which entry is this "
            "server?)");
  refuse_if(shard_id < 0, "--shard-id: must be >= 0, got " +
                              std::to_string(shard_id));
  s.shard_id = static_cast<std::size_t>(shard_id);
  return s;
}

/// Every crowdml-server flag, parsed into a NodeConfig; the flag bundles
/// above cover replication, steering, secure aggregation and sharding.
/// The rest:
///   --port N                     device port (0 = ephemeral)
///   --classes N --dim N          problem shape (default 10 x 50)
///   --updater sgd|adagrad|momentum|dualavg   (default sgd)
///   --lr F --radius F            step size and projection radius (50, 500)
///   --max-iterations N           stop after N updates (-1 = never)
///   --target-error F             stop at this error estimate (-1 = off)
///   --seed N                     server RNG (pool instances split it)
///   --auth-seed N --enroll N     pre-enroll N devices from this seed
///   --keys-out PATH              their "device_id,hex_key" rows
///                                (default device_keys.csv)
///   --checkpoint PATH            load, then save at every report
///   --wal-dir DIR                durable store: WAL + atomic snapshots,
///                                recovered on start (docs/DURABILITY.md)
///   --fsync always|never|every-N WAL durability (default every-64)
///   --segment-max-bytes N        WAL segment rotation size (>= 1)
///   --force-fresh                set unreadable state aside instead of
///                                refusing to start
///   --model-instances K          draw-and-discard pool of K instances,
///                                each with its own applier and WAL stream
///                                (K = 1 is the single-applier path;
///                                docs/SCALING.md)
///   --io-threads N               I/O event loops (>= 1)
///   --checkin-queue-max N        admission bound; a full queue sheds
///                                with a retry_after nack (>= 1)
///   --follower-id N              follower: its id in leader traces
///   --report-every SECONDS       portal report, compaction and metrics
///                                (default 10)
///   --metrics-out PATH           Prometheus text, rewritten per report
///   --trace-out PATH             protocol lifecycle events (JSONL)
/// Throws std::invalid_argument carrying the first refusal of a flag;
/// the values are checked by node::validate, which Node::build runs.
inline node::NodeConfig parse_server_flags(const Flags& flags) {
  node::NodeConfig cfg;
  cfg.repl = parse_replica_flags(flags);
  cfg.coord = parse_coord_flags(flags);
  cfg.secagg = parse_secagg_flags(flags);
  cfg.shard = parse_shard_flags(flags);

  cfg.port = get_port(flags, "port");
  cfg.classes = static_cast<std::size_t>(flags.get_int("classes", cfg.classes));
  cfg.dim = static_cast<std::size_t>(flags.get_int("dim", cfg.dim));
  cfg.updater = flags.get("updater", cfg.updater);
  cfg.lr = flags.get_double("lr", cfg.lr);
  cfg.radius = flags.get_double("radius", cfg.radius);
  cfg.max_iterations = flags.get_int("max-iterations", cfg.max_iterations);
  cfg.target_error = flags.get_double("target-error", cfg.target_error);
  cfg.seed = flags.get_int("seed", cfg.seed);
  cfg.auth_seed = flags.get_int("auth-seed", cfg.auth_seed);
  cfg.enroll = flags.get_int("enroll", cfg.enroll);
  cfg.keys_out = flags.get("keys-out", cfg.keys_out);
  cfg.checkpoint = flags.get("checkpoint", cfg.checkpoint);
  cfg.wal_dir = flags.get("wal-dir", cfg.wal_dir);
  cfg.fsync = flags.get("fsync", cfg.fsync);
  cfg.segment_max_bytes =
      get_count(flags, "segment-max-bytes", cfg.segment_max_bytes);
  cfg.force_fresh = flags.get_bool("force-fresh");
  cfg.io_threads = get_count(flags, "io-threads", cfg.io_threads);
  cfg.checkin_queue_max =
      get_count(flags, "checkin-queue-max", cfg.checkin_queue_max);
  cfg.model_instances =
      get_count(flags, "model-instances", cfg.model_instances);
  cfg.follower_id = flags.get_int("follower-id", cfg.follower_id);
  cfg.report_every_s = flags.get_double("report-every", cfg.report_every_s);
  cfg.metrics_out = flags.get("metrics-out", cfg.metrics_out);
  cfg.trace_out = flags.get("trace-out", cfg.trace_out);
  return cfg;
}

}  // namespace crowdml::tools
