// Tests for the CLI flag parser used by the tools, and for the
// crowdml-server command lines it feeds to node::validate.
#include <gtest/gtest.h>

#include "net/messages.hpp"
#include "tools/flags.hpp"

using crowdml::tools::Flags;
namespace net = crowdml::net;
namespace node = crowdml::node;

namespace {

Flags parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

}  // namespace

TEST(Flags, EqualsForm) {
  const Flags f = parse({"--port=9000", "--host=localhost"});
  EXPECT_EQ(f.get_int("port", 0), 9000);
  EXPECT_EQ(f.get("host", ""), "localhost");
}

TEST(Flags, SpaceForm) {
  const Flags f = parse({"--port", "9000", "--lr", "0.5"});
  EXPECT_EQ(f.get_int("port", 0), 9000);
  EXPECT_DOUBLE_EQ(f.get_double("lr", 0.0), 0.5);
}

TEST(Flags, BareBoolean) {
  const Flags f = parse({"--verbose", "--port", "1"});
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_FALSE(f.get_bool("quiet"));
}

TEST(Flags, BooleanValues) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x"));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x"));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x"));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
}

TEST(Flags, Fallbacks) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
}

TEST(Flags, NegativeNumbersAsValues) {
  const Flags f = parse({"--target-error=-1.0", "--max-iterations=-1"});
  EXPECT_DOUBLE_EQ(f.get_double("target-error", 0.0), -1.0);
  EXPECT_EQ(f.get_int("max-iterations", 0), -1);
}

TEST(Flags, PositionalArgumentRejected) {
  EXPECT_THROW(parse({"oops"}), std::runtime_error);
}

TEST(Flags, LastValueWins) {
  const Flags f = parse({"--port=1", "--port=2"});
  EXPECT_EQ(f.get_int("port", 0), 2);
}

TEST(Flags, EmptyValueViaEquals) {
  const Flags f = parse({"--name="});
  EXPECT_TRUE(f.has("name"));
  EXPECT_EQ(f.get("name", "x"), "");
}

// ------------------------------------------------ server command lines
//
// A crowdml-server command line passes two gates: parse_server_flags
// (numbers, grammars, flags given where they mean nothing) and then
// node::validate (every rule on the parsed values), as Node::build runs
// it.

namespace {

node::NodeConfig server(std::vector<std::string> args) {
  return crowdml::tools::parse_server_flags(parse(std::move(args)));
}

// The refusal for a crowdml-server command line ("" when valid).
std::string server_refusal(std::vector<std::string> args) {
  try {
    return node::validate(server(std::move(args)));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

}  // namespace

TEST(ReplicaFlags, LeaderDefaultsToNoReplication) {
  EXPECT_EQ(server_refusal({}), "");
  const node::NodeConfig c = server({});
  EXPECT_EQ(c.repl.role, "leader");
  EXPECT_FALSE(c.repl.repl_enabled);
}

TEST(ReplicaFlags, LeaderQuorumSetup) {
  const std::vector<std::string> args = {"--wal-dir=wal", "--repl-ack=quorum",
                                         "--repl-followers=3",
                                         "--repl-port=7000"};
  EXPECT_EQ(server_refusal(args), "");
  const node::NodeConfig c = server(args);
  EXPECT_TRUE(c.repl.repl_enabled);
  EXPECT_EQ(c.repl.ack_mode, "quorum");
  EXPECT_EQ(c.repl.followers, 3);
  EXPECT_EQ(c.repl.repl_port, 7000);
}

TEST(ReplicaFlags, FollowerParsesLeaderAddr) {
  const std::vector<std::string> args = {
      "--role=follower", "--leader-addr=10.1.2.3:9100", "--wal-dir=replica"};
  EXPECT_EQ(server_refusal(args), "");
  const node::NodeConfig c = server(args);
  EXPECT_EQ(c.repl.leader_addr, "10.1.2.3:9100");
  // The split the node makes when it starts the follower.
  const auto hp = net::split_host_port(c.repl.leader_addr);
  ASSERT_TRUE(hp);
  EXPECT_EQ(hp->first, "10.1.2.3");
  EXPECT_EQ(hp->second, 9100);
}

TEST(ReplicaFlags, FollowerWithoutLeaderAddrRejected) {
  const std::string r = server_refusal({"--role=follower", "--wal-dir=replica"});
  EXPECT_FALSE(r.empty());
  EXPECT_NE(r.find("--leader-addr"), std::string::npos) << r;
}

TEST(ReplicaFlags, FollowerLeaderAddrMalformedRejected) {
  for (const char* addr : {"nohost", "host:", ":9100", "host:0",
                           "host:65536", "host:abc", "host:-1"}) {
    EXPECT_FALSE(server_refusal({"--role=follower",
                                 std::string("--leader-addr=") + addr,
                                 "--wal-dir=replica"})
                     .empty())
        << addr;
  }
  // IPv6-ish / multi-colon hosts split on the LAST colon.
  const std::vector<std::string> args = {
      "--role=follower", "--leader-addr=fe80::1:9100", "--wal-dir=replica"};
  EXPECT_EQ(server_refusal(args), "");
  const auto hp = net::split_host_port(server(args).repl.leader_addr);
  ASSERT_TRUE(hp);
  EXPECT_EQ(hp->first, "fe80::1");
  EXPECT_EQ(hp->second, 9100);
}

TEST(ReplicaFlags, FollowerRequiresWalDirAndEpollEngine) {
  EXPECT_FALSE(server_refusal({"--role=follower", "--leader-addr=h:1"}).empty());
}

TEST(ReplicaFlags, FollowerRejectsLeaderOnlyFlags) {
  for (const char* flag : {"--repl-ack=async", "--repl-port=7000",
                           "--repl-followers=2", "--promote-on-start"}) {
    EXPECT_FALSE(server_refusal({"--role=follower", "--leader-addr=h:1",
                                 "--wal-dir=replica", flag})
                     .empty())
        << flag;
  }
}

TEST(ReplicaFlags, LeaderRejectsLeaderAddr) {
  EXPECT_FALSE(server_refusal({"--leader-addr=h:1"}).empty());
}

TEST(ReplicaFlags, ReplicationRequiresWalDirAndEpoll) {
  EXPECT_FALSE(server_refusal({"--repl-ack=async"}).empty());
}

TEST(ReplicaFlags, PromoteOnStartEnablesReplication) {
  const std::vector<std::string> args = {"--promote-on-start", "--wal-dir=wal"};
  EXPECT_EQ(server_refusal(args), "");
  const node::NodeConfig c = server(args);
  EXPECT_TRUE(c.repl.repl_enabled);
  EXPECT_TRUE(c.repl.promote_on_start);
}

TEST(ReplicaFlags, AdvertiseHostDefaultsAndValidation) {
  // Default suits single-host tests; multi-host deployments override it
  // so redirects and vote repl_addrs point somewhere reachable.
  EXPECT_EQ(server({}).repl.advertise_host, "127.0.0.1");
  const std::vector<std::string> leader = {
      "--advertise-host=10.0.0.7", "--repl-ack=async", "--wal-dir=wal"};
  EXPECT_EQ(server_refusal(leader), "");
  EXPECT_EQ(server(leader).repl.advertise_host, "10.0.0.7");

  // A bare host only: the advertised ports are the bound ones, so a
  // host:port here would silently double up.
  EXPECT_FALSE(server_refusal({"--advertise-host=10.0.0.7:9100"}).empty());
  EXPECT_FALSE(server_refusal({"--advertise-host="}).empty());

  // Valid for both roles.
  const std::vector<std::string> follower = {
      "--role=follower", "--leader-addr=h:1", "--wal-dir=replica",
      "--advertise-host=replica-b"};
  EXPECT_EQ(server_refusal(follower), "");
  EXPECT_EQ(server(follower).repl.advertise_host, "replica-b");
}

TEST(ReplicaFlags, UnknownRoleAndAckModeRejected) {
  EXPECT_FALSE(server_refusal({"--role=observer"}).empty());
  EXPECT_FALSE(server_refusal({"--repl-ack=sync", "--wal-dir=wal"}).empty());
  EXPECT_FALSE(server_refusal({"--repl-ack=quorum", "--repl-followers=0",
                               "--wal-dir=wal"})
                   .empty());
}

// ------------------------------------------------------------ CoordFlags

TEST(CoordFlags, DisabledByDefault) {
  EXPECT_EQ(server_refusal({}), "");
  const node::NodeConfig c = server({});
  EXPECT_FALSE(c.coord.enabled);
  // Off means the default class table only.
  EXPECT_EQ(c.coord.classes.size(), 1u);
}

TEST(CoordFlags, FullParse) {
  const std::vector<std::string> args = {
      "--coord-steering", "--coord-classes=fast:4,slow:2,flaky:1",
      "--coord-target-utilization=0.8", "--coord-min-hint-ms=10",
      "--coord-max-hint-ms=60000", "--coord-init-rate=500"};
  ASSERT_EQ(server_refusal(args), "");
  const node::SteeringSettings c = server(args).coord;
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.classes.size(), 4u);  // three declared + default
  EXPECT_DOUBLE_EQ(c.target_utilization, 0.8);
  EXPECT_EQ(c.min_hint_ms, 10);
  EXPECT_EQ(c.max_hint_ms, 60000);
  EXPECT_DOUBLE_EQ(c.init_rate, 500.0);
}

TEST(CoordFlags, CoordFlagsWithoutSteeringRejected) {
  EXPECT_FALSE(server_refusal({"--coord-classes=fast:1"}).empty());
  EXPECT_FALSE(server_refusal({"--coord-init-rate=100"}).empty());
  EXPECT_FALSE(server_refusal({"--coord-max-hint-ms=1000"}).empty());
}

TEST(CoordFlags, SteeringRequiresEpollLeader) {
  EXPECT_FALSE(server_refusal({"--coord-steering", "--role=follower"}).empty());
  EXPECT_EQ(server_refusal({"--coord-steering"}), "");
  // Pooled serving steers too: one coordinator per instance applier.
  EXPECT_EQ(server_refusal({"--coord-steering", "--model-instances=4"}), "");
}

TEST(CoordFlags, MalformedClassSpecsRejected) {
  for (const char* spec :
       {"fast", "fast:0", "fast:-1", "fast:abc", "default:2", "a:1,a:2",
        "a:1,", "fa st:1"}) {
    const std::string r = server_refusal(
        {"--coord-steering", std::string("--coord-classes=") + spec});
    EXPECT_FALSE(r.empty()) << "accepted: " << spec;
    EXPECT_EQ(r.rfind("--coord-classes:", 0), 0u) << r;
  }
}

TEST(CoordFlags, NumericBoundsEnforced) {
  auto with = [](const std::string& extra) {
    return server_refusal({"--coord-steering", extra});
  };
  // Utilization is a fraction of measured capacity.
  EXPECT_FALSE(with("--coord-target-utilization=0").empty());
  EXPECT_FALSE(with("--coord-target-utilization=-0.5").empty());
  EXPECT_FALSE(with("--coord-target-utilization=1.5").empty());
  EXPECT_EQ(with("--coord-target-utilization=1.0"), "");
  // Hints: >= 1ms, min <= max, max below the hour ceiling.
  EXPECT_FALSE(with("--coord-min-hint-ms=0").empty());
  EXPECT_FALSE(with("--coord-min-hint-ms=-5").empty());
  EXPECT_FALSE(with("--coord-max-hint-ms=1").empty());  // < min (5)
  EXPECT_FALSE(with("--coord-max-hint-ms=3600000").empty());
  // Rates must be positive.
  EXPECT_FALSE(with("--coord-init-rate=0").empty());
  EXPECT_FALSE(with("--coord-init-rate=-100").empty());
  // Malformed numerics are refused like every other flag's, naming it.
  EXPECT_EQ(with("--coord-init-rate=fast"),
            "--coord-init-rate: expected a number, got 'fast'");
  EXPECT_EQ(with("--coord-min-hint-ms=ten"),
            "--coord-min-hint-ms: expected an integer, got 'ten'");
}

// ------------------------------------------------------ server flags

TEST(ServerFlags, MalformedNumberNamesTheFlag) {
  EXPECT_EQ(server_refusal({"--port", "abc"}),
            "--port: expected an integer, got 'abc'");
  EXPECT_EQ(server_refusal({"--port=80x"}),
            "--port: expected an integer, got '80x'");
  EXPECT_EQ(server_refusal({"--lr=fast"}),
            "--lr: expected a number, got 'fast'");
  EXPECT_EQ(server_refusal({"--lease-ms=1s", "--repl-ack=async",
                            "--wal-dir=wal"}),
            "--lease-ms: expected an integer, got '1s'");
}

TEST(ServerFlags, PortsOutsideSixteenBitsRefused) {
  // A uint16 cast would quietly bind 70000 - 65536 = 4464.
  EXPECT_EQ(server_refusal({"--port=70000"}),
            "--port: must be in 0..65535, got 70000");
  EXPECT_EQ(server_refusal({"--port=-1"}),
            "--port: must be in 0..65535, got -1");
  EXPECT_EQ(server_refusal({"--repl-port=70001", "--wal-dir=wal"}),
            "--repl-port: must be in 0..65535, got 70001");
  EXPECT_EQ(server_refusal({"--role=follower", "--leader-addr=h:1",
                            "--wal-dir=replica", "--election-timeout-ms=500",
                            "--vote-port=65536"}),
            "--vote-port: must be in 0..65535, got 65536");
  EXPECT_EQ(server_refusal({"--port=65535"}), "");
  EXPECT_EQ(server_refusal({"--port=0"}), "");
}

TEST(ServerFlags, CountsBelowOneRefused) {
  // --io-threads 0 used to print io-threads=0 while the engine ran 1.
  for (const char* flag : {"io-threads", "checkin-queue-max",
                           "model-instances", "segment-max-bytes"}) {
    EXPECT_EQ(server_refusal({std::string("--") + flag + "=0"}),
              std::string("--") + flag + ": must be >= 1, got 0");
    EXPECT_EQ(server_refusal({std::string("--") + flag + "=-3"}),
              std::string("--") + flag + ": must be >= 1, got -3");
  }
  const auto cfg = server({"--io-threads=2", "--model-instances=4"});
  EXPECT_EQ(cfg.io_threads, 2u);
  EXPECT_EQ(cfg.model_instances, 4u);
}

TEST(ServerFlags, BundleRefusalsPassThrough) {
  EXPECT_EQ(server_refusal({"--role=observer"}),
            "unknown --role observer (leader|follower)");
  EXPECT_EQ(server_refusal({"--secagg-cohort=1"}),
            "--secagg-cohort must be >= 2 (a cohort of one is just LDP)");
}
