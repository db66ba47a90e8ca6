// Tests for the CLI flag parser used by the tools.
#include <gtest/gtest.h>

#include "tools/flags.hpp"

using crowdml::tools::Flags;

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

// --------------------------------------------- replication flag bundle

using crowdml::tools::ReplicaFlags;
using crowdml::tools::parse_replica_flags;

namespace {

ReplicaFlags replica(std::vector<std::string> args) {
  return parse_replica_flags(parse(std::move(args)));
}

}  // namespace

TEST(ReplicaFlags, LeaderDefaultsToNoReplication) {
  const ReplicaFlags r = replica({});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.role, "leader");
  EXPECT_FALSE(r.repl_enabled);
}

TEST(ReplicaFlags, LeaderQuorumSetup) {
  const ReplicaFlags r =
      replica({"--wal-dir=wal", "--repl-ack=quorum", "--repl-followers=3",
               "--repl-port=7000"});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.repl_enabled);
  EXPECT_EQ(r.ack_mode, "quorum");
  EXPECT_EQ(r.followers, 3);
  EXPECT_EQ(r.repl_port, 7000);
}

TEST(ReplicaFlags, FollowerParsesLeaderAddr) {
  const ReplicaFlags r =
      replica({"--role=follower", "--leader-addr=10.1.2.3:9100",
               "--wal-dir=replica"});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.leader_host, "10.1.2.3");
  EXPECT_EQ(r.leader_port, 9100);
  EXPECT_EQ(r.leader_addr, "10.1.2.3:9100");
}

TEST(ReplicaFlags, FollowerWithoutLeaderAddrRejected) {
  const ReplicaFlags r =
      replica({"--role=follower", "--wal-dir=replica"});
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("--leader-addr"), std::string::npos) << r.error;
}

TEST(ReplicaFlags, FollowerLeaderAddrMalformedRejected) {
  for (const char* addr : {"nohost", "host:", ":9100", "host:0",
                           "host:65536", "host:abc", "host:-1"}) {
    const ReplicaFlags r =
        replica({"--role=follower", std::string("--leader-addr=") + addr,
                 "--wal-dir=replica"});
    EXPECT_FALSE(r.error.empty()) << addr;
  }
  // IPv6-ish / multi-colon hosts split on the LAST colon.
  const ReplicaFlags r =
      replica({"--role=follower", "--leader-addr=fe80::1:9100",
               "--wal-dir=replica"});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.leader_host, "fe80::1");
  EXPECT_EQ(r.leader_port, 9100);
}

TEST(ReplicaFlags, FollowerRequiresWalDirAndEpollEngine) {
  EXPECT_FALSE(replica({"--role=follower", "--leader-addr=h:1"})
                   .error.empty());
}

TEST(ReplicaFlags, FollowerRejectsLeaderOnlyFlags) {
  for (const char* flag : {"--repl-ack=async", "--repl-port=7000",
                           "--repl-followers=2", "--promote-on-start"}) {
    const ReplicaFlags r =
        replica({"--role=follower", "--leader-addr=h:1", "--wal-dir=replica",
                 flag});
    EXPECT_FALSE(r.error.empty()) << flag;
  }
}

TEST(ReplicaFlags, LeaderRejectsLeaderAddr) {
  const ReplicaFlags r = replica({"--leader-addr=h:1"});
  EXPECT_FALSE(r.error.empty());
}

TEST(ReplicaFlags, ReplicationRequiresWalDirAndEpoll) {
  EXPECT_FALSE(replica({"--repl-ack=async"}).error.empty());
}

TEST(ReplicaFlags, PromoteOnStartEnablesReplication) {
  const ReplicaFlags r =
      replica({"--promote-on-start", "--wal-dir=wal"});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.repl_enabled);
  EXPECT_TRUE(r.promote_on_start);
}

TEST(ReplicaFlags, AdvertiseHostDefaultsAndValidation) {
  // Default suits single-host tests; multi-host deployments override it
  // so redirects and vote repl_addrs point somewhere reachable.
  EXPECT_EQ(replica({}).advertise_host, "127.0.0.1");
  const ReplicaFlags r =
      replica({"--advertise-host=10.0.0.7", "--repl-ack=async",
               "--wal-dir=wal"});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.advertise_host, "10.0.0.7");

  // A bare host only: the advertised ports are the bound ones, so a
  // host:port here would silently double up.
  EXPECT_FALSE(replica({"--advertise-host=10.0.0.7:9100"}).error.empty());
  EXPECT_FALSE(replica({"--advertise-host="}).error.empty());

  // Valid for both roles.
  const ReplicaFlags f =
      replica({"--role=follower", "--leader-addr=h:1", "--wal-dir=replica",
               "--advertise-host=replica-b"});
  EXPECT_TRUE(f.error.empty()) << f.error;
  EXPECT_EQ(f.advertise_host, "replica-b");
}

TEST(ReplicaFlags, UnknownRoleAndAckModeRejected) {
  EXPECT_FALSE(replica({"--role=observer"}).error.empty());
  EXPECT_FALSE(replica({"--repl-ack=sync", "--wal-dir=wal"}).error.empty());
  EXPECT_FALSE(replica({"--repl-ack=quorum", "--repl-followers=0",
                        "--wal-dir=wal"})
                   .error.empty());
}

// ------------------------------------------------------------ CoordFlags

namespace {

crowdml::tools::CoordFlags coordf(std::vector<std::string> args) {
  return crowdml::tools::parse_coord_flags(parse(std::move(args)));
}

}  // namespace

TEST(CoordFlags, DisabledByDefault) {
  const auto c = coordf({});
  EXPECT_TRUE(c.error.empty()) << c.error;
  EXPECT_FALSE(c.enabled);
  // Off means the default class table only.
  EXPECT_EQ(c.classes.size(), 1u);
}

TEST(CoordFlags, FullParse) {
  const auto c = coordf({"--coord-steering",
                         "--coord-classes=fast:4,slow:2,flaky:1",
                         "--coord-target-utilization=0.8",
                         "--coord-min-hint-ms=10", "--coord-max-hint-ms=60000",
                         "--coord-init-rate=500"});
  ASSERT_TRUE(c.error.empty()) << c.error;
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.classes.size(), 4u);  // three declared + default
  EXPECT_DOUBLE_EQ(c.target_utilization, 0.8);
  EXPECT_EQ(c.min_hint_ms, 10);
  EXPECT_EQ(c.max_hint_ms, 60000);
  EXPECT_DOUBLE_EQ(c.init_rate, 500.0);
}

TEST(CoordFlags, CoordFlagsWithoutSteeringRejected) {
  EXPECT_FALSE(coordf({"--coord-classes=fast:1"}).error.empty());
  EXPECT_FALSE(coordf({"--coord-init-rate=100"}).error.empty());
  EXPECT_FALSE(coordf({"--coord-max-hint-ms=1000"}).error.empty());
}

TEST(CoordFlags, SteeringRequiresEpollLeader) {
  EXPECT_FALSE(
      coordf({"--coord-steering", "--role=follower"}).error.empty());
  EXPECT_TRUE(coordf({"--coord-steering"}).error.empty());
  // Pooled serving steers too: one coordinator per instance applier.
  EXPECT_TRUE(
      coordf({"--coord-steering", "--model-instances=4"}).error.empty());
}

TEST(CoordFlags, MalformedClassSpecsRejected) {
  for (const char* spec :
       {"fast", "fast:0", "fast:-1", "fast:abc", "default:2", "a:1,a:2",
        "a:1,", "fa st:1"}) {
    const auto c = coordf(
        {"--coord-steering", std::string("--coord-classes=") + spec});
    EXPECT_FALSE(c.error.empty()) << "accepted: " << spec;
    EXPECT_EQ(c.error.rfind("--coord-classes:", 0), 0u) << c.error;
  }
}

TEST(CoordFlags, NumericBoundsEnforced) {
  const std::vector<std::string> base = {"--coord-steering"};
  auto with = [&](const std::string& extra) {
    auto args = base;
    args.push_back(extra);
    return coordf(args);
  };
  // Utilization is a fraction of measured capacity.
  EXPECT_FALSE(with("--coord-target-utilization=0").error.empty());
  EXPECT_FALSE(with("--coord-target-utilization=-0.5").error.empty());
  EXPECT_FALSE(with("--coord-target-utilization=1.5").error.empty());
  EXPECT_TRUE(with("--coord-target-utilization=1.0").error.empty());
  // Hints: >= 1ms, min <= max, max below the hour ceiling.
  EXPECT_FALSE(with("--coord-min-hint-ms=0").error.empty());
  EXPECT_FALSE(with("--coord-min-hint-ms=-5").error.empty());
  EXPECT_FALSE(with("--coord-max-hint-ms=1").error.empty());  // < min (5)
  EXPECT_FALSE(with("--coord-max-hint-ms=3600000").error.empty());
  // Rates must be positive.
  EXPECT_FALSE(with("--coord-init-rate=0").error.empty());
  EXPECT_FALSE(with("--coord-init-rate=-100").error.empty());
  // Malformed numerics are an error, not a silent default.
  EXPECT_FALSE(with("--coord-init-rate=fast").error.empty());
  EXPECT_FALSE(with("--coord-min-hint-ms=ten").error.empty());
}
