// Tests for node::Node, the tier composition crowdml-server runs: the
// refusals of invalid tier combinations, restart recovery, and an
// in-process twin of tests/repl_failover_test.sh built only from
// NodeConfig + Node::build.
//
// Suite names start with "Node": CI's ThreadSanitizer job runs them by
// regex.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "net/tcp.hpp"
#include "node/node.hpp"
#include "rng/engine.hpp"
#include "shard/shard_map.hpp"

using namespace crowdml;

namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_node_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string operator/(const std::string& name) const {
    return path + "/" + name;
  }
};

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// A small node: 3 classes x 4 features, two enrolled devices, its own
/// metrics registry, and no periodic report inside a test's lifetime.
node::NodeConfig small_config(const TempDir& dir, obs::MetricsRegistry& reg) {
  node::NodeConfig c;
  c.classes = 3;
  c.dim = 4;
  c.auth_seed = 7;
  c.enroll = 2;
  c.keys_out = dir / "keys.csv";
  c.wal_dir = dir / "wal";
  c.fsync = "always";
  c.report_every_s = 3600;
  c.metrics = &reg;
  return c;
}

net::Bytes checkin_frame(rng::Engine& eng,
                         const net::DeviceCredentials& creds) {
  net::CheckinMessage m;
  m.device_id = creds.device_id;
  for (int i = 0; i < 12; ++i)
    m.g_hat.push_back(static_cast<double>(eng() % 2001) / 1000.0 - 1.0);
  m.ns = 1 + static_cast<std::int64_t>(eng() % 10);
  m.ne_hat = static_cast<std::int64_t>(eng() % 3);
  for (int i = 0; i < 3; ++i)
    m.ny_hat.push_back(static_cast<std::int64_t>(eng() % 5));
  m.auth_tag = creds.sign(m.body());
  return net::encode_frame(net::MessageType::kCheckin, m.serialize());
}

/// Sends one checkin and reads its ack; nullopt when the connection failed.
std::optional<net::AckMessage> send_checkin(net::TcpConnection& conn,
                                            const net::Bytes& frame) {
  if (!conn.send_frame(frame)) return std::nullopt;
  const auto reply = conn.recv_frame();
  if (!reply) return std::nullopt;
  return net::AckMessage::deserialize(net::decode_frame(*reply).payload);
}

/// Sends one signed checkout and reads the parameters it is served.
std::optional<net::ParamsMessage> checkout(
    net::TcpConnection& conn, const net::DeviceCredentials& creds) {
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  if (!conn.send_frame(net::encode_frame(net::MessageType::kCheckoutRequest,
                                         req.serialize())))
    return std::nullopt;
  const auto reply = conn.recv_frame();
  if (!reply) return std::nullopt;
  return net::ParamsMessage::deserialize(net::decode_frame(*reply).payload);
}

}  // namespace

// node::validate is the one validity matrix: every refusal crowdml-server
// prints for a setting or a combination of settings is reachable from a
// bare NodeConfig, with the server's text.
TEST(Node, RefusesInvalidTierCombinationsWithTodaysText) {
  struct Case {
    const char* name;
    std::function<void(node::NodeConfig&)> set;
    const char* refusal;
  };
  const auto follower = [](node::NodeConfig& c) {
    c.repl.role = "follower";
    c.repl.leader_addr = "127.0.0.1:9100";
    c.wal_dir = "replica";
  };
  const auto replicated = [](node::NodeConfig& c) {
    c.repl.repl_enabled = true;
    c.wal_dir = "wal";
  };
  const auto steering = [](node::NodeConfig& c) { c.coord.enabled = true; };
  const auto secagg = [](node::NodeConfig& c) {
    c.secagg.enabled = true;
    c.secagg.cohort = 4;
  };
  const auto sharded = [](node::NodeConfig& c) {
    c.shard.enabled = true;
    c.shard.map = *shard::ShardMap::parse("127.0.0.1:9000,127.0.0.1:9001");
    c.shard.shard_id = 1;
    c.wal_dir = "wal";
  };
  // Each base alone is a valid node; the cases below break one rule each.
  using Setter = std::function<void(node::NodeConfig&)>;
  for (const Setter& base :
       {Setter(follower), Setter(replicated), Setter(steering), Setter(secagg),
        Setter(sharded)}) {
    node::NodeConfig cfg;
    base(cfg);
    EXPECT_EQ(node::validate(cfg), "");
  }
  const Case cases[] = {
      // Replication role and plane.
      {"unknown role", [](node::NodeConfig& c) { c.repl.role = "observer"; },
       "unknown --role observer (leader|follower)"},
      {"unknown ack mode",
       [&](node::NodeConfig& c) {
         replicated(c);
         c.repl.ack_mode = "sync";
       },
       "unknown --repl-ack sync (none|async|quorum)"},
      {"advertise host with a port",
       [](node::NodeConfig& c) { c.repl.advertise_host = "10.0.0.7:9100"; },
       "--advertise-host takes a bare host (ports are the bound ones), got "
       "'10.0.0.7:9100'"},
      {"empty advertise host",
       [](node::NodeConfig& c) { c.repl.advertise_host = ""; },
       "--advertise-host takes a bare host (ports are the bound ones), got "
       "''"},
      {"follower without a leader address",
       [&](node::NodeConfig& c) {
         follower(c);
         c.repl.leader_addr = "";
       },
       "--role follower requires --leader-addr host:port"},
      {"leader address without a port",
       [&](node::NodeConfig& c) {
         follower(c);
         c.repl.leader_addr = "nohost";
       },
       "--leader-addr must be host:port, got nohost"},
      {"leader address port out of range",
       [&](node::NodeConfig& c) {
         follower(c);
         c.repl.leader_addr = "host:65536";
       },
       "--leader-addr port out of range in host:65536"},
      {"follower without a WAL",
       [&](node::NodeConfig& c) {
         follower(c);
         c.wal_dir = "";
       },
       "--role follower requires --wal-dir (the replica's log)"},
      {"negative election timeout",
       [&](node::NodeConfig& c) {
         follower(c);
         c.repl.election_timeout_ms = -1;
       },
       "--election-timeout-ms must be >= 0"},
      {"negative read lag",
       [&](node::NodeConfig& c) {
         follower(c);
         c.repl.max_read_lag = -1;
       },
       "--max-read-lag must be >= 0"},
      {"leader with a leader address",
       [](node::NodeConfig& c) { c.repl.leader_addr = "127.0.0.1:9100"; },
       "--leader-addr is a follower flag (this node IS the leader)"},
      {"lease below 1 ms",
       [&](node::NodeConfig& c) {
         replicated(c);
         c.repl.lease_ms = 0;
       },
       "--lease-ms must be >= 1"},
      {"replication without a WAL",
       [&](node::NodeConfig& c) {
         replicated(c);
         c.wal_dir = "";
       },
       "replication requires --wal-dir (the WAL is the shipping buffer)"},
      {"quorum without followers",
       [&](node::NodeConfig& c) {
         replicated(c);
         c.repl.ack_mode = "quorum";
         c.repl.followers = 0;
       },
       "--repl-ack quorum requires --repl-followers >= 1"},
      // Pace steering.
      {"steering on a follower",
       [&](node::NodeConfig& c) {
         follower(c);
         steering(c);
       },
       "--coord-steering is a leader feature (a follower refuses checkins, "
       "so it has no applier to steer toward)"},
      {"utilization outside (0, 1]",
       [&](node::NodeConfig& c) {
         steering(c);
         c.coord.target_utilization = 1.5;
       },
       "--coord-target-utilization must be in (0, 1]"},
      {"minimum hint below 1 ms",
       [&](node::NodeConfig& c) {
         steering(c);
         c.coord.min_hint_ms = 0;
       },
       "--coord-min-hint-ms must be >= 1"},
      {"maximum hint below the minimum",
       [&](node::NodeConfig& c) {
         steering(c);
         c.coord.max_hint_ms = 1;
       },
       "--coord-max-hint-ms must be >= --coord-min-hint-ms"},
      {"maximum hint of an hour",
       [&](node::NodeConfig& c) {
         steering(c);
         c.coord.max_hint_ms = 3'600'000;
       },
       "--coord-max-hint-ms must be < 3600000 (one hour; the parseable "
       "retry-hint ceiling)"},
      {"non-positive initial rate",
       [&](node::NodeConfig& c) {
         steering(c);
         c.coord.init_rate = 0.0;
       },
       "--coord-init-rate must be > 0"},
      // Secure aggregation.
      {"cohort of one",
       [&](node::NodeConfig& c) {
         secagg(c);
         c.secagg.cohort = 1;
       },
       "--secagg-cohort must be >= 2 (a cohort of one is just LDP)"},
      {"more survivors than the cohort",
       [&](node::NodeConfig& c) {
         secagg(c);
         c.secagg.min_survivors = 5;
       },
       "--secagg-min-survivors must be in [2, --secagg-cohort] (below 2 a "
       "lone survivor's blob would be unmaskable alone)"},
      {"round timeout below 1 ms",
       [&](node::NodeConfig& c) {
         secagg(c);
         c.secagg.round_timeout_ms = 0;
       },
       "--secagg-round-timeout-ms must be >= 1"},
      {"secagg key file on the server",
       [&](node::NodeConfig& c) {
         secagg(c);
         c.secagg.key_file = "fleet.key";
       },
       "--secagg-key-file is a device flag; the server must never hold the "
       "fleet masking key"},
      {"secagg on a follower",
       [&](node::NodeConfig& c) {
         follower(c);
         secagg(c);
       },
       "--secagg-cohort is a leader feature (a follower refuses checkins, so "
       "it cannot apply cohort sums)"},
      {"secagg with a pool",
       [&](node::NodeConfig& c) {
         secagg(c);
         c.model_instances = 2;
       },
       "--secagg-cohort requires --model-instances 1 (cohort sums apply to "
       "one model)"},
      // Sharding.
      {"shard id past the map",
       [&](node::NodeConfig& c) {
         sharded(c);
         c.shard.shard_id = 2;
       },
       "--shard-id 2 is out of range for a 2-entry --shard-map"},
      {"negative merge interval",
       [&](node::NodeConfig& c) {
         sharded(c);
         c.shard.merge_ms = -1;
       },
       "--shard-merge-ms must be >= 0"},
      {"shard map on a follower",
       [&](node::NodeConfig& c) {
         sharded(c);
         follower(c);
       },
       "--shard-map is a leader flag (a shard's followers are plain "
       "followers of that shard's leader and need no map)"},
      {"shard map with a pool",
       [&](node::NodeConfig& c) {
         sharded(c);
         c.model_instances = 2;
       },
       "--shard-map requires --model-instances 1 (a shard leader is the "
       "single-applier stack; scale out with more shards)"},
      {"shard map without a WAL",
       [&](node::NodeConfig& c) {
         sharded(c);
         c.wal_dir = "";
       },
       "--shard-map requires --wal-dir (merges are WAL records; acked => "
       "durable must hold across a shard leader crash)"},
      // Draw-and-discard pools.
      {"pool on a follower",
       [&](node::NodeConfig& c) {
         follower(c);
         c.model_instances = 2;
       },
       "--model-instances > 1 with --role follower is not supported yet "
       "(pool failover is a coordinated-election problem; see ROADMAP.md)"},
      {"pool with a replication plane",
       [&](node::NodeConfig& c) {
         replicated(c);
         c.model_instances = 2;
       },
       "--model-instances > 1 does not replicate: drop --repl-port/"
       "--repl-ack/--promote-on-start or serve one model (no follower can "
       "rebuild a pool's k instance streams; see docs/REPLICATION.md)"},
      {"pool with a checkpoint",
       [](node::NodeConfig& c) {
         c.model_instances = 2;
         c.checkpoint = "state.bin";
       },
       "--checkpoint is single-model; use --wal-dir for a --model-instances "
       "pool"},
  };
  for (const Case& tc : cases) {
    node::NodeConfig cfg;
    tc.set(cfg);
    EXPECT_EQ(node::validate(cfg), tc.refusal) << tc.name;
    try {
      node::Node::build(cfg);
      ADD_FAILURE() << tc.name << ": built";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), tc.refusal) << tc.name;
    }
  }
}

TEST(Node, RestartRecoversEveryAckedCheckin) {
  TempDir dir;
  obs::MetricsRegistry reg;
  const node::NodeConfig cfg = small_config(dir, reg);
  long long acked = 0;
  {
    auto leader = node::Node::build(cfg);
    auto conn = net::TcpConnection::connect("127.0.0.1", leader->port(), 2000);
    ASSERT_TRUE(conn);
    rng::Engine eng(3);
    for (int i = 0; i < 20; ++i) {
      const auto ack =
          send_checkin(*conn, checkin_frame(eng, leader->enrolled()[0]));
      ASSERT_TRUE(ack);
      if (ack->ok) ++acked;
    }
    leader->shutdown();
  }
  ASSERT_EQ(acked, 20);
  auto restarted = node::Node::build(cfg);
  EXPECT_EQ(restarted->iteration(), 20u);
  restarted->shutdown();
}

// The twin of repl_failover_test.sh: a quorum-acked leader and two
// electing followers; the leader stops mid-traffic; a follower wins the
// election through Node::tick — the promotion path crowdml-server runs —
// and serves quorum-acked checkins; no checkin acked before the stop is
// lost.
// A follower whose vote port is taken refuses to build, with the reason,
// instead of serving with no vote listener.
TEST(Node, VoteListenerThatCannotBindRefusesToBuild) {
  TempDir dir;
  obs::MetricsRegistry reg;
  auto squatter = net::TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(squatter.has_value());
  node::NodeConfig c = small_config(dir, reg);
  c.repl.role = "follower";
  c.repl.leader_addr = "127.0.0.1:1";
  c.repl.election_timeout_ms = 500;
  c.repl.vote_port = squatter->port();
  c.repl.peers = "127.0.0.1:2";
  try {
    node::Node::build(c);
    FAIL() << "built a follower whose vote port was taken";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "vote listener bind failed on port " +
                  std::to_string(squatter->port()));
  }
}

TEST(NodeFailover, FollowerPromotedByTickServesQuorumAckedCheckins) {
  TempDir ldir, f1dir, f2dir;
  obs::MetricsRegistry lreg, f1reg, f2reg;
  {
    std::ofstream key(ldir / "repl.key");
    key << "6b1df3a0c4e55b27188f9ad02c637e41aa55bc0912fd8e7634cb10a9d2ef4873\n";
  }

  node::NodeConfig lcfg = small_config(ldir, lreg);
  lcfg.repl.ack_mode = "quorum";
  lcfg.repl.repl_enabled = true;
  lcfg.repl.followers = 2;
  lcfg.repl.lease_ms = 150;
  lcfg.repl.repl_key_file = ldir / "repl.key";
  auto leader = node::Node::build(lcfg);
  ASSERT_NE(leader->repl_port(), 0);

  const auto follower_config = [&](const TempDir& dir,
                                   obs::MetricsRegistry& reg, long long id,
                                   long long timeout_ms,
                                   const std::string& peers) {
    node::NodeConfig c = small_config(dir, reg);
    c.repl.role = "follower";
    c.repl.leader_addr = "127.0.0.1:" + std::to_string(leader->repl_port());
    c.repl.election_timeout_ms = timeout_ms;
    c.repl.peers = peers;
    c.repl.repl_key_file = lcfg.repl.repl_key_file;
    c.follower_id = id;
    c.seed = id;
    return c;
  };
  // f2 only votes (its fuse outlasts the test); f1 campaigns and knows
  // f2's vote endpoint.
  auto f2 = node::Node::build(follower_config(f2dir, f2reg, 2, 60'000, ""));
  ASSERT_NE(f2->vote_port(), 0);
  auto f1 = node::Node::build(follower_config(
      f1dir, f1reg, 1, 400, "127.0.0.1:" + std::to_string(f2->vote_port())));
  EXPECT_FALSE(f1->leading());
  EXPECT_FALSE(f2->leading());
  EXPECT_EQ(f1->enrolled()[0].key, leader->enrolled()[0].key);

  // Traffic to the leader, stopped mid-stream by the leader's shutdown.
  std::atomic<long long> acked{0};
  std::thread device([&] {
    auto conn = net::TcpConnection::connect("127.0.0.1", leader->port(), 2000);
    if (!conn) return;
    conn->set_deadline_ms(10'000);
    rng::Engine eng(9);
    while (const auto ack =
               send_checkin(*conn, checkin_frame(eng, leader->enrolled()[0]))) {
      if (!ack->ok) break;
      ++acked;
    }
  });
  const bool flowing = wait_until([&] { return acked.load() >= 40; });
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(f1->tick());
    EXPECT_TRUE(f2->tick());
  }
  EXPECT_FALSE(f1->leading()) << "promoted under a live leader";
  leader->shutdown();
  device.join();
  ASSERT_TRUE(flowing) << "the leader acked " << acked.load() << " checkins";
  const long long acked_before_stop = acked.load();

  // The same periodic step the binary runs promotes the winner.
  node::Node* winner = nullptr;
  node::Node* loser = nullptr;
  ASSERT_TRUE(wait_until([&] {
    EXPECT_TRUE(f1->tick());
    EXPECT_TRUE(f2->tick());
    if (f1->leading()) winner = f1.get(), loser = f2.get();
    if (f2->leading()) winner = f2.get(), loser = f1.get();
    return winner != nullptr;
  })) << "no follower promoted itself after the leader stopped";
  EXPECT_GE(static_cast<long long>(winner->iteration()), acked_before_stop)
      << "an acked checkin was lost";

  // The winner serves checkins, each held until the loser — now its
  // follower — durably appends it.
  auto conn = net::TcpConnection::connect("127.0.0.1", winner->port(), 2000);
  ASSERT_TRUE(conn);
  conn->set_deadline_ms(10'000);
  rng::Engine eng(11);
  long long acked_after = 0;
  for (int i = 0; i < 40 && acked_after < 10; ++i) {
    const auto ack =
        send_checkin(*conn, checkin_frame(eng, winner->enrolled()[0]));
    ASSERT_TRUE(ack);
    if (ack->ok) ++acked_after;
  }
  EXPECT_EQ(acked_after, 10);
  EXPECT_TRUE(wait_until(
      [&] { return loser->iteration() == winner->iteration(); }));
  EXPECT_GE(static_cast<long long>(loser->iteration()),
            acked_before_stop + acked_after);

  f1->shutdown();
  f2->shutdown();
}

// A draw-and-discard pool of two instances with pace steering, served
// through the node's device port: every checkout and checkin ack carries
// the pacing hint of the instance that answered it, and a node rebuilt on
// the same --wal-dir recovers each instance's version and parameters.
TEST(Node, PoolServesSteeredCheckinsAndRecoversEveryInstance) {
  TempDir dir;
  obs::MetricsRegistry reg;
  node::NodeConfig cfg = small_config(dir, reg);
  cfg.model_instances = 2;
  cfg.coord.enabled = true;
  std::vector<std::uint64_t> versions;
  std::vector<linalg::Vector> params;
  {
    auto pool = node::Node::build(cfg);
    auto conn = net::TcpConnection::connect("127.0.0.1", pool->port(), 2000);
    ASSERT_TRUE(conn);
    rng::Engine eng(5);
    for (int i = 0; i < 30; ++i) {
      const auto ack = send_checkin(
          *conn, checkin_frame(eng, pool->enrolled()[i % 2]));
      ASSERT_TRUE(ack);
      EXPECT_TRUE(ack->ok) << ack->reason;
      EXPECT_GT(ack->next_checkin_hint_ms, 0u);
    }
    for (int i = 0; i < 10; ++i) {
      const auto params = checkout(*conn, pool->enrolled()[0]);
      ASSERT_TRUE(params);
      EXPECT_TRUE(params->accepted);
      EXPECT_GT(params->next_checkin_hint_ms, 0u);
    }
    pool->shutdown();
    for (std::size_t i = 0; i < 2; ++i) {
      versions.push_back(pool->server(i).version());
      params.push_back(pool->server(i).parameters());
      // Both instances applied checkins (routes are uniform).
      EXPECT_GT(versions.back(), 0u) << "instance " << i;
    }
    EXPECT_EQ(pool->iteration(), versions[0] + versions[1]);
  }
  auto restarted = node::Node::build(cfg);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(restarted->server(i).version(), versions[i]) << "instance " << i;
    EXPECT_EQ(restarted->server(i).parameters(), params[i])
        << "instance " << i;
  }
  restarted->shutdown();
}

// Each pool instance recovers through the single-model path with its own
// directory: a corrupt segment in instance-001 is refused with the k = 1
// wording naming that directory, and --force-fresh sets only that
// instance's log aside while instance 0 keeps its state.
TEST(Node, PoolCorruptInstanceSegmentIsRefusedOrSetAsideAlone) {
  TempDir dir;
  obs::MetricsRegistry reg;
  node::NodeConfig cfg = small_config(dir, reg);
  cfg.model_instances = 2;
  std::uint64_t version0 = 0;
  linalg::Vector params0;
  {
    auto pool = node::Node::build(cfg);
    auto conn = net::TcpConnection::connect("127.0.0.1", pool->port(), 2000);
    ASSERT_TRUE(conn);
    rng::Engine eng(6);
    for (int i = 0; i < 30; ++i) {
      const auto ack = send_checkin(
          *conn, checkin_frame(eng, pool->enrolled()[i % 2]));
      ASSERT_TRUE(ack);
      ASSERT_TRUE(ack->ok) << ack->reason;
    }
    // No shutdown(): that compacts, and the segments must stay as logged.
    conn.reset();
    pool.reset();
  }
  const std::string instance1 = dir / "wal/instance-001";
  std::vector<std::filesystem::path> segments;
  for (const auto& entry : std::filesystem::directory_iterator(instance1))
    if (entry.path().filename().string().rfind("wal-", 0) == 0)
      segments.push_back(entry.path());
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_GT(std::filesystem::file_size(segments[0]), 200u);
  {
    // A bit flip in the first record, with records logged after it, is
    // corruption, not a torn tail.
    std::fstream f(segments[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(30);
    const char byte = static_cast<char>(f.get());
    f.seekp(30);
    f.put(static_cast<char>(byte ^ 0x5a));
  }

  try {
    node::Node::build(cfg);
    FAIL() << "built over a corrupt instance log";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("wal recovery from " + instance1 + " failed (", 0), 0u)
        << what;
    EXPECT_NE(what.find("); refusing to start — pass --force-fresh to set the "
                        "corrupt log aside"),
              std::string::npos)
        << what;
  }

  cfg.force_fresh = true;
  {
    auto pool = node::Node::build(cfg);
    EXPECT_TRUE(std::filesystem::exists(instance1 + ".corrupt"));
    EXPECT_TRUE(std::filesystem::exists(dir / "wal/instance-000"));
    EXPECT_FALSE(std::filesystem::exists(dir / "wal.corrupt"));
    EXPECT_FALSE(std::filesystem::exists(dir / "wal/instance-000.corrupt"));
    EXPECT_GT(pool->server(0).version(), 0u);
    EXPECT_EQ(pool->server(1).version(), 0u);
    version0 = pool->server(0).version();
    params0 = pool->server(0).parameters();
    pool->shutdown();
  }
  // Instance 0's state is its own log's: a third start recovers it again.
  auto restarted = node::Node::build(cfg);
  EXPECT_EQ(restarted->server(0).version(), version0);
  EXPECT_EQ(restarted->server(0).parameters(), params0);
  restarted->shutdown();
}
