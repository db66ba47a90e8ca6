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

}  // namespace

TEST(Node, RefusesInvalidTierCombinationsWithTodaysText) {
  struct Case {
    const char* name;
    std::function<void(node::NodeConfig&)> set;
    const char* refusal;
  };
  const auto secagg = [](node::NodeConfig& c) {
    c.secagg.enabled = true;
    c.secagg.cohort = 4;
  };
  const Case cases[] = {
      {"secagg key file on the server",
       [&](node::NodeConfig& c) {
         secagg(c);
         c.secagg.key_file = "fleet.key";
       },
       "--secagg-key-file is a device flag; the server must never hold the "
       "fleet masking key"},
      {"secagg on a follower",
       [&](node::NodeConfig& c) {
         secagg(c);
         c.repl.role = "follower";
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
      {"pool on a follower",
       [](node::NodeConfig& c) {
         c.model_instances = 2;
         c.repl.role = "follower";
       },
       "--model-instances > 1 with --role follower is not supported yet "
       "(pool failover is a coordinated-election problem; see ROADMAP.md)"},
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
    c.repl.leader_host = "127.0.0.1";
    c.repl.leader_port = leader->repl_port();
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
