// Replication bench: what the read-replica tier buys and what it costs.
//
// Topology under test: one leader (epoll engine, durable store, async
// WAL shipping) plus two followers, each applying the shipped log
// through the deterministic replay path and serving checkouts from its
// own snapshot board.
//
//   (a) Checkout scaling — aggregate checkout throughput with all client
//       connections on the leader (baseline) vs the same number of
//       connections spread across leader + 2 followers. Checkouts are
//       the read path replicas exist to scale; near-linear is the goal.
//   (b) Replication lag — while checkin traffic flows through the
//       leader, measure commit-to-applied latency per record: the clock
//       starts when the leader's group commit makes a seq durable and
//       stops when a follower has applied (and fsynced) it. Reported as
//       percentiles per follower.
//   (c) Failover — repeated trials of the full automatic-failover arc:
//       the leader dies abruptly, the candidate follower's failure
//       detector trips (100-200ms fuse), it wins the elector's vote,
//       self-promotes through the same handoff crowdml-server performs,
//       and quorum-acks its first checkin. Reported as the
//       death-to-first-ack wall time (median/p99), detection included.
//
// Scale via CROWDML_SCALE (default 0.25 => 2000 checkouts per node
// phase, 1000 lag-timed checkins, 5 failover trials). --json-out PATH
// writes the table (see EXPERIMENTS.md; BENCH_replication.json at the
// repo root).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "engine/epoll_server.hpp"
#include "replica/failure_detector.hpp"
#include "replica/follower.hpp"
#include "replica/log_shipper.hpp"
#include "store/durable_store.hpp"
#include "tools/flags.hpp"

namespace {

using namespace crowdml;

constexpr std::size_t kClasses = 10;
constexpr std::size_t kDim = 5;
constexpr long long kWindow = 8;

core::Server make_server() {
  core::ServerConfig cfg;
  cfg.param_dim = kClasses * kDim;
  cfg.num_classes = kClasses;
  return core::Server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0),
                      rng::Engine(1));
}

struct ClientFrames {
  net::Bytes checkout;
  net::Bytes checkin;
};

ClientFrames make_frames(const net::DeviceCredentials& creds,
                         rng::Engine& eng) {
  ClientFrames f;
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  f.checkout =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());
  net::CheckinMessage m;
  m.device_id = creds.device_id;
  for (std::size_t i = 0; i < kClasses * kDim; ++i)
    m.g_hat.push_back(static_cast<double>(eng() % 2001) / 1000.0 - 1.0);
  m.ns = 10;
  m.ne_hat = static_cast<std::int64_t>(eng() % 3);
  for (std::size_t i = 0; i < kClasses; ++i)
    m.ny_hat.push_back(static_cast<std::int64_t>(eng() % 5));
  m.auth_tag = creds.sign(m.body());
  f.checkin = net::encode_frame(net::MessageType::kCheckin, m.serialize());
  return f;
}

/// Pipelined checkout load against one port; returns aggregate ops/s
/// (same generator shape as bench/serving_engine.cpp).
double hammer_checkouts(std::uint16_t port, std::size_t conns,
                        const std::vector<ClientFrames>& frames,
                        long long total) {
  std::vector<net::TcpConnection> sockets;
  for (std::size_t c = 0; c < conns; ++c) {
    auto conn = net::TcpConnection::connect("127.0.0.1", port, 2000);
    if (!conn) throw std::runtime_error("bench client connect failed");
    sockets.push_back(std::move(*conn));
  }
  std::atomic<long long> remaining{total};
  std::vector<std::thread> threads;
  const std::size_t workers = std::min<std::size_t>(8, conns);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::size_t c = w;
      for (;;) {
        const long long k = std::min(kWindow, remaining.fetch_sub(kWindow));
        if (k <= 0) break;
        long long sent = 0;
        for (long long i = 0; i < k; ++i)
          if (sockets[c].send_frame(frames[c % frames.size()].checkout))
            ++sent;
        for (long long i = 0; i < sent; ++i) sockets[c].recv_frame();
        c = (c + workers < sockets.size()) ? c + workers : w;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(total) / wall;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_replbench_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  try {
    const tools::Flags flags(argc, argv);
    json_out = flags.get("json-out", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replication: %s (only --json-out PATH)\n", e.what());
    return 1;
  }
  const bench::Options o = bench::options();
  const long long checkouts = std::max(512, static_cast<int>(8000 * o.scale));
  const long long checkins = std::max(256, static_cast<int>(4000 * o.scale));
  constexpr std::size_t kFollowers = 2;
  constexpr std::size_t kConns = 48;  // per serving node

  bench::header("replication",
                "read-replica checkout scaling and commit-to-applied "
                "replication lag (leader + 2 followers)", o);

  // --- Leader: epoll engine, durable store (group commit), async shipper.
  TempDir ldir;
  obs::MetricsRegistry reg;
  core::Server leader = make_server();
  store::DurableStoreOptions sopts;
  sopts.wal.fsync = store::FsyncPolicy::kAlways;
  sopts.wal.metrics = &reg;
  store::DurableStore store(ldir.path, sopts);
  store.recover(leader);
  store.attach(leader);
  store.set_group_commit(true);

  replica::ShipperOptions shopts;
  shopts.ack_mode = replica::ReplAckMode::kAsync;
  shopts.metrics = &reg;
  replica::LogShipper shipper(leader, store, 1, shopts);

  // Commit timestamps per seq, for the lag clock. The leader side stamps
  // under the group-commit hook (the moment the record becomes durable
  // and shippable); each follower's on_applied hook reads them.
  std::mutex commit_mu;
  std::vector<std::chrono::steady_clock::time_point> committed_at(1);
  net::AuthRegistry auth(rng::Engine(2));
  engine::EngineConfig ecfg;
  ecfg.max_connections = kConns + 8;
  ecfg.checkin_queue_max = 4096;
  ecfg.metrics = &reg;
  ecfg.group_commit = [&] {
    if (!store.commit_group()) return false;
    {
      std::lock_guard<std::mutex> lock(commit_mu);
      const std::uint64_t last = store.wal().last_seq();
      const auto now = std::chrono::steady_clock::now();
      while (committed_at.size() <= last) committed_at.push_back(now);
    }
    shipper.notify_committed();
    return true;
  };
  engine::EpollCrowdServer leader_engine(leader, auth, ecfg);

  // --- Followers: replica store + engine in redirect mode, with a lag
  // probe in on_applied.
  struct Node {
    TempDir dir;
    core::Server server = make_server();
    net::AuthRegistry auth{rng::Engine(2)};  // same seed => same keys
    std::unique_ptr<replica::Follower> follower;
    std::unique_ptr<engine::EpollCrowdServer> engine;
    std::vector<double> lag_ms;
    std::uint64_t lag_seen = 0;
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < kFollowers; ++i) {
    auto node = std::make_unique<Node>();
    Node* n = node.get();
    replica::FollowerOptions fo;
    fo.leader_port = shipper.port();
    fo.follower_id = i + 1;
    fo.store = sopts;
    fo.metrics = &reg;
    fo.reconnect_backoff_ms = 20;
    fo.on_applied = [n, &commit_mu, &committed_at] {
      const auto now = std::chrono::steady_clock::now();
      const std::uint64_t applied = n->follower->applied_seq();
      std::lock_guard<std::mutex> lock(commit_mu);
      for (std::uint64_t s = n->lag_seen + 1;
           s <= applied && s < committed_at.size(); ++s)
        n->lag_ms.push_back(std::chrono::duration<double, std::milli>(
                                now - committed_at[s])
                                .count());
      n->lag_seen = applied;
      if (n->engine) n->engine->republish();
    };
    node->follower =
        std::make_unique<replica::Follower>(node->server, node->dir.path, fo);
    engine::EngineConfig fcfg;
    fcfg.max_connections = kConns + 8;
    fcfg.metrics = &reg;
    fcfg.checkin_redirect = "127.0.0.1:" + std::to_string(leader_engine.port());
    node->engine = std::make_unique<engine::EpollCrowdServer>(
        node->server, node->auth, fcfg);
    node->follower->start();
    nodes.push_back(std::move(node));
  }

  // Enrolled frames (identical keys on every node thanks to the seed).
  std::vector<ClientFrames> frames;
  rng::Engine eng(42);
  for (std::size_t c = 0; c < kConns; ++c) {
    const auto creds = auth.enroll();
    for (auto& n : nodes) n->auth.enroll();
    frames.push_back(make_frames(creds, eng));
  }

  // --- (b) Replication lag under checkin load (also warms the log).
  {
    std::vector<net::TcpConnection> socks;
    for (int c = 0; c < 8; ++c) {
      auto conn =
          net::TcpConnection::connect("127.0.0.1", leader_engine.port(), 2000);
      if (!conn) throw std::runtime_error("connect failed");
      socks.push_back(std::move(*conn));
    }
    std::atomic<long long> remaining{checkins};
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < socks.size(); ++w) {
      threads.emplace_back([&, w] {
        for (;;) {
          const long long k = std::min(kWindow, remaining.fetch_sub(kWindow));
          if (k <= 0) break;
          long long sent = 0;
          for (long long i = 0; i < k; ++i)
            if (socks[w].send_frame(frames[w].checkin)) ++sent;
          for (long long i = 0; i < sent; ++i) socks[w].recv_frame();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const std::uint64_t logged = leader.version();
  for (auto& n : nodes) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (n->follower->applied_seq() < logged &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::printf("\n%lld checkins through the leader; followers applied "
              "%llu and %llu of %llu\n",
              checkins,
              static_cast<unsigned long long>(nodes[0]->follower->applied_seq()),
              static_cast<unsigned long long>(nodes[1]->follower->applied_seq()),
              static_cast<unsigned long long>(logged));
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "follower", "records",
              "p50_ms", "p90_ms", "p99_ms", "max_ms");
  std::vector<std::vector<double>> lag_pcts;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<double> lag;
    {
      std::lock_guard<std::mutex> lock(commit_mu);
      lag = nodes[i]->lag_ms;
    }
    const double p50 = percentile(lag, 0.50), p90 = percentile(lag, 0.90),
                 p99 = percentile(lag, 0.99),
                 mx = lag.empty() ? 0.0
                                  : *std::max_element(lag.begin(), lag.end());
    lag_pcts.push_back({p50, p90, p99, mx});
    std::printf("%-10zu %10zu %10.2f %10.2f %10.2f %10.2f\n", i + 1,
                lag.size(), p50, p90, p99, mx);
  }

  // --- (a) Checkout scaling. Each node is measured solo first: on a
  // shared host the nodes contend for the same cores, so the honest
  // multi-machine projection is the sum of per-node solo capacities
  // (each node serves checkouts from its own lock-free snapshot board
  // with zero cross-node work per request — the sum is what distinct
  // machines would deliver). The concurrent same-host aggregate is also
  // reported; with fewer cores than serving threads it measures core
  // count, not the architecture.
  std::vector<double> solo(1 + nodes.size());
  solo[0] = hammer_checkouts(leader_engine.port(), kConns, frames, checkouts);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    solo[i + 1] =
        hammer_checkouts(nodes[i]->engine->port(), kConns, frames, checkouts);
  double projected = 0.0;
  for (const double x : solo) projected += x;
  const double scaling = projected / solo[0];

  std::vector<double> concurrent(1 + nodes.size());
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      concurrent[0] =
          hammer_checkouts(leader_engine.port(), kConns, frames, checkouts);
    });
    for (std::size_t i = 0; i < nodes.size(); ++i)
      threads.emplace_back([&, i] {
        concurrent[i + 1] = hammer_checkouts(nodes[i]->engine->port(), kConns,
                                             frames, checkouts);
      });
    for (auto& t : threads) t.join();
  }
  double same_host = 0.0;
  for (const double x : concurrent) same_host += x;

  std::printf("\n%-30s %14s\n", "topology", "checkouts/s");
  std::printf("%-30s %14.0f\n", "leader solo", solo[0]);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    std::printf("follower %zu solo %15s %14.0f  (%.2fx leader)\n", i + 1, "",
                solo[i + 1], solo[i + 1] / solo[0]);
  std::printf("%-30s %14.0f  (%.2fx, multi-machine projection)\n",
              "leader + 2 followers (sum)", projected, scaling);
  std::printf("%-30s %14.0f  (same host, shared cores)\n",
              "leader + 2 followers (conc.)", same_host);

  // --- (c) Failover: abrupt leader death -> detector trip -> election
  // -> self-promotion handoff -> first quorum-acked checkin, end to end.
  // Each trial is a fresh miniature cluster so the clock always starts
  // from a healthy steady state.
  const int trials = std::max(5, static_cast<int>(20 * o.scale));
  std::vector<double> failover_ms;
  bool failover_acked = true;
  for (int t = 0; t < trials; ++t) {
    TempDir tl, tf1, tf2;
    core::Server lsrv = make_server();
    store::DurableStore lst(tl.path, sopts);
    lst.recover(lsrv);
    lst.attach(lsrv);
    lst.set_group_commit(true);
    replica::ShipperOptions sh;
    sh.ack_mode = replica::ReplAckMode::kQuorum;
    sh.quorum_follower_acks = 1;
    sh.heartbeat_interval_ms = 20;  // lease defaults to 60ms
    auto ship = std::make_unique<replica::LogShipper>(lsrv, lst, 1, sh);

    net::AuthRegistry lauth{rng::Engine(2)};
    engine::EngineConfig lec;
    lec.group_commit = [&] {
      if (!lst.commit_group()) return false;
      ship->notify_committed();
      return ship->await_quorum(lst.wal().last_seq());
    };
    auto leng = std::make_unique<engine::EpollCrowdServer>(lsrv, lauth, lec);

    // Elector first (long fuse: never campaigns), so the candidate can
    // name its vote endpoint; then the 100-200ms-fused candidate.
    core::Server s2 = make_server();
    replica::FollowerOptions o2;
    o2.leader_port = ship->port();
    o2.follower_id = 2;
    o2.reconnect_backoff_ms = 10;
    o2.detector.election_timeout_min_ms = 60'000;
    auto f2 = std::make_unique<replica::Follower>(s2, tf2.path, o2);
    f2->start();
    while (f2->vote_port() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

    core::Server s1 = make_server();
    replica::FollowerOptions o1;
    o1.leader_port = ship->port();
    o1.follower_id = 1;
    o1.reconnect_backoff_ms = 10;
    o1.detector.election_timeout_min_ms = 100;
    o1.detector.election_timeout_max_ms = 200;
    o1.peers = replica::parse_peer_list("127.0.0.1:" +
                                        std::to_string(f2->vote_port()));
    o1.rng_seed = static_cast<std::uint64_t>(t) + 1;
    auto f1 = std::make_unique<replica::Follower>(s1, tf1.path, o1);
    f1->start();

    // Warm: one quorum-acked checkin, both replicas caught up.
    const auto creds = lauth.enroll();
    const ClientFrames cf = make_frames(creds, eng);
    auto warm = net::TcpConnection::connect("127.0.0.1", leng->port(), 2000);
    if (!warm) throw std::runtime_error("failover warm connect failed");
    warm->set_deadline_ms(10'000);
    warm->send_frame(cf.checkin);
    warm->recv_frame();
    while (f1->applied_seq() < lsrv.version() ||
           f2->applied_seq() < lsrv.version())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const auto death = std::chrono::steady_clock::now();
    leng->shutdown();  // the leader dies mid-deployment, no goodbye
    ship->shutdown();
    while (!f1->promoted())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The crowdml-server promotion handoff, same ordering: replication
    // thread down before its store joins the serving path; republish
    // before checkins; shipper on the just-freed vote port the elector
    // was retargeted to when it granted.
    const std::uint64_t won = f1->epoch();
    const std::uint16_t rport = f1->vote_port();
    f1->shutdown();
    store::DurableStore& fs = f1->store();
    fs.set_group_commit(true);
    fs.attach(s1);
    replica::ShipperOptions sh2;
    sh2.port = rport;
    sh2.ack_mode = replica::ReplAckMode::kQuorum;
    sh2.quorum_follower_acks = 1;
    sh2.heartbeat_interval_ms = 20;
    auto ship2 = std::make_unique<replica::LogShipper>(s1, fs, won, sh2);
    net::AuthRegistry nauth{rng::Engine(2)};  // same seed => same keys
    nauth.enroll();
    engine::EngineConfig nec;
    nec.group_commit = [&] {
      if (!fs.commit_group()) return false;
      ship2->notify_committed();
      return ship2->await_quorum(fs.wal().last_seq());
    };
    auto neng = std::make_unique<engine::EpollCrowdServer>(s1, nauth, nec);

    // First checkin on the new leader: the ack waits for the elector to
    // rejoin the winner and durably append — the full regime, restored.
    auto conn = net::TcpConnection::connect("127.0.0.1", neng->port(), 2000);
    if (!conn) throw std::runtime_error("failover checkin connect failed");
    conn->set_deadline_ms(10'000);
    conn->send_frame(cf.checkin);
    const auto reply = conn->recv_frame();
    const auto first_ack = std::chrono::steady_clock::now();
    const bool ok =
        reply &&
        net::AckMessage::deserialize(net::decode_frame(*reply).payload).ok;
    failover_acked = failover_acked && ok;
    failover_ms.push_back(
        std::chrono::duration<double, std::milli>(first_ack - death).count());

    f2->shutdown();
    neng->shutdown();
    ship2->shutdown();
  }
  const double fo_p50 = percentile(failover_ms, 0.50);
  const double fo_p99 = percentile(failover_ms, 0.99);
  const double fo_max =
      failover_ms.empty()
          ? 0.0
          : *std::max_element(failover_ms.begin(), failover_ms.end());
  std::printf("\nfailover (%d trials, 100-200ms detection fuse): "
              "death-to-first-ack p50 %.0fms  p99 %.0fms  max %.0fms\n",
              trials, fo_p50, fo_p99, fo_max);

  // Near-linear: every follower serves reads about as fast as the
  // leader, so 3 serving nodes project to ~3x one.
  bool followers_match = true;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    followers_match = followers_match && solo[i + 1] >= 0.7 * solo[0];
  const bool scale_ok = followers_match && scaling >= 2.4;
  const bool lag_ok = !lag_pcts.empty() && lag_pcts[0][2] < 1000.0;
  // With a 100-200ms fuse, detection dominates; anything near a second
  // of median means promotion or the elector's rejoin is dragging.
  const bool failover_ok = failover_acked && fo_p50 < 1500.0;
  bench::check(followers_match,
               "each follower serves checkouts >= 0.7x the leader's rate");
  bench::check(scale_ok,
               "2 followers project aggregate checkout throughput >= 2.4x");
  bench::check(lag_ok, "p99 commit-to-applied lag under a second");
  bench::check(failover_ok,
               "every trial's first post-failover checkin acked, median "
               "death-to-first-ack under 1.5s");

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "replication: cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"replication\",\n  \"scale\": %g,\n"
                 "  \"host\": %s,\n"
                 "  \"followers\": %zu,\n  \"checkins_logged\": %llu,\n"
                 "  \"checkout_throughput\": {\n"
                 "    \"leader_solo_per_s\": %.0f,\n"
                 "    \"follower1_solo_per_s\": %.0f,\n"
                 "    \"follower2_solo_per_s\": %.0f,\n"
                 "    \"projected_aggregate_per_s\": %.0f,\n"
                 "    \"projected_scaling_x\": %.2f,\n"
                 "    \"same_host_concurrent_per_s\": %.0f\n  },\n"
                 "  \"replication_lag_ms\": [\n",
                 o.scale, bench::host_facts_json().c_str(), nodes.size(),
                 static_cast<unsigned long long>(logged), solo[0], solo[1],
                 solo[2], projected, scaling, same_host);
    for (std::size_t i = 0; i < lag_pcts.size(); ++i)
      std::fprintf(f,
                   "    {\"follower\": %zu, \"p50\": %.2f, \"p90\": %.2f, "
                   "\"p99\": %.2f, \"max\": %.2f}%s\n",
                   i + 1, lag_pcts[i][0], lag_pcts[i][1], lag_pcts[i][2],
                   lag_pcts[i][3], i + 1 < lag_pcts.size() ? "," : "");
    std::fprintf(f,
                 "  ],\n  \"failover\": {\n"
                 "    \"trials\": %d,\n"
                 "    \"detection_fuse_ms\": [100, 200],\n"
                 "    \"death_to_first_ack_ms\": "
                 "{\"p50\": %.1f, \"p99\": %.1f, \"max\": %.1f},\n"
                 "    \"all_first_checkins_acked\": %s\n  },\n",
                 trials, fo_p50, fo_p99, fo_max,
                 failover_acked ? "true" : "false");
    std::fprintf(f,
                 "  \"checks\": {\n"
                 "    \"followers_serve_0_7x_leader\": %s,\n"
                 "    \"projected_scaling_2_4x\": %s,\n"
                 "    \"p99_lag_under_1s\": %s,\n"
                 "    \"failover_median_under_1_5s\": %s\n  }\n}\n",
                 followers_match ? "true" : "false", scale_ok ? "true" : "false",
                 lag_ok ? "true" : "false", failover_ok ? "true" : "false");
    std::fclose(f);
    std::printf("(json written: %s)\n", json_out.c_str());
  }

  for (auto& n : nodes) {
    n->follower->shutdown();
    n->engine->shutdown();
  }
  leader_engine.shutdown();
  shipper.shutdown();
  return 0;
}
