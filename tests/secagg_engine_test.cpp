// Secure aggregation over the serving engine: assign and status requests
// whose answer is not ready are held by the applier and answered once it
// is (engine/applier.hpp, the park step). These tests pin the lifecycle
// of a held request: one frame per phase for a healthy cohort, deadline
// answers with no other traffic, connection accounting, the idle sweep,
// shutdown, the durability gate and the park cap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/protocol.hpp"
#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "opt/schedule.hpp"
#include "rng/distributions.hpp"
#include "secagg/cohort.hpp"
#include "secagg/mask.hpp"

using namespace crowdml;

namespace {

constexpr std::size_t kClasses = 3;
constexpr std::size_t kFeatures = 4;
constexpr std::size_t kDim = kClasses * kFeatures;

net::SecretKey fleet_key() {
  net::SecretKey key(32);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(0xC0 + i);
  return key;
}

core::ServerConfig server_config() {
  core::ServerConfig c;
  c.param_dim = kDim;
  c.num_classes = kClasses;
  return c;
}

/// A leader engine with a CohortManager attached; the manager runs on a
/// manual clock when asked to.
struct Rig {
  models::MulticlassLogisticRegression model{kClasses, kFeatures, 0.0};
  net::AuthRegistry registry{rng::Engine(60)};
  core::Server server{server_config(),
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::ConstantSchedule>(0.5), 100.0),
                      rng::Engine(61)};
  obs::MetricsRegistry metrics;
  std::atomic<std::int64_t> clock{0};
  secagg::CohortConfig cfg;
  std::unique_ptr<secagg::CohortManager> mgr;
  engine::EngineConfig ecfg;
  std::unique_ptr<engine::EpollCrowdServer> eng;

  Rig(std::size_t cohort, std::size_t min_survivors, bool manual_clock) {
    cfg.cohort_size = cohort;
    cfg.min_survivors = min_survivors;
    cfg.round_timeout_ms = 200;
    cfg.param_dim = kDim;
    cfg.num_classes = kClasses;
    cfg.metrics = &metrics;
    mgr = std::make_unique<secagg::CohortManager>(
        cfg, [this](const net::CheckinMessage& m) {
          return server.handle_checkin(m);
        });
    if (manual_clock) mgr->set_clock([this] { return clock.load(); });
    ecfg.metrics = &metrics;
    ecfg.secagg = mgr.get();
  }

  ~Rig() {
    if (eng) eng->shutdown();
  }

  void start() {
    eng = std::make_unique<engine::EpollCrowdServer>(server, registry, ecfg);
  }

  net::TcpConnection connect() {
    auto conn = net::TcpConnection::connect("127.0.0.1", eng->port(), 2000);
    if (!conn) throw std::runtime_error("connect failed");
    conn->set_deadline_ms(5000);
    return std::move(*conn);
  }

  double parked() const {
    for (const auto& g : metrics.snapshot().gauges)
      if (g.name == "crowdml_engine_secagg_parked") return g.value;
    return 0.0;
  }

  /// Poll `pred` for up to two seconds.
  template <typename Pred>
  bool wait_for(Pred pred) const {
    for (int i = 0; i < 400; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }
};

net::Bytes assign_frame(const net::DeviceCredentials& creds) {
  net::SecAggAssignMessage req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  return net::encode_frame(net::MessageType::kSecAggAssign, req.serialize());
}

net::Bytes status_frame(const net::DeviceCredentials& creds,
                        std::uint64_t round) {
  net::SecAggRevealMessage req;
  req.device_id = creds.device_id;
  req.round_id = round;
  req.auth_tag = creds.sign(req.body());
  return net::encode_frame(net::MessageType::kSecAggReveal, req.serialize());
}

/// A zero contribution masked against the assigned roster.
net::Bytes masked_frame(const net::DeviceCredentials& creds,
                        const net::SecAggAssignMessage& assign) {
  std::vector<std::uint64_t> words(kDim + 1 + kClasses, 0);
  secagg::mask_against_roster(words, fleet_key(), creds.device_id,
                              assign.roster, assign.round_id);
  net::SecAggMaskedMessage m;
  m.device_id = creds.device_id;
  m.round_id = assign.round_id;
  m.ns = 1;
  m.masked_g.assign(words.begin(), words.begin() + kDim);
  m.masked_ne = words[kDim];
  m.masked_ny.assign(words.begin() + kDim + 1, words.end());
  m.auth_tag = creds.sign(m.body());
  return net::encode_frame(net::MessageType::kSecAggMasked, m.serialize());
}

net::SecAggAssignMessage read_assign(net::TcpConnection& conn) {
  const auto reply = conn.recv_frame();
  if (!reply) throw std::runtime_error("no assign reply");
  const net::Frame f = net::decode_frame(*reply);
  if (f.type != net::MessageType::kSecAggAssign)
    throw std::runtime_error("not an assign reply");
  return net::SecAggAssignMessage::deserialize(f.payload);
}

net::SecAggRevealMessage read_status(net::TcpConnection& conn) {
  const auto reply = conn.recv_frame();
  if (!reply) throw std::runtime_error("no status reply");
  const net::Frame f = net::decode_frame(*reply);
  if (f.type != net::MessageType::kSecAggReveal)
    throw std::runtime_error("not a status reply");
  return net::SecAggRevealMessage::deserialize(f.payload);
}

net::AckMessage read_ack(net::TcpConnection& conn) {
  const auto reply = conn.recv_frame();
  if (!reply) throw std::runtime_error("no ack");
  const net::Frame f = net::decode_frame(*reply);
  if (f.type != net::MessageType::kAck) throw std::runtime_error("not an ack");
  return net::AckMessage::deserialize(f.payload);
}

}  // namespace

// A healthy cohort of four over TCP: each device sends exactly one
// assign and one status frame, never sleeps on a retry hint, and the
// round applies once.
TEST(SecAggEngine, CohortOverTcpSendsOneAssignAndOneStatusFrame) {
  constexpr int kDevices = 4;
  Rig rig(/*cohort=*/kDevices, /*min_survivors=*/2, /*manual_clock=*/false);
  rig.start();

  struct Tally {
    std::atomic<int> assigns{0}, statuses{0}, nonzero_sleeps{0};
  };
  std::vector<Tally> tallies(kDevices);
  std::vector<std::unique_ptr<core::Device>> devices;
  std::vector<std::unique_ptr<core::TcpDeviceSession>> sessions;
  std::vector<std::unique_ptr<core::SecAggDeviceClient>> clients;
  for (int i = 0; i < kDevices; ++i) {
    core::DeviceConfig dc;
    dc.minibatch_size = 1;
    devices.push_back(std::make_unique<core::Device>(dc, rig.model,
                                                     rng::Engine(300 + i)));
    devices.back()->set_credentials(rig.registry.enroll());
    sessions.push_back(std::make_unique<core::TcpDeviceSession>(
        "127.0.0.1", rig.eng->port(), 5000, 2000));
    Tally& t = tallies[i];
    core::TcpDeviceSession& session = *sessions.back();
    core::SecAggDeviceClient::Options o;
    o.fleet_key = fleet_key();
    o.min_survivors = 2;
    o.sleep_ms = [&t](std::uint32_t ms) {
      if (ms > 0) ++t.nonzero_sleeps;
    };
    clients.push_back(std::make_unique<core::SecAggDeviceClient>(
        *devices.back(),
        [&t, &session](const net::Bytes& req) {
          const auto type = static_cast<net::MessageType>(
              req.at(net::kFrameTypeOffset));
          if (type == net::MessageType::kSecAggAssign) ++t.assigns;
          if (type == net::MessageType::kSecAggReveal) ++t.statuses;
          return session.exchange(req);
        },
        o));
  }

  rng::Engine eng(9);
  std::vector<models::Sample> samples;
  for (int i = 0; i < kDevices; ++i) {
    linalg::Vector x(kFeatures);
    for (double& v : x) v = rng::normal(eng);
    samples.emplace_back(std::move(x), static_cast<double>(i % kClasses));
  }
  std::vector<std::optional<core::SecAggDeviceClient::CycleResult>> results(
      kDevices);
  std::vector<std::thread> threads;
  for (int i = 0; i < kDevices; ++i)
    threads.emplace_back(
        [&, i] { results[i] = clients[i]->offer_sample(samples[i]); });
  for (auto& t : threads) t.join();

  for (int i = 0; i < kDevices; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "device " << i;
    EXPECT_EQ(results[i]->outcome, secagg::RoundOutcome::kApplied);
    EXPECT_EQ(tallies[i].assigns.load(), 1) << "device " << i;
    EXPECT_EQ(tallies[i].statuses.load(), 1) << "device " << i;
    EXPECT_EQ(tallies[i].nonzero_sleeps.load(), 0) << "device " << i;
  }
  EXPECT_EQ(rig.mgr->rounds_completed(), 1);
  EXPECT_EQ(rig.server.version(), 1u);
  EXPECT_EQ(rig.parked(), 0.0);
}

// A lone device's single held assign is answered with the fallback
// once the forming timeout passes on the manager's clock — no other
// frame arrives to drive it.
TEST(SecAggEngine, LoneDeviceHearsFallbackAtDeadlineWithoutTraffic) {
  Rig rig(/*cohort=*/4, /*min_survivors=*/2, /*manual_clock=*/true);
  rig.start();
  const auto creds = rig.registry.enroll();
  net::TcpConnection conn = rig.connect();
  ASSERT_TRUE(conn.send_frame(assign_frame(creds)));
  ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 1.0; }));

  // Several idle passes on a frozen clock answer nothing.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(rig.parked(), 1.0);

  rig.clock += rig.cfg.round_timeout_ms;
  const auto reply = read_assign(conn);
  EXPECT_EQ(reply.status, net::kSecAggAssignFallback);
  EXPECT_EQ(rig.parked(), 0.0);
}

// A connection holding a parked request is still a connection: with
// a cap of two and two held assigns, a third connect is refused with the
// capacity nack.
TEST(SecAggEngine, ParkedConnectionsCountTowardMaxConnections) {
  Rig rig(/*cohort=*/4, /*min_survivors=*/2, /*manual_clock=*/true);
  rig.ecfg.max_connections = 2;
  rig.start();
  const auto a = rig.registry.enroll();
  const auto b = rig.registry.enroll();
  net::TcpConnection ca = rig.connect();
  net::TcpConnection cb = rig.connect();
  ASSERT_TRUE(ca.send_frame(assign_frame(a)));
  ASSERT_TRUE(cb.send_frame(assign_frame(b)));
  ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 2.0; }));

  net::TcpConnection third = rig.connect();
  const net::AckMessage nack = read_ack(third);
  EXPECT_FALSE(nack.ok);
  EXPECT_NE(nack.reason.find("server at capacity"), std::string::npos);
  EXPECT_TRUE(net::parse_retry_after(nack.reason).has_value());
  EXPECT_EQ(rig.eng->net_snapshot().refused_connections, 1);
  EXPECT_EQ(rig.parked(), 2.0);
}

// The idle sweep closes a connection whose request is held and the
// applier drops the held entry; the device is still a forming waiter, so
// a later seal includes it, and nothing is sent into the closed socket.
TEST(SecAggEngine, IdleSweepDropsParkedEntry) {
  Rig rig(/*cohort=*/2, /*min_survivors=*/2, /*manual_clock=*/true);
  rig.ecfg.idle_timeout_ms = 100;
  rig.start();
  const auto a = rig.registry.enroll();
  const auto b = rig.registry.enroll();
  {
    net::TcpConnection ca = rig.connect();
    ASSERT_TRUE(ca.send_frame(assign_frame(a)));
    ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 1.0; }));
    ASSERT_TRUE(rig.wait_for(
        [&] { return rig.eng->net_snapshot().idle_closed >= 1; }));
    ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 0.0; }));
  }
  EXPECT_EQ(rig.eng->connections(), 0u);

  net::TcpConnection cb = rig.connect();
  ASSERT_TRUE(cb.send_frame(assign_frame(b)));
  const auto sealed = read_assign(cb);
  EXPECT_EQ(sealed.status, net::kSecAggAssignAssigned);
  EXPECT_EQ(sealed.roster.size(), 2u);
  EXPECT_EQ(rig.mgr->rounds_sealed(), 1);
  EXPECT_GE(rig.eng->net_snapshot().idle_closed, 1);
}

// shutdown() answers every held request — with the not-ready reply
// and its retry hint — before the connections close.
TEST(SecAggEngine, ShutdownAnswersEveryParkedRequest) {
  Rig rig(/*cohort=*/4, /*min_survivors=*/2, /*manual_clock=*/true);
  rig.start();
  std::vector<net::DeviceCredentials> creds;
  std::vector<net::TcpConnection> conns;
  for (int i = 0; i < 3; ++i) {
    creds.push_back(rig.registry.enroll());
    conns.push_back(rig.connect());
    ASSERT_TRUE(conns.back().send_frame(assign_frame(creds.back())));
  }
  ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 3.0; }));

  rig.eng->shutdown();
  for (auto& conn : conns) {
    const auto reply = read_assign(conn);
    EXPECT_EQ(reply.status, net::kSecAggAssignPending);
    EXPECT_EQ(reply.retry_after_ms, rig.cfg.poll_retry_ms);
  }
}

// A held status request is the round's ack: when the group commit of
// the batch that completes the round fails, no status reply says
// "complete" — held or newly arrived — until a later commit succeeds.
TEST(SecAggEngine, CompleteWaitsForASuccessfulCommit) {
  Rig rig(/*cohort=*/2, /*min_survivors=*/2, /*manual_clock=*/true);
  std::atomic<bool> fail{false};
  std::atomic<int> commits{0};
  rig.ecfg.group_commit = [&] {
    ++commits;
    return !fail.load();
  };
  rig.start();
  const auto a = rig.registry.enroll();
  const auto b = rig.registry.enroll();
  net::TcpConnection ca = rig.connect();
  net::TcpConnection cb = rig.connect();
  ASSERT_TRUE(ca.send_frame(assign_frame(a)));
  ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 1.0; }));
  ASSERT_TRUE(cb.send_frame(assign_frame(b)));
  const auto assign_a = read_assign(ca);
  const auto assign_b = read_assign(cb);
  ASSERT_EQ(assign_a.status, net::kSecAggAssignAssigned);
  ASSERT_EQ(assign_b.status, net::kSecAggAssignAssigned);

  fail = true;
  ASSERT_TRUE(ca.send_frame(masked_frame(a, assign_a)));
  EXPECT_TRUE(read_ack(ca).ok);
  ASSERT_TRUE(ca.send_frame(status_frame(a, assign_a.round_id)));
  ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 1.0; }));
  // B's submission completes the round in a batch whose commit fails;
  // B's own status poll then finds the round complete, in another
  // failing batch.
  ASSERT_TRUE(cb.send_frame(masked_frame(b, assign_b)));
  EXPECT_TRUE(read_ack(cb).ok);
  ASSERT_TRUE(cb.send_frame(status_frame(b, assign_b.round_id)));
  ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 2.0; }));
  EXPECT_EQ(rig.mgr->rounds_completed(), 1);
  EXPECT_GE(rig.eng->commit_failures(), 2);

  // Idle passes keep retrying the commit; nothing leaves while it fails.
  const int before = commits.load();
  ASSERT_TRUE(rig.wait_for([&] { return commits.load() >= before + 2; }));
  EXPECT_EQ(rig.parked(), 2.0);

  fail = false;
  EXPECT_EQ(read_status(ca).status, net::kSecAggRoundComplete);
  EXPECT_EQ(read_status(cb).status, net::kSecAggRoundComplete);
  EXPECT_EQ(rig.parked(), 0.0);
}

// At most checkin_queue_max requests are held; past that cap the
// not-ready reply goes out at once, as an in-process poll would get it.
TEST(SecAggEngine, RequestsPastTheCapAreAnsweredAtOnce) {
  Rig rig(/*cohort=*/4, /*min_survivors=*/2, /*manual_clock=*/true);
  rig.ecfg.checkin_queue_max = 2;
  rig.start();
  std::vector<net::DeviceCredentials> creds;
  std::vector<net::TcpConnection> conns;
  for (int i = 0; i < 3; ++i) {
    creds.push_back(rig.registry.enroll());
    conns.push_back(rig.connect());
  }
  ASSERT_TRUE(conns[0].send_frame(assign_frame(creds[0])));
  ASSERT_TRUE(conns[1].send_frame(assign_frame(creds[1])));
  ASSERT_TRUE(rig.wait_for([&] { return rig.parked() == 2.0; }));

  ASSERT_TRUE(conns[2].send_frame(assign_frame(creds[2])));
  const auto reply = read_assign(conns[2]);
  EXPECT_EQ(reply.status, net::kSecAggAssignPending);
  EXPECT_EQ(reply.retry_after_ms, rig.cfg.poll_retry_ms);
  EXPECT_EQ(rig.parked(), 2.0);
}
