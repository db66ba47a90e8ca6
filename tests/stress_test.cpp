// Stress and randomized-property tests: many concurrent TCP clients of
// the serving engine, randomized message round-trips, and high-churn
// simulation runs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/crowd_simulation.hpp"
#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "opt/schedule.hpp"
#include "rng/distributions.hpp"

using namespace crowdml;

namespace {

net::CheckinMessage random_checkin(rng::Engine& eng, std::size_t dim,
                                   std::size_t classes) {
  net::CheckinMessage m;
  m.device_id = eng();
  m.param_version = eng();
  m.g_hat.resize(dim);
  for (double& v : m.g_hat) v = rng::normal(eng) * 100.0;
  m.ns = static_cast<std::int64_t>(rng::uniform_index(eng, 1000)) + 1;
  m.ne_hat = static_cast<std::int64_t>(rng::uniform_index(eng, 2000)) - 1000;
  m.ny_hat.resize(classes);
  for (auto& v : m.ny_hat)
    v = static_cast<std::int64_t>(rng::uniform_index(eng, 500)) - 100;
  for (auto& b : m.auth_tag) b = static_cast<std::uint8_t>(eng());
  return m;
}

}  // namespace

// Property: arbitrary checkin contents survive serialize->frame->parse.
class CheckinRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CheckinRoundTrip, RandomizedMessages) {
  rng::Engine eng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const std::size_t dim = 1 + rng::uniform_index(eng, 64);
    const std::size_t classes = 1 + rng::uniform_index(eng, 12);
    const net::CheckinMessage m = random_checkin(eng, dim, classes);
    const net::Bytes frame =
        net::encode_frame(net::MessageType::kCheckin, m.serialize());
    const net::Frame f = net::decode_frame(frame);
    const auto parsed = net::CheckinMessage::deserialize(f.payload);
    EXPECT_EQ(parsed.device_id, m.device_id);
    EXPECT_EQ(parsed.param_version, m.param_version);
    EXPECT_EQ(parsed.g_hat, m.g_hat);
    EXPECT_EQ(parsed.ns, m.ns);
    EXPECT_EQ(parsed.ne_hat, m.ne_hat);
    EXPECT_EQ(parsed.ny_hat, m.ny_hat);
    EXPECT_EQ(parsed.auth_tag, m.auth_tag);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckinRoundTrip, ::testing::Values(1, 2, 3, 4));

TEST(TcpStress, TwentyConcurrentClients) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  core::ServerConfig cfg;
  cfg.param_dim = model.param_dim();
  cfg.num_classes = 3;
  core::Server server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(0.1), 100.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  engine::EpollCrowdServer tcp(server, registry, engine::EngineConfig{});

  constexpr int kClients = 20;
  constexpr int kCyclesPerClient = 50;
  std::atomic<long long> completed{0};
  std::vector<std::thread> clients;
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      core::DeviceConfig dc;
      dc.minibatch_size = 1;
      core::Device dev(dc, model, rng::Engine(100 + cidx));
      dev.set_credentials(registry.enroll());
      core::TcpDeviceSession session("127.0.0.1", tcp.port());
      core::DeviceClient client(dev, session.as_exchange());
      rng::Engine eng(200 + cidx);
      for (int i = 0; i < kCyclesPerClient; ++i) {
        linalg::Vector x(4);
        for (double& v : x) v = rng::normal(eng);
        linalg::l1_normalize(x);
        models::Sample s(std::move(x),
                         static_cast<double>(rng::uniform_index(eng, 3)));
        if (client.offer_sample(std::move(s))) ++completed;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), kClients * kCyclesPerClient);
  EXPECT_EQ(server.version(),
            static_cast<std::uint64_t>(kClients * kCyclesPerClient));
  EXPECT_EQ(server.devices_seen(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(server.rejected_checkins(), 0);
  tcp.shutdown();
}

TEST(TcpStress, InterleavedGarbageDoesNotDisturbHonestClients) {
  models::MulticlassLogisticRegression model(2, 3, 0.0);
  core::ServerConfig cfg;
  cfg.param_dim = model.param_dim();
  cfg.num_classes = 2;
  core::Server server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::ConstantSchedule>(0.01), 100.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  engine::EpollCrowdServer tcp(server, registry, engine::EngineConfig{});

  std::atomic<bool> stop{false};
  std::thread vandal([&] {
    rng::Engine eng(3);
    while (!stop.load()) {
      auto conn = net::TcpConnection::connect("127.0.0.1", tcp.port());
      if (!conn) continue;
      net::Bytes junk(1 + eng() % 64);
      for (auto& b : junk) b = static_cast<std::uint8_t>(eng());
      conn->send_frame(net::encode_frame(net::MessageType::kCheckin, junk));
      conn->recv_frame();
    }
  });

  core::DeviceConfig dc;
  dc.minibatch_size = 1;
  core::Device dev(dc, model, rng::Engine(10));
  dev.set_credentials(registry.enroll());
  core::TcpDeviceSession session("127.0.0.1", tcp.port());
  core::DeviceClient client(dev, session.as_exchange());
  rng::Engine eng(11);
  long long ok = 0;
  for (int i = 0; i < 100; ++i) {
    linalg::Vector x(3);
    for (double& v : x) v = rng::normal(eng);
    linalg::l1_normalize(x);
    if (client.offer_sample(models::Sample(
            std::move(x), static_cast<double>(rng::uniform_index(eng, 2)))))
      ++ok;
  }
  stop.store(true);
  vandal.join();
  EXPECT_EQ(ok, 100);
  EXPECT_EQ(server.version(), 100u);
  tcp.shutdown();
}

TEST(SimStress, ExtremeChurnAndLossStillTerminates) {
  models::MulticlassLogisticRegression model(2, 3, 0.0);
  models::SampleSet shard;
  rng::Engine eng(5);
  for (int i = 0; i < 50; ++i) {
    linalg::Vector x(3);
    for (double& v : x) v = rng::normal(eng);
    linalg::l1_normalize(x);
    shard.emplace_back(std::move(x),
                       static_cast<double>(rng::uniform_index(eng, 2)));
  }
  core::CrowdSimConfig cfg;
  cfg.num_devices = 30;
  cfg.max_total_samples = 3000;
  cfg.eval_points = 2;
  cfg.loss_probability = 0.5;                 // half of all legs dropped
  cfg.churn = sim::ChurnModel(5.0, 20.0);     // mostly offline
  cfg.delay = std::make_shared<sim::UniformDelay>(3.0);
  cfg.learning_rate_c = 10.0;
  cfg.seed = 6;
  core::CrowdSimulation sim(model,  cfg);
  std::vector<models::SampleSet> shards(30, shard);
  const auto res = sim.run(core::make_cycling_source(std::move(shards)), {});
  EXPECT_EQ(res.samples_generated, 3000);
  EXPECT_GT(res.checkouts_failed, 0);
  EXPECT_GT(res.server_updates, 0u);  // learning still progressed
}
