// Tests for Algorithm 2 (Server Routines 1-2): updates, validation,
// statistics (Eq. 14), stopping criteria, and thread safety.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/server.hpp"
#include "opt/schedule.hpp"

using namespace crowdml;
using core::Server;
using core::ServerConfig;

namespace {

std::unique_ptr<opt::Updater> sgd(double c = 1.0, double radius = 100.0) {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::ConstantSchedule>(c), radius);
}

ServerConfig basic_config(std::size_t dim = 3, std::size_t classes = 2) {
  ServerConfig c;
  c.param_dim = dim;
  c.num_classes = classes;
  return c;
}

net::CheckinMessage checkin(std::uint64_t device, linalg::Vector g,
                            std::int64_t ns = 1, std::int64_t ne = 0,
                            std::vector<std::int64_t> ny = {1, 0}) {
  net::CheckinMessage m;
  m.device_id = device;
  m.g_hat = std::move(g);
  m.ns = ns;
  m.ne_hat = ne;
  m.ny_hat = std::move(ny);
  return m;
}

}  // namespace

TEST(Server, ZeroInitByDefault) {
  Server s(basic_config(), sgd(), rng::Engine(1));
  const linalg::Vector w = s.parameters();
  for (double v : w) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Server, RandomInitWithinScale) {
  ServerConfig cfg = basic_config(100);
  cfg.init_scale = 0.5;
  Server s(cfg, sgd(), rng::Engine(2));
  const linalg::Vector w = s.parameters();
  double max_abs = 0.0;
  for (double v : w) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_GT(max_abs, 0.0);
  EXPECT_LE(max_abs, 0.5);
}

TEST(Server, CheckoutReturnsCurrentParamsAndVersion) {
  Server s(basic_config(), sgd(), rng::Engine(3));
  const auto p = s.handle_checkout(1);
  EXPECT_TRUE(p.accepted);
  EXPECT_EQ(p.version, 0u);
  EXPECT_EQ(p.w.size(), 3u);
}

TEST(Server, CheckinAppliesSgdUpdate) {
  Server s(basic_config(), sgd(0.5), rng::Engine(4));
  const auto ack = s.handle_checkin(checkin(1, {2.0, 0.0, -2.0}));
  EXPECT_TRUE(ack.ok);
  const linalg::Vector w = s.parameters();
  EXPECT_DOUBLE_EQ(w[0], -1.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  EXPECT_EQ(s.version(), 1u);
}

TEST(Server, RejectsDimensionMismatch) {
  Server s(basic_config(), sgd(), rng::Engine(5));
  const auto ack = s.handle_checkin(checkin(1, {1.0, 2.0}));
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(s.version(), 0u);
  EXPECT_EQ(s.rejected_checkins(), 1);
}

TEST(Server, RejectsNonFiniteGradient) {
  Server s(basic_config(), sgd(), rng::Engine(6));
  EXPECT_FALSE(s.handle_checkin(checkin(1, {1.0, std::nan(""), 0.0})).ok);
  EXPECT_FALSE(s.handle_checkin(checkin(1, {1.0, INFINITY, 0.0})).ok);
  EXPECT_EQ(s.rejected_checkins(), 2);
}

TEST(Server, RejectsNonPositiveSampleCount) {
  Server s(basic_config(), sgd(), rng::Engine(7));
  EXPECT_FALSE(s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 0)).ok);
  EXPECT_FALSE(s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, -5)).ok);
}

TEST(Server, RejectsWrongLabelCountDimension) {
  Server s(basic_config(), sgd(), rng::Engine(8));
  EXPECT_FALSE(
      s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 1, 0, {1, 0, 0})).ok);
}

// Routine 2 refuses a checkin whose vectors do not have the model's
// shape before touching any state: the ack names the mismatch, and the
// version, parameters and statistics stay as they were.
TEST(Server, ShapeRefusalsLeaveStateUntouched) {
  Server s(basic_config(3, 2), sgd(0.5), rng::Engine(9));
  ASSERT_TRUE(s.handle_checkin(checkin(1, {2.0, 0.0, -2.0})).ok);
  const linalg::Vector before = s.parameters();
  const struct {
    net::CheckinMessage msg;
    const char* reason;
  } cases[] = {
      {checkin(2, {1.0, 1.0}), "gradient dimension mismatch"},
      {checkin(2, {1.0, 1.0, 1.0, 1.0}), "gradient dimension mismatch"},
      {checkin(2, {}), "gradient dimension mismatch"},
      {checkin(2, {1.0, 1.0, 1.0}, 1, 0, {1}),
       "label count dimension mismatch"},
      {checkin(2, {1.0, 1.0, 1.0}, 1, 0, {1, 0, 0}),
       "label count dimension mismatch"},
  };
  long long rejected = 0;
  for (const auto& tc : cases) {
    const net::AckMessage ack = s.handle_checkin(tc.msg);
    EXPECT_FALSE(ack.ok);
    EXPECT_EQ(ack.reason, tc.reason);
    EXPECT_EQ(s.rejected_checkins(), ++rejected);
    EXPECT_EQ(s.version(), 1u);
    EXPECT_EQ(s.parameters(), before);
    EXPECT_EQ(s.device_stats(2).checkins, 0);
  }
  EXPECT_EQ(s.total_samples(), 1);
}

TEST(Server, AccumulatesPerDeviceStats) {
  Server s(basic_config(), sgd(), rng::Engine(9));
  s.handle_checkin(checkin(7, {0.0, 0.0, 0.0}, 10, 2, {6, 4}));
  s.handle_checkin(checkin(7, {0.0, 0.0, 0.0}, 10, 1, {5, 5}));
  s.handle_checkin(checkin(8, {0.0, 0.0, 0.0}, 5, 0, {0, 5}));
  const auto st7 = s.device_stats(7);
  EXPECT_EQ(st7.samples, 20);
  EXPECT_EQ(st7.errors_hat, 3);
  EXPECT_EQ(st7.checkins, 2);
  EXPECT_EQ(st7.label_counts_hat[0], 11);
  EXPECT_EQ(s.devices_seen(), 2u);
  EXPECT_EQ(s.total_samples(), 25);
}

TEST(Server, UnknownDeviceStatsEmpty) {
  Server s(basic_config(), sgd(), rng::Engine(10));
  EXPECT_EQ(s.device_stats(99).samples, 0);
}

TEST(Server, EstimatedErrorEq14) {
  Server s(basic_config(), sgd(), rng::Engine(11));
  s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 10, 3, {5, 5}));
  s.handle_checkin(checkin(2, {0.0, 0.0, 0.0}, 10, 1, {5, 5}));
  EXPECT_NEAR(s.estimated_error(), 0.2, 1e-12);
}

TEST(Server, EstimatedErrorClampedToUnitInterval) {
  Server s(basic_config(), sgd(), rng::Engine(12));
  // Noisy counts can exceed ns or go negative; the estimate must stay sane.
  s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 2, 50, {1, 1}));
  EXPECT_DOUBLE_EQ(s.estimated_error(), 1.0);
  Server s2(basic_config(), sgd(), rng::Engine(13));
  s2.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 2, -50, {1, 1}));
  EXPECT_DOUBLE_EQ(s2.estimated_error(), 0.0);
}

TEST(Server, EstimatedPriorNormalizedAndNonNegative) {
  Server s(basic_config(), sgd(), rng::Engine(14));
  s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 10, 0, {8, -2}));
  const linalg::Vector prior = s.estimated_prior();
  EXPECT_NEAR(prior[0], 1.0, 1e-12);  // negative count clamped to 0
  EXPECT_NEAR(prior[1], 0.0, 1e-12);
  EXPECT_NEAR(linalg::sum(prior), 1.0, 1e-12);
}

TEST(Server, EmptyPriorIsZeroVector) {
  Server s(basic_config(), sgd(), rng::Engine(15));
  const linalg::Vector prior = s.estimated_prior();
  EXPECT_DOUBLE_EQ(linalg::sum(prior), 0.0);
}

TEST(Server, StopsAtMaxIterations) {
  ServerConfig cfg = basic_config();
  cfg.max_iterations = 2;
  Server s(cfg, sgd(), rng::Engine(16));
  EXPECT_TRUE(s.handle_checkin(checkin(1, {0.0, 0.0, 0.0})).ok);
  EXPECT_FALSE(s.stopped());
  EXPECT_TRUE(s.handle_checkin(checkin(1, {0.0, 0.0, 0.0})).ok);
  EXPECT_TRUE(s.stopped());
  EXPECT_FALSE(s.handle_checkin(checkin(1, {0.0, 0.0, 0.0})).ok);
  EXPECT_FALSE(s.handle_checkout(1).accepted);
  EXPECT_EQ(s.version(), 2u);
}

TEST(Server, StopsWhenEstimatedErrorBelowRho) {
  ServerConfig cfg = basic_config();
  cfg.target_error = 0.1;
  cfg.min_samples_for_stopping = 50;
  Server s(cfg, sgd(), rng::Engine(17));
  // Below min samples: no stop even with zero error.
  s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 30, 0, {15, 15}));
  EXPECT_FALSE(s.stopped());
  // Crossing the sample threshold with low error: stop.
  s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 30, 1, {15, 15}));
  EXPECT_TRUE(s.stopped());
}

TEST(Server, HighErrorDoesNotTriggerRhoStop) {
  ServerConfig cfg = basic_config();
  cfg.target_error = 0.01;
  cfg.min_samples_for_stopping = 10;
  Server s(cfg, sgd(), rng::Engine(18));
  s.handle_checkin(checkin(1, {0.0, 0.0, 0.0}, 100, 50, {50, 50}));
  EXPECT_FALSE(s.stopped());
}

TEST(Server, ProjectionBoundsParameters) {
  Server s(basic_config(1, 2), sgd(10.0, 5.0), rng::Engine(19));
  net::CheckinMessage m = checkin(1, {100.0});
  m.ny_hat = {1, 0};
  s.handle_checkin(m);
  EXPECT_LE(std::abs(s.parameters()[0]), 5.0 + 1e-12);
}

TEST(Server, ConcurrentCheckinsAllApplied) {
  ServerConfig cfg = basic_config(4, 2);
  Server s(cfg, sgd(0.001), rng::Engine(20));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto m = checkin(static_cast<std::uint64_t>(t + 1),
                         {0.1, -0.1, 0.0, 0.0}, 1, 0, {1, 0});
        s.handle_checkin(m);
        s.handle_checkout(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.version(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.total_samples(), kThreads * kPerThread);
  EXPECT_EQ(s.devices_seen(), static_cast<std::size_t>(kThreads));
}
