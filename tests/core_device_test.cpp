// Tests for Algorithm 1 (Device Routines 1-3).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/device.hpp"
#include "models/logistic_regression.hpp"
#include "net/auth.hpp"
#include "rng/distributions.hpp"

using namespace crowdml;
using core::Device;
using core::DeviceConfig;
using models::Sample;

namespace {

Sample make_sample(rng::Engine& eng, std::size_t dim, std::size_t classes) {
  linalg::Vector x(dim);
  for (double& v : x) v = rng::normal(eng);
  linalg::l1_normalize(x);
  return Sample(std::move(x),
                static_cast<double>(rng::uniform_index(eng, classes)));
}

DeviceConfig basic_config(std::size_t b = 4) {
  DeviceConfig c;
  c.device_id = 1;
  c.minibatch_size = b;
  c.max_buffer = 16;
  return c;
}

}  // namespace

TEST(Device, BuffersUntilMinibatchFull) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  Device dev(basic_config(4), model, rng::Engine(1));
  rng::Engine eng(2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(dev.on_sample(make_sample(eng, 4, 3)));
    EXPECT_FALSE(dev.wants_checkout());
  }
  dev.on_sample(make_sample(eng, 4, 3));
  EXPECT_TRUE(dev.wants_checkout());
  EXPECT_EQ(dev.buffered(), 4u);
}

TEST(Device, RefusesAMinibatchItCouldNeverFill) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  DeviceConfig empty = basic_config(4);
  empty.minibatch_size = 0;
  EXPECT_THROW(Device(empty, model, rng::Engine(1)), std::invalid_argument);
  DeviceConfig small_buffer = basic_config(4);
  small_buffer.max_buffer = 3;
  EXPECT_THROW(Device(small_buffer, model, rng::Engine(1)),
               std::invalid_argument);
}

TEST(Device, MaxBufferDropsSamples) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  DeviceConfig cfg = basic_config(4);
  cfg.max_buffer = 6;
  Device dev(cfg, model, rng::Engine(1));
  rng::Engine eng(3);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(dev.on_sample(make_sample(eng, 4, 3)));
  EXPECT_FALSE(dev.on_sample(make_sample(eng, 4, 3)));
  EXPECT_EQ(dev.buffered(), 6u);
  EXPECT_EQ(dev.dropped_samples(), 1);
}

// Routine 1 is the device's input boundary: a sample with the wrong
// feature count or a label outside [0, C) is refused and counted, never
// buffered, so Routine 2 cannot index past its label counts.
TEST(Device, RefusesSamplesThatDoNotFitTheModel) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  Device dev(basic_config(4), model, rng::Engine(1));
  rng::Engine eng(5);
  const Sample good = make_sample(eng, 4, 3);
  const Sample refused[] = {
      make_sample(eng, 8, 3),        // too many features
      make_sample(eng, 2, 3),        // too few features
      Sample(good.x, 3.0),           // label == C
      Sample(good.x, -1.0),          // negative label
      Sample(good.x, 1.5),           // not a class index
      Sample(good.x, std::nan("")),  // no label at all
  };
  for (const Sample& s : refused) EXPECT_FALSE(dev.on_sample(s));
  EXPECT_EQ(dev.buffered(), 0u);
  EXPECT_EQ(dev.malformed_samples(), 6);
  EXPECT_EQ(dev.dropped_samples(), 0);

  // The device keeps working on the samples that fit.
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(dev.on_sample(make_sample(eng, 4, 3)));
  ASSERT_TRUE(dev.wants_checkout());
  dev.begin_checkout();
  const auto result =
      dev.compute_checkin(linalg::Vector(model.param_dim(), 0.0), 0);
  EXPECT_EQ(result.message.ny_hat.size(), 3u);
  long long labels = 0;
  for (std::int64_t n : result.message.ny_hat) labels += n;
  EXPECT_EQ(labels, 4);
}

TEST(Device, CheckoutLifecycle) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  Device dev(basic_config(1), model, rng::Engine(1));
  rng::Engine eng(4);
  dev.on_sample(make_sample(eng, 4, 3));
  EXPECT_TRUE(dev.wants_checkout());
  dev.begin_checkout();
  EXPECT_FALSE(dev.wants_checkout());
  EXPECT_TRUE(dev.checkout_in_flight());
  dev.on_checkout_failed();  // Remark 1
  EXPECT_TRUE(dev.wants_checkout());
}

TEST(Device, CheckinWithoutPrivacyMatchesManualComputation) {
  models::MulticlassLogisticRegression model(3, 4, 0.5);
  Device dev(basic_config(4), model, rng::Engine(1));
  rng::Engine eng(5);
  models::SampleSet batch;
  for (int i = 0; i < 4; ++i) {
    Sample s = make_sample(eng, 4, 3);
    batch.push_back(s);
    dev.on_sample(std::move(s));
  }
  linalg::Vector w(model.param_dim());
  for (double& v : w) v = rng::normal(eng);

  dev.begin_checkout();
  const core::CheckinResult res = dev.compute_checkin(w, 7);
  EXPECT_EQ(res.message.param_version, 7u);
  EXPECT_EQ(res.message.ns, 4);
  EXPECT_EQ(res.batch_size, 4u);
  EXPECT_EQ(dev.buffered(), 0u);
  EXPECT_FALSE(dev.checkout_in_flight());

  // g^ equals the exact averaged gradient + lambda*w (no noise budget).
  const linalg::Vector expected = model.averaged_gradient(w, batch);
  ASSERT_EQ(res.message.g_hat.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(res.message.g_hat[i], expected[i], 1e-12);

  // Counts are exact.
  long long ne = 0;
  std::vector<std::int64_t> ny(3, 0);
  for (const auto& s : batch) {
    if (model.predict_class(w, s.x) != s.label()) ++ne;
    ++ny[static_cast<std::size_t>(s.label())];
  }
  EXPECT_EQ(res.message.ne_hat, ne);
  EXPECT_EQ(res.message.ny_hat, ny);
  EXPECT_EQ(static_cast<long long>(res.true_errors), ne);
  EXPECT_EQ(res.misclassified.size(), 4u);
}

TEST(Device, PrivacyBudgetAddsGradientNoise) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  DeviceConfig cfg = basic_config(4);
  cfg.budget = privacy::PrivacyBudget::gradient_dominated(1.0);
  Device noisy(cfg, model, rng::Engine(1));
  Device clean(basic_config(4), model, rng::Engine(1));
  rng::Engine eng(6);
  models::SampleSet batch;
  for (int i = 0; i < 4; ++i) batch.push_back(make_sample(eng, 4, 3));
  for (const auto& s : batch) {
    noisy.on_sample(s);
    clean.on_sample(s);
  }
  const linalg::Vector w(model.param_dim(), 0.0);
  noisy.begin_checkout();
  clean.begin_checkout();
  const auto rn = noisy.compute_checkin(w, 0);
  const auto rc = clean.compute_checkin(w, 0);
  double diff = 0.0;
  for (std::size_t i = 0; i < rn.message.g_hat.size(); ++i)
    diff += std::abs(rn.message.g_hat[i] - rc.message.g_hat[i]);
  EXPECT_GT(diff, 1e-6);
}

TEST(Device, NoisyCountsAreSanitized) {
  // With a tiny eps_e the noisy error count differs from the true count
  // with overwhelming probability over a few checkins.
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  DeviceConfig cfg = basic_config(4);
  cfg.budget.eps_gradient = privacy::kNoPrivacy;
  cfg.budget.eps_error = 0.05;
  cfg.budget.eps_label = 0.05;
  Device dev(cfg, model, rng::Engine(1));
  rng::Engine eng(7);
  bool count_noised = false;
  for (int round = 0; round < 10 && !count_noised; ++round) {
    models::SampleSet batch;
    for (int i = 0; i < 4; ++i) {
      Sample s = make_sample(eng, 4, 3);
      batch.push_back(s);
      dev.on_sample(std::move(s));
    }
    const linalg::Vector w(model.param_dim(), 0.0);
    dev.begin_checkout();
    const auto res = dev.compute_checkin(w, 0);
    count_noised = res.message.ne_hat != static_cast<long long>(res.true_errors);
  }
  EXPECT_TRUE(count_noised);
}

TEST(Device, HoldoutExcludesSamplesFromGradient) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  DeviceConfig cfg = basic_config(8);
  cfg.holdout_fraction = 0.5;
  Device dev(cfg, model, rng::Engine(42));
  rng::Engine eng(8);
  models::SampleSet batch;
  for (int i = 0; i < 8; ++i) {
    Sample s = make_sample(eng, 4, 3);
    batch.push_back(s);
    dev.on_sample(std::move(s));
  }
  linalg::Vector w(model.param_dim());
  for (double& v : w) v = rng::normal(eng);
  dev.begin_checkout();
  const auto res = dev.compute_checkin(w, 0);
  // The full-batch averaged gradient differs from the holdout-filtered one
  // (with prob ~1 for random data).
  const linalg::Vector full = model.averaged_gradient(w, batch);
  double diff = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i)
    diff += std::abs(res.message.g_hat[i] - full[i]);
  EXPECT_GT(diff, 1e-9);
  EXPECT_TRUE(linalg::all_finite(res.message.g_hat));
}

TEST(Device, AccountantTracksCheckins) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  DeviceConfig cfg = basic_config(2);
  cfg.budget = privacy::PrivacyBudget::gradient_dominated(5.0);
  Device dev(cfg, model, rng::Engine(1));
  rng::Engine eng(9);
  const linalg::Vector w(model.param_dim(), 0.0);
  for (int round = 0; round < 3; ++round) {
    dev.on_sample(make_sample(eng, 4, 3));
    dev.on_sample(make_sample(eng, 4, 3));
    dev.begin_checkout();
    dev.compute_checkin(w, 0);
  }
  EXPECT_EQ(dev.accountant().checkins(), 3);
  EXPECT_EQ(dev.accountant().samples_released(), 6);
  EXPECT_EQ(dev.lifetime_samples(), 6);
}

TEST(Device, SignedCheckinVerifiesAgainstRegistry) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  net::AuthRegistry registry(rng::Engine(11));
  const net::DeviceCredentials creds = registry.enroll();

  Device dev(basic_config(1), model, rng::Engine(1));
  dev.set_credentials(creds);
  EXPECT_EQ(dev.id(), creds.device_id);

  rng::Engine eng(10);
  dev.on_sample(make_sample(eng, 4, 3));
  dev.begin_checkout();
  const auto res = dev.compute_checkin(linalg::Vector(model.param_dim(), 0.0), 0);
  EXPECT_TRUE(registry.verify(res.message.device_id, res.message.body(),
                              res.message.auth_tag));
  // Tampering with the payload invalidates the tag.
  net::CheckinMessage tampered = res.message;
  tampered.ns += 1;
  EXPECT_FALSE(registry.verify(tampered.device_id, tampered.body(),
                               tampered.auth_tag));
}

TEST(Device, UnsignedCheckinHasZeroTag) {
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  Device dev(basic_config(1), model, rng::Engine(1));
  rng::Engine eng(12);
  dev.on_sample(make_sample(eng, 4, 3));
  dev.begin_checkout();
  const auto res = dev.compute_checkin(linalg::Vector(model.param_dim(), 0.0), 0);
  EXPECT_EQ(res.message.auth_tag, net::Digest{});
}

TEST(Device, BatchLargerThanMinibatchIsConsumedWhole) {
  // Samples arriving while a checkout is in flight join the same batch
  // (Algorithm 1 computes over all ns buffered samples).
  models::MulticlassLogisticRegression model(3, 4, 0.0);
  Device dev(basic_config(2), model, rng::Engine(1));
  rng::Engine eng(13);
  dev.on_sample(make_sample(eng, 4, 3));
  dev.on_sample(make_sample(eng, 4, 3));
  dev.begin_checkout();
  dev.on_sample(make_sample(eng, 4, 3));  // arrives during flight
  const auto res = dev.compute_checkin(linalg::Vector(model.param_dim(), 0.0), 0);
  EXPECT_EQ(res.message.ns, 3);
  EXPECT_EQ(dev.buffered(), 0u);
}
