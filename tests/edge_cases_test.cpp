// Edge-case sweep across modules: boundary sizes, degenerate inputs, and
// documented corner behaviors.
#include <gtest/gtest.h>

#include "core/device.hpp"
#include "data/mixture.hpp"
#include "linalg/eigen.hpp"
#include "linalg/pca.hpp"
#include "metrics/curves.hpp"
#include "models/logistic_regression.hpp"
#include "net/codec.hpp"
#include "rng/distributions.hpp"
#include "sim/simulator.hpp"

using namespace crowdml;

TEST(EdgeCases, EigenOneByOne) {
  linalg::Matrix m(1, 1);
  m(0, 0) = 4.2;
  const auto e = linalg::eigen_symmetric(m);
  EXPECT_DOUBLE_EQ(e.values[0], 4.2);
  EXPECT_DOUBLE_EQ(e.vectors(0, 0), 1.0);
}

TEST(EdgeCases, EigenZeroMatrix) {
  const auto e = linalg::eigen_symmetric(linalg::Matrix(3, 3, 0.0));
  for (double v : e.values) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EdgeCases, PcaSingleSample) {
  // Covariance of one sample is zero: components exist, transform maps the
  // sample to the origin.
  linalg::Matrix samples(1, 3);
  samples.set_row(0, {1.0, 2.0, 3.0});
  linalg::Pca pca;
  pca.fit(samples, 2);
  const auto z = pca.transform(linalg::Vector{1.0, 2.0, 3.0});
  EXPECT_NEAR(z[0], 0.0, 1e-12);
  EXPECT_NEAR(z[1], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(pca.explained_variance_ratio(), 0.0);
}

TEST(EdgeCases, PcaFullDimensionKeepsAllVariance) {
  rng::Engine eng(1);
  linalg::Matrix samples(40, 5);
  for (std::size_t r = 0; r < 40; ++r)
    for (std::size_t c = 0; c < 5; ++c) samples(r, c) = rng::normal(eng);
  linalg::Pca pca;
  pca.fit(samples, 5);
  EXPECT_NEAR(pca.explained_variance_ratio(), 1.0, 1e-9);
}

TEST(EdgeCases, CodecEmptyComposites) {
  net::Writer w;
  w.put_vector({});
  w.put_string("");
  w.put_bytes({});
  w.put_i64_vector({});
  net::Reader r(w.bytes());
  EXPECT_TRUE(r.get_vector().empty());
  EXPECT_TRUE(r.get_string().empty());
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_TRUE(r.get_i64_vector().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(EdgeCases, SimulatorZeroDelayCascadeAtSameTime) {
  sim::Simulator s;
  int order = 0, first = -1, second = -1;
  s.schedule_at(1.0, [&] {
    first = order++;
    s.schedule_after(0.0, [&] { second = order++; });
  });
  s.schedule_at(1.0, [&] { order++; });
  s.run();
  // The zero-delay follow-up runs after the already-queued same-time event
  // (FIFO by insertion sequence).
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 2);
}

TEST(EdgeCases, MinibatchSizeOneChecksOutEverySample) {
  models::MulticlassLogisticRegression model(2, 3, 0.0);
  core::DeviceConfig cfg;
  cfg.minibatch_size = 1;
  core::Device dev(cfg, model, rng::Engine(1));
  dev.on_sample(models::Sample({0.3, 0.3, 0.3}, 1.0));
  EXPECT_TRUE(dev.wants_checkout());
  dev.begin_checkout();
  const auto res = dev.compute_checkin(linalg::Vector(6, 0.0), 0);
  EXPECT_EQ(res.message.ns, 1);
}

TEST(EdgeCases, CurveTailMeanSinglePoint) {
  metrics::LearningCurve c;
  c.record(0, 0.5);
  EXPECT_DOUBLE_EQ(c.tail_mean(1), 0.5);
  EXPECT_DOUBLE_EQ(c.tail_mean(100), 0.5);
}

TEST(EdgeCases, MixtureMinimumSizes) {
  rng::Engine eng(2);
  data::MixtureSpec spec;
  spec.num_classes = 2;
  spec.raw_dim = 4;
  spec.latent_dim = 1;
  spec.pca_dim = 1;
  spec.train_size = 4;
  spec.test_size = 1;
  const auto ds = data::generate_mixture(spec, eng);
  EXPECT_EQ(ds.train.size(), 4u);
  EXPECT_EQ(ds.test.size(), 1u);
  EXPECT_EQ(ds.train[0].x.size(), 1u);
}

TEST(EdgeCases, UniformIndexLargeN) {
  rng::Engine eng(3);
  const std::uint64_t n = 1ull << 40;
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng::uniform_index(eng, n), n);
}

TEST(EdgeCases, LaplaceExtremeTails) {
  // The inverse-CDF sampler must stay finite even for u near +/- 0.5.
  rng::Engine eng(4);
  for (int i = 0; i < 200000; ++i)
    ASSERT_TRUE(std::isfinite(rng::laplace(eng, 1.0)));
}
