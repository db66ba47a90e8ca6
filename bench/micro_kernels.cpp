// Micro-benchmarks (google-benchmark) backing the Section IV-B scalability
// analysis: per-sample device compute, sanitization cost, wire costs
// (codec, CRC-32, SHA-256/HMAC), server update cost, and simulator event
// throughput. BENCH_kernels.json at the repo root holds the byte-kernel
// rows, from one command line:
//   ./build/bench/micro_kernels
//       --benchmark_filter='Crc32|Sha256|Hmac|CheckinSerializeParse|ServerHandleCheckin'
//       --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "common.hpp"

#include "core/server.hpp"
#include "linalg/pca.hpp"
#include "models/logistic_regression.hpp"
#include "net/checksum.hpp"
#include "net/messages.hpp"
#include "net/sha256.hpp"
#include "net/sha256_kernels.hpp"
#include "opt/schedule.hpp"
#include "privacy/mechanisms.hpp"
#include "rng/distributions.hpp"
#include "sensing/fft.hpp"
#include "sim/simulator.hpp"

using namespace crowdml;

namespace {

constexpr std::size_t kClasses = 10;
constexpr std::size_t kDim = 50;  // MNIST-like post-PCA dimension

models::Sample make_sample(rng::Engine& eng) {
  linalg::Vector x(kDim);
  for (double& v : x) v = rng::normal(eng);
  linalg::l1_normalize(x);
  return models::Sample(std::move(x),
                        static_cast<double>(rng::uniform_index(eng, kClasses)));
}

linalg::Vector make_params(rng::Engine& eng, std::size_t n) {
  linalg::Vector w(n);
  for (double& v : w) v = rng::normal(eng);
  return w;
}

}  // namespace

// Device-side per-sample gradient (the "computation of a gradient per
// sample" of Section IV-B1).
static void BM_GradientPerSample(benchmark::State& state) {
  models::MulticlassLogisticRegression model(kClasses, kDim, 0.0);
  rng::Engine eng(1);
  const auto s = make_sample(eng);
  const auto w = make_params(eng, model.param_dim());
  linalg::Vector g(model.param_dim(), 0.0);
  for (auto _ : state) {
    g.assign(g.size(), 0.0);
    model.add_loss_gradient(w, s, g);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_GradientPerSample);

static void BM_PredictPerSample(benchmark::State& state) {
  models::MulticlassLogisticRegression model(kClasses, kDim, 0.0);
  rng::Engine eng(2);
  const auto s = make_sample(eng);
  const auto w = make_params(eng, model.param_dim());
  for (auto _ : state) benchmark::DoNotOptimize(model.predict_class(w, s.x));
}
BENCHMARK(BM_PredictPerSample);

// Laplace sanitization of one averaged gradient (per minibatch).
static void BM_SanitizeGradient(benchmark::State& state) {
  rng::Engine eng(3);
  const linalg::Vector g = make_params(eng, kClasses * kDim);
  for (auto _ : state)
    benchmark::DoNotOptimize(privacy::sanitize_vector(eng, g, 0.2, 10.0));
}
BENCHMARK(BM_SanitizeGradient);

static void BM_DiscreteLaplaceSample(benchmark::State& state) {
  rng::Engine eng(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(rng::discrete_laplace(eng, 0.05));
}
BENCHMARK(BM_DiscreteLaplaceSample);

// Wire: serialize + frame + parse a full checkin message (C*D gradient).
static void BM_CheckinSerializeParse(benchmark::State& state) {
  rng::Engine eng(5);
  net::CheckinMessage m;
  m.device_id = 7;
  m.g_hat = make_params(eng, kClasses * kDim);
  m.ns = 20;
  m.ny_hat.assign(kClasses, 2);
  for (auto _ : state) {
    const auto frame = net::encode_frame(net::MessageType::kCheckin, m.serialize());
    const auto parsed =
        net::CheckinMessage::deserialize(net::decode_frame(frame).payload);
    benchmark::DoNotOptimize(parsed.ns);
  }
}
BENCHMARK(BM_CheckinSerializeParse);

// Auth: HMAC-SHA256 over a checkin body.
static void BM_HmacCheckinBody(benchmark::State& state) {
  rng::Engine eng(6);
  net::CheckinMessage m;
  m.g_hat = make_params(eng, kClasses * kDim);
  m.ny_hat.assign(kClasses, 2);
  const net::Bytes body = m.body();
  const std::vector<std::uint8_t> key(32, 0x5c);
  for (auto _ : state)
    benchmark::DoNotOptimize(net::hmac_sha256(key, body));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body.size()));
}
BENCHMARK(BM_HmacCheckinBody);

static void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(net::sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

// Checkin-sized inputs: a 500-dim checkin frame is 4169 bytes, and every
// checkin pays one HMAC over its body, one CRC over the frame and one
// CRC over its WAL record.
static void BM_Sha256_4KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(4096, 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(net::sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

static void BM_Crc32_4KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 131u);
  for (auto _ : state)
    benchmark::DoNotOptimize(net::crc32(data.data(), data.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Crc32_4KiB);

// Server-side cost of one checkin (Algorithm 2 update + stats).
static void BM_ServerHandleCheckin(benchmark::State& state) {
  core::ServerConfig cfg;
  cfg.param_dim = kClasses * kDim;
  cfg.num_classes = kClasses;
  core::Server server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(1.0), 500.0),
                      rng::Engine(1));
  rng::Engine eng(7);
  net::CheckinMessage m;
  m.device_id = 3;
  m.g_hat = make_params(eng, cfg.param_dim);
  m.ns = 20;
  m.ny_hat.assign(kClasses, 2);
  for (auto _ : state) benchmark::DoNotOptimize(server.handle_checkin(m));
}
BENCHMARK(BM_ServerHandleCheckin);

// Simulator event throughput.
static void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    long long count = 0;
    std::function<void()> tick = [&] {
      if (++count < 1000) s.schedule_after(1.0, tick);
    };
    s.schedule_at(0.0, tick);
    s.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEvents);

// Sensing: 64-point FFT feature extraction (one 3.2 s window).
static void BM_Fft64Window(benchmark::State& state) {
  rng::Engine eng(8);
  std::vector<double> window(64);
  for (double& v : window) v = 9.81 + rng::normal(eng);
  for (auto _ : state)
    benchmark::DoNotOptimize(sensing::magnitude_spectrum(window));
}
BENCHMARK(BM_Fft64Window);

// Preprocessing: PCA projection of one raw sample (200 -> 50).
static void BM_PcaTransform(benchmark::State& state) {
  rng::Engine eng(9);
  linalg::Matrix samples(300, 200);
  for (std::size_t r = 0; r < samples.rows(); ++r)
    for (std::size_t c = 0; c < samples.cols(); ++c)
      samples(r, c) = rng::normal(eng);
  linalg::Pca pca;
  pca.fit(samples, 50);
  const linalg::Vector x = make_params(eng, 200);
  for (auto _ : state) benchmark::DoNotOptimize(pca.transform(x));
}
BENCHMARK(BM_PcaTransform);

// BENCHMARK_MAIN plus provenance in the JSON context block: the host
// (CPU model, CPUs this process may use), this build's type, and the
// SHA-256 kernel the process dispatched to, since the Sha256/Hmac rows
// depend on it.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("cpu_model", bench::host_cpu_model());
  benchmark::AddCustomContext("crowdml_build_type", CROWDML_BUILD_TYPE);
  benchmark::AddCustomContext("nproc", std::to_string(bench::host_nproc()));
  benchmark::AddCustomContext(
      "sha256_kernel",
      net::detail::sha256_blocks() == &net::detail::sha256_blocks_scalar ? "scalar"
                                                                         : "sha-ni");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
