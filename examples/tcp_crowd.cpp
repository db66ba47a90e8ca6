// Crowd-ML over a real network stack: a TCP parameter server with
// HMAC-authenticated device sessions — the deployment path the paper
// prototypes with Android phones + an Apache-fronted server.
//
// Six device threads connect, stream their data shards through the
// Algorithm 1 cycle (checkout -> sanitized gradient -> checkin), and the
// server learns a 10-class model with per-sample differential privacy.
//
// Usage: tcp_crowd [--bind ADDR] [--port P] [--passes N]
//                  [--chaos] [--metrics-out FILE] [--trace-out FILE]
//   tcp_crowd                            # loopback, ephemeral port
//   tcp_crowd --bind 0.0.0.0 --port 9090 # serve the LAN
//   tcp_crowd --chaos --metrics-out m.prom --trace-out t.jsonl
//
// --chaos routes every device through a seeded net::FaultProxy (drops,
// truncation, corruption, delays, blackholes) and cross-checks the trace
// and counters against the proxy's injected-fault totals. The metrics
// file is Prometheus text format; the trace is one JSON object per line.
// Both carry only sanitized/aggregate or transport-level quantities
// (docs/OBSERVABILITY.md), so exporting them costs no privacy budget.
//
// Devices ride ReconnectingDeviceSession, so a dropped connection or a
// stalled server leg is retried with capped exponential backoff instead
// of killing the device (Remark 1).
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/monitor.hpp"
#include "core/tcp_runtime.hpp"
#include "data/mixture.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "net/fault_proxy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/schedule.hpp"
#include "tools/flags.hpp"

using namespace crowdml;

namespace {

/// Count trace lines whose event field equals `kind` (the sink writes the
/// field in a fixed position, so a substring match is exact).
long long count_events(const std::string& path, const std::string& kind) {
  std::ifstream in(path);
  const std::string needle = "\"event\":\"" + kind + "\"";
  long long n = 0;
  for (std::string line; std::getline(in, line);)
    if (line.find(needle) != std::string::npos) ++n;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  const std::string bind_address = flags.get("bind", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  const int passes = static_cast<int>(flags.get_int("passes", 4));
  const bool chaos_mode = flags.get_bool("chaos");
  const std::string metrics_path = flags.get("metrics-out", "");
  const std::string trace_path = flags.get("trace-out", "");

  // Data: a small MNIST-like problem sharded across the devices.
  rng::Engine data_eng(7);
  const data::Dataset ds = data::make_mnist_like(data_eng, 0.05);
  models::MulticlassLogisticRegression model(ds.num_classes, ds.feature_dim, 0.0);

  // One registry for the whole process: the server's transport counters,
  // the devices' retry counters, and the always-on hot-path timings all
  // land in the same Prometheus exposition.
  obs::MetricsRegistry& metrics = obs::default_registry();
  std::unique_ptr<obs::TraceSink> trace;
  if (!trace_path.empty())
    trace = std::make_unique<obs::TraceSink>(trace_path);

  core::ServerConfig scfg;
  scfg.param_dim = model.param_dim();
  scfg.num_classes = ds.num_classes;
  core::Server server(scfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));

  engine::EngineConfig ecfg;
  ecfg.bind_address = bind_address;
  ecfg.port = port;
  ecfg.max_connections = 64;
  ecfg.idle_timeout_ms = chaos_mode ? 2000 : 30000;
  ecfg.metrics = &metrics;
  ecfg.trace = trace.get();
  std::optional<engine::EpollCrowdServer> maybe_server;
  try {
    maybe_server.emplace(server, registry, ecfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcp_crowd: cannot listen on %s:%u (%s)\n",
                 ecfg.bind_address.c_str(), ecfg.port, e.what());
    return 1;
  }
  engine::EpollCrowdServer& tcp_server = *maybe_server;
  std::printf("server listening on %s:%u\n", ecfg.bind_address.c_str(),
              tcp_server.port());

  // Chaos mode: interpose the seeded fault proxy so every device leg can
  // be dropped, truncated, corrupted, delayed, or blackholed.
  std::optional<net::FaultProxy> proxy;
  std::uint16_t connect_port = tcp_server.port();
  if (chaos_mode) {
    net::FaultPolicy storm;
    storm.drop_conn_prob = 0.03;
    storm.truncate_prob = 0.01;
    storm.corrupt_prob = 0.03;
    storm.delay_prob = 0.25;
    storm.max_delay_ms = 3;
    storm.blackhole_prob = 0.06;
    proxy.emplace("127.0.0.1", tcp_server.port(), storm, rng::Engine(4242));
    connect_port = proxy->port();
    std::printf("chaos proxy interposed on 127.0.0.1:%u\n", connect_port);
  }

  constexpr std::size_t kDevices = 6;
  rng::Engine shard_eng(3);
  const auto shards = data::shard_across_devices(ds.train, kDevices, shard_eng);

  core::NetCounters transport(&metrics);
  std::atomic<long long> cycles{0};
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < kDevices; ++d) {
    threads.emplace_back([&, d] {
      core::DeviceConfig dc;
      dc.minibatch_size = 10;
      dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
      core::Device dev(dc, model, rng::Engine(100 + d));
      dev.set_credentials(registry.enroll());  // server-issued HMAC secret
      core::ReconnectPolicy policy;  // deadlines + capped backoff defaults
      if (chaos_mode) {
        policy.connect_timeout_ms = 2000;
        policy.io_deadline_ms = 500;  // bound every blackholed wait
        policy.max_attempts = 10;
        policy.backoff_base_ms = 2;
        policy.backoff_max_ms = 50;
      }
      core::ReconnectingDeviceSession session("127.0.0.1", connect_port,
                                              policy, rng::Engine(200 + d),
                                              &transport, trace.get(),
                                              dev.id());
      core::DeviceClient client(dev, session.as_exchange());
      for (int pass = 0; pass < passes; ++pass)
        for (const auto& s : shards[d])
          if (client.offer_sample(s)) ++cycles;
    });
  }
  for (auto& t : threads) t.join();

  const double err = model.error_rate(server.parameters(), ds.test);
  std::printf("\ndevices: %zu, checkin cycles over TCP: %lld\n", kDevices,
              cycles.load());
  std::printf("server iterations: %llu, rejected checkins: %lld\n",
              static_cast<unsigned long long>(server.version()),
              server.rejected_checkins());
  std::printf("server-side error estimate (Eq. 14, from noisy counts): %.4f\n",
              server.estimated_error());
  std::printf("true test error of the learned model: %.4f\n", err);

  // Transport health: device-side retry/reconnect counters merged with the
  // server's accept/refuse/idle-close counters would come from separate
  // hosts in a real deployment; here we print both.
  std::printf("\n%s", core::transport_report(transport.snapshot()).c_str());
  const auto srv = tcp_server.net_snapshot();
  std::printf("server: accepted=%lld refused=%lld idle-closed=%lld\n",
              srv.accepted_connections, srv.refused_connections,
              srv.idle_closed);

  if (proxy) proxy->shutdown();
  tcp_server.shutdown();

  if (!metrics_path.empty()) {
    obs::write_metrics_file(metrics, metrics_path);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (trace) {
    trace->flush();
    std::printf("trace written to %s (%lld events)\n", trace_path.c_str(),
                static_cast<long long>(trace->events_written()));
  }

  bool ok = err < 0.5;
  if (chaos_mode && proxy) {
    // Cross-check: the trace and counters must agree with each other and
    // with what the proxy says it injected.
    const auto faults = proxy->counts();
    const auto dev_net = transport.snapshot();
    std::printf("\nchaos cross-check:\n");
    std::printf("  proxy: connections=%lld killed=%lld corrupted=%lld "
                "blackholed=%lld\n",
                faults.connections, faults.killed_connections(),
                faults.corrupted, faults.blackholed);
    std::printf("  devices: reconnects=%lld retries=%lld timeouts=%lld "
                "abandoned=%lld\n",
                dev_net.reconnects, dev_net.retries, dev_net.timeouts,
                dev_net.checkins_abandoned);
    // Every killed link (minus at most one unused final drop per device)
    // forces a reconnect, an in-flight retry, or an abandoned checkin.
    const long long responses =
        dev_net.reconnects + dev_net.retries + dev_net.checkins_abandoned;
    const long long required =
        faults.killed_connections() - static_cast<long long>(kDevices);
    if (responses < required) {
      std::printf("  FAIL: %lld fault responses < %lld killed links\n",
                  responses, required);
      ok = false;
    }
    if (trace) {
      // The JSONL trace is the same story: reconnect/timeout event counts
      // must equal the counters incremented on the identical code paths.
      const long long traced_reconnects = count_events(trace_path, "reconnect");
      const long long traced_timeouts = count_events(trace_path, "timeout");
      std::printf("  trace: reconnect events=%lld timeout events=%lld\n",
                  traced_reconnects, traced_timeouts);
      if (traced_reconnects != dev_net.reconnects ||
          traced_timeouts != dev_net.timeouts) {
        std::printf("  FAIL: trace events do not match transport counters\n");
        ok = false;
      }
    }
    std::printf("  %s\n", ok ? "OK: trace, counters, and proxy agree"
                             : "cross-check failed");
  }
  return ok ? 0 : 1;
}
