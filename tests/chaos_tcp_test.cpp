// Chaos capstone: a full multi-device crowd learning over real TCP with a
// seeded fault-injection proxy between every device and the server —
// connection drops, mid-frame truncation, byte corruption, delays, and
// blackholed directions. The run must complete, the model must still
// learn (Remark 1: lost legs are retried or abandoned, never fatal), and
// no checkin may ever be applied twice (a replay would double-spend the
// device's privacy budget).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "core/tcp_runtime.hpp"
#include "data/mixture.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "net/fault_proxy.hpp"
#include "obs/trace.hpp"
#include "opt/schedule.hpp"

using namespace crowdml;

namespace {

long long count_events(const std::string& jsonl, const std::string& kind) {
  const std::string needle = "\"event\":\"" + kind + "\"";
  long long n = 0;
  for (std::size_t pos = jsonl.find(needle); pos != std::string::npos;
       pos = jsonl.find(needle, pos + needle.size()))
    ++n;
  return n;
}

}  // namespace

TEST(ChaosTcp, CrowdLearnsThroughFaultyNetwork) {
  rng::Engine data_eng(77);
  data::MixtureSpec spec;
  spec.num_classes = 3;
  spec.raw_dim = 30;
  spec.latent_dim = 12;
  spec.pca_dim = 8;
  spec.separation = 3.5;
  spec.train_size = 900;
  spec.test_size = 300;
  const data::Dataset ds = data::generate_mixture(spec, data_eng);

  models::MulticlassLogisticRegression model(3, 8, 0.0);
  core::ServerConfig scfg;
  scfg.param_dim = model.param_dim();
  scfg.num_classes = 3;
  core::Server server(scfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(30.0), 500.0),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));

  obs::MetricsRegistry server_metrics;
  engine::EngineConfig ecfg;
  ecfg.idle_timeout_ms = 2000;  // reap connections the proxy half-killed
  ecfg.metrics = &server_metrics;
  engine::EpollCrowdServer tcp_server(server, registry, ecfg);

  // An aggressive but seeded storm between the devices and the server.
  net::FaultPolicy chaos;
  chaos.drop_conn_prob = 0.03;   // per relayed chunk
  chaos.truncate_prob = 0.01;
  chaos.corrupt_prob = 0.03;
  chaos.delay_prob = 0.25;
  chaos.max_delay_ms = 3;
  chaos.blackhole_prob = 0.06;   // stalled peers: deadlines must save us
  net::FaultProxy proxy("127.0.0.1", tcp_server.port(), chaos,
                        rng::Engine(4242));

  constexpr std::size_t kDevices = 6;
  rng::Engine shard_eng(3);
  const auto shards = data::shard_across_devices(ds.train, kDevices, shard_eng);

  const double initial_error = model.error_rate(server.parameters(), ds.test);

  core::ReconnectPolicy policy;
  policy.connect_timeout_ms = 2000;
  policy.io_deadline_ms = 500;  // bound every blackholed wait
  policy.max_attempts = 10;
  policy.backoff_base_ms = 2;
  policy.backoff_max_ms = 50;

  // Device-side trace: the same code paths that bump the counters also
  // emit JSONL events, so the two must agree exactly at the end.
  std::ostringstream trace_out;
  obs::TraceSink trace(trace_out);

  core::NetCounters device_counters;
  std::vector<std::unique_ptr<core::ReconnectingDeviceSession>> sessions;
  std::vector<std::unique_ptr<core::Device>> devices;
  std::vector<std::unique_ptr<core::DeviceClient>> clients;
  for (std::size_t d = 0; d < kDevices; ++d) {
    core::DeviceConfig dc;
    dc.device_id = 0;  // assigned by enroll below
    dc.minibatch_size = 5;
    dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
    devices.push_back(
        std::make_unique<core::Device>(dc, model, rng::Engine(100 + d)));
    devices.back()->set_credentials(registry.enroll());
    sessions.push_back(std::make_unique<core::ReconnectingDeviceSession>(
        "127.0.0.1", proxy.port(), policy, rng::Engine(500 + d),
        &device_counters, &trace, devices.back()->id()));
    clients.push_back(std::make_unique<core::DeviceClient>(
        *devices.back(), sessions.back()->as_exchange()));
  }

  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < kDevices; ++d) {
    threads.emplace_back([&, d] {
      for (int pass = 0; pass < 3; ++pass)
        for (const auto& s : shards[d]) clients[d]->offer_sample(s);
    });
  }
  for (auto& t : threads) t.join();

  const auto faults = proxy.counts();
  const auto dev_net = device_counters.snapshot();
  proxy.shutdown();
  tcp_server.shutdown();

  // The storm actually happened: a meaningful fraction of connections
  // were killed outright, and corruption was injected.
  ASSERT_GE(faults.connections, static_cast<long long>(kDevices));
  EXPECT_GE(faults.killed_connections(),
            (faults.connections + 4) / 5);  // >= 20% of connections
  EXPECT_GE(faults.corrupted, 1);
  EXPECT_GE(faults.blackholed, 1);

  // The crowd still learned through it.
  long long cycles = 0, failures = 0;
  for (const auto& c : clients) {
    cycles += c->cycles_completed();
    failures += c->cycles_failed();
  }
  EXPECT_GT(cycles, 100);
  EXPECT_GT(failures, 0);  // chaos was not a no-op for the protocol layer
  EXPECT_GT(server.version(), 100u);
  const double final_error = model.error_rate(server.parameters(), ds.test);
  EXPECT_LT(final_error, 0.35);
  EXPECT_LT(final_error, initial_error);

  // No checkin is ever applied twice. Every server-side sample traces to
  // a minibatch consumed exactly once on a device, and every applied
  // checkin to a checkin frame that hit the wire at most once.
  long long device_samples = 0;
  for (const auto& d : devices) device_samples += d->lifetime_samples();
  EXPECT_LE(server.total_samples(), device_samples);
  long long checkin_frames_sent = 0;
  for (std::size_t d = 0; d < kDevices; ++d) {
    checkin_frames_sent += sessions[d]->checkin_frames_sent();
    const auto st = server.device_stats(devices[d]->id());
    EXPECT_LE(st.checkins, sessions[d]->checkin_frames_sent())
        << "device " << devices[d]->id()
        << " had more checkins applied than frames sent";
  }
  EXPECT_LE(static_cast<long long>(server.version()), checkin_frames_sent);

  // Transport counters are live and consistent with the injected faults:
  // every killed link (minus at most one unused final drop per device)
  // forces either a reconnect or an in-flight retry/abandon.
  EXPECT_GT(dev_net.reconnects, 0);
  EXPECT_GT(dev_net.retries, 0);
  EXPECT_GT(dev_net.timeouts, 0);  // blackholed directions hit deadlines
  EXPECT_GE(dev_net.reconnects + dev_net.retries + dev_net.checkins_abandoned,
            faults.killed_connections() - static_cast<long long>(kDevices));

  // And they surface in the portal snapshot next to the learning stats.
  const std::string report =
      core::portal_report(server, core::MonitorOptions{}, dev_net);
  EXPECT_NE(report.find("transport health"), std::string::npos);
  EXPECT_NE(report.find("reconnects:"), std::string::npos);

  const auto server_net = tcp_server.net_snapshot();
  EXPECT_GE(server_net.accepted_connections, faults.connections -
                                                 faults.upstream_failures -
                                                 faults.killed_connections());

  // The JSONL trace tells the same story as the counters: each reconnect/
  // timeout/retry/abandon increments its counter and emits its event on
  // the identical code path, so the counts match exactly.
  const std::string jsonl = trace_out.str();
  EXPECT_EQ(count_events(jsonl, "reconnect"), dev_net.reconnects);
  EXPECT_EQ(count_events(jsonl, "timeout"), dev_net.timeouts);
  EXPECT_EQ(count_events(jsonl, "retry"), dev_net.retries);
  EXPECT_EQ(count_events(jsonl, "checkin_abandoned"),
            dev_net.checkins_abandoned);
}
