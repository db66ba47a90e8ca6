// The three workloads. Each builds its stack (timed as set-up), drives
// it for a warm-up and then the measured window, checks the program's
// outputs, and fills the report: end-to-end metrics always, per-layer
// metrics when traced.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <thread>

#include "core/protocol.hpp"
#include "harness.hpp"
#include "net/tcp.hpp"
#include "rng/distributions.hpp"

namespace perfbench {
namespace {

// device_cycle: the paper's cycle, open loop, below capacity.
constexpr double kCycleRatePerS = 25.0;   // offered cycles/s, whole fleet
constexpr std::size_t kCycleConns = 2;
constexpr std::size_t kCycleFollowers = 2;
constexpr double kThinkSigma = 0.5;       // lognormal think-time shape
constexpr double kLagP99BoundMs = 50.0;   // no growing backlog
constexpr double kTestErrorBound = 0.8;   // chance is 0.9

// checkin_flood: closed loop, fixed window per connection.
constexpr std::size_t kFloodConns = 2;
constexpr std::size_t kFloodWindow = 64;  // in flight per connection
constexpr std::size_t kFloodFrames = 256; // distinct pre-signed checkins
                                          // per connection

// secagg_rounds: closed loop of cohort-mode devices.
constexpr std::size_t kSecaggThreads = 4;
constexpr std::size_t kCohort = 4;
constexpr std::size_t kMinSurvivors = 2;
// A seeded think time before each cycle spreads the cohort's arrivals by
// far more than scheduler jitter, so how rounds fill does not depend on
// how the host happens to wake four threads that all start together.
constexpr double kSecaggThinkMaxMs = 100.0;  // uniform in [0, 100) ms
constexpr std::size_t kSecaggThinkDraws = 4096;

constexpr double kWarmupS = 1.0;

std::int64_t ns_of(double s) { return static_cast<std::int64_t>(s * 1e9); }

net::TcpConnection connect_to(std::uint16_t port) {
  auto conn = net::TcpConnection::connect("127.0.0.1", port, 2000);
  if (!conn) throw std::runtime_error("cannot connect to the engine");
  conn->set_deadline_ms(10'000);
  return std::move(*conn);
}

bool ack_ok(const std::optional<net::Bytes>& reply) {
  if (!reply) return false;
  try {
    const net::Frame f = net::decode_frame(*reply);
    return f.type == net::MessageType::kAck &&
           net::AckMessage::deserialize(f.payload).ok;
  } catch (const net::CodecError&) {
    return false;
  }
}

// ---- metric emission: the same names, in the same order, everywhere ----

struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> cycle_ms;
  std::vector<double> ack_ms;
  long long acks_in_window = 0;  ///< ok acks completed inside the window
  double seconds = 0.0;  ///< the window as measured
  double cpu_ms = 0.0;
};

void emit_end_to_end(Report& report, const EndToEnd& e) {
  const Quantiles setup = exact_quantiles(e.setup_s);
  const Quantiles cycle = exact_quantiles(e.cycle_ms);
  const Quantiles ack = exact_quantiles(e.ack_ms);
  const double acks = static_cast<double>(std::max<long long>(e.acks_in_window, 1));
  report.metric("setup_s", setup.p50, "s");
  report.metric("cycle_p50_ms", cycle.p50, "ms");
  report.metric("cycle_p99_ms", cycle.p99, "ms");
  report.metric("ack_p50_ms", ack.p50, "ms");
  report.metric("ack_p99_ms", ack.p99, "ms");
  report.metric("acked_per_s", static_cast<double>(e.acks_in_window) / e.seconds,
                "1/s");
  const double attempted =
      static_cast<double>(std::max<long long>(report.attempted, 1));
  report.metric("ok_ratio",
                static_cast<double>(report.attempted - report.failed) / attempted,
                "ratio");
  report.metric("cpu_ms_per_ack", e.cpu_ms / acks, "ms");
  report.info("error_ratio", static_cast<double>(report.failed) / attempted);
  report.quantiles("setup_s", setup);
  report.quantiles("cycle_ms", cycle);
  report.quantiles("ack_ms", ack);
  report.info("acks_in_window", static_cast<double>(e.acks_in_window));
}

/// Every per-layer metric; a layer a workload bypasses reads 0.
struct Layers {
  double device_compute_us = 0, device_gradient_us = 0, device_sanitize_us = 0,
         device_masked_compute_us = 0;
  double net_encode_us = 0, net_params_decode_us = 0, net_checkout_rtt_us = 0,
         net_decode_us = 0, net_checkin_bytes = 0, net_params_bytes = 0;
  double engine_checkin_rtt_us = 0, engine_handle_us = 0, engine_batch_mean = 0,
         engine_queue_depth_mean = 0, engine_queue_depth_max = 0,
         engine_shed_ratio = 0;
  double store_commit_us = 0, store_fsync_us = 0, store_fsyncs_per_ack = 0,
         store_wal_bytes_per_ack = 0;
  double replica_quorum_wait_us = 0, replica_ship_us = 0,
         replica_follower_apply_us = 0;
  double secagg_assign_polls = 0, secagg_status_polls = 0, secagg_sleep_ms = 0,
         secagg_exchange_us = 0, secagg_rounds_completed = 0,
         secagg_rounds_aborted = 0;
  double gen_lag_p99_ms = 0;
};

void emit_layers(Report& r, const Layers& l) {
  r.metric("device.compute_us", l.device_compute_us, "us");
  r.metric("device.gradient_us", l.device_gradient_us, "us");
  r.metric("device.sanitize_us", l.device_sanitize_us, "us");
  r.metric("device.masked_compute_us", l.device_masked_compute_us, "us");
  r.metric("net.encode_us", l.net_encode_us, "us");
  r.metric("net.params_decode_us", l.net_params_decode_us, "us");
  r.metric("net.checkout_rtt_us", l.net_checkout_rtt_us, "us");
  r.metric("net.decode_us", l.net_decode_us, "us");
  r.metric("net.checkin_bytes", l.net_checkin_bytes, "bytes");
  r.metric("net.params_bytes", l.net_params_bytes, "bytes");
  r.metric("engine.checkin_rtt_us", l.engine_checkin_rtt_us, "us");
  r.metric("engine.handle_us", l.engine_handle_us, "us");
  r.metric("engine.batch_mean", l.engine_batch_mean, "count");
  r.metric("engine.queue_depth_mean", l.engine_queue_depth_mean, "count");
  r.metric("engine.queue_depth_max", l.engine_queue_depth_max, "count");
  r.metric("engine.shed_ratio", l.engine_shed_ratio, "ratio");
  r.metric("store.commit_us", l.store_commit_us, "us");
  r.metric("store.fsync_us", l.store_fsync_us, "us");
  r.metric("store.fsyncs_per_ack", l.store_fsyncs_per_ack, "ratio");
  r.metric("store.wal_bytes_per_ack", l.store_wal_bytes_per_ack, "bytes");
  r.metric("replica.quorum_wait_us", l.replica_quorum_wait_us, "us");
  r.metric("replica.ship_us", l.replica_ship_us, "us");
  r.metric("replica.follower_apply_us", l.replica_follower_apply_us, "us");
  r.metric("secagg.assign_polls", l.secagg_assign_polls, "count");
  r.metric("secagg.status_polls", l.secagg_status_polls, "count");
  r.metric("secagg.sleep_ms", l.secagg_sleep_ms, "ms");
  r.metric("secagg.exchange_us", l.secagg_exchange_us, "us");
  r.metric("secagg.rounds_completed", l.secagg_rounds_completed, "count");
  r.metric("secagg.rounds_aborted", l.secagg_rounds_aborted, "count");
  r.metric("gen.lag_p99_ms", l.gen_lag_p99_ms, "ms");
}

/// The measured window [ws, we). The load threads drive the stack while
/// measure() sleeps through the warm-up and the window, taking the process
/// CPU time at its edges and, when traced, the registry readings and a
/// queue-depth sample stream.
struct Window {
  Reading leader0, leader1, follower0, follower1, process0, process1;
  double depth_mean = 0.0, depth_max = 0.0;

  void measure(Stack& s, Time ws, Time we, bool trace, EndToEnd& e2e) {
    std::optional<DepthSampler> sampler;
    std::this_thread::sleep_until(ws);
    const Time t0 = Clock::now();
    const double cpu0 = process_cpu_ms();
    if (trace) {
      read(s, leader0, follower0, process0);
      sampler.emplace(&s.engine());
    }
    std::this_thread::sleep_until(we);
    e2e.cpu_ms = process_cpu_ms() - cpu0;
    e2e.seconds = ms_between(t0, Clock::now()) / 1e3;
    if (trace) {
      read(s, leader1, follower1, process1);
      sampler->stop();
      depth_mean = sampler->mean();
      depth_max = sampler->max();
    }
  }
  static void read(Stack& s, Reading& leader, Reading& follower,
                   Reading& process) {
    leader = read_registry(s.leader_registry());
    follower = read_registry(s.follower_registry());
    process = read_registry(obs::default_registry());
  }
  double process_us(const char* name) const {
    return hist_delta(process0, process1, name).mean() * 1e6;
  }
  double leader_us(const char* name) const {
    return hist_delta(leader0, leader1, name).mean() * 1e6;
  }
};

/// Layers read from exported instruments, common to every workload.
void fill_from_registries(Layers& l, const Window& w, long long acks) {
  const double a = static_cast<double>(std::max<long long>(acks, 1));
  l.device_gradient_us = w.process_us("crowdml_device_gradient_seconds");
  l.device_sanitize_us = w.process_us("crowdml_device_sanitize_seconds");
  l.net_decode_us = w.process_us("crowdml_codec_decode_seconds");
  l.engine_handle_us = w.leader_us("crowdml_server_handle_seconds");
  l.engine_batch_mean =
      hist_delta(w.leader0, w.leader1, "crowdml_engine_batch_size").mean();
  const long long shed =
      counter_delta(w.leader0, w.leader1, "crowdml_engine_checkins_shed_total");
  const long long enq = counter_delta(w.leader0, w.leader1,
                                      "crowdml_engine_checkins_enqueued_total");
  l.engine_shed_ratio =
      static_cast<double>(shed) / static_cast<double>(std::max<long long>(shed + enq, 1));
  const HistDelta fsync =
      hist_delta(w.leader0, w.leader1, "crowdml_wal_fsync_seconds");
  l.store_fsync_us = fsync.mean() * 1e6;
  l.store_fsyncs_per_ack = static_cast<double>(fsync.count) / a;
  l.store_wal_bytes_per_ack =
      static_cast<double>(
          counter_delta(w.leader0, w.leader1, "crowdml_wal_bytes_total")) / a;
  l.replica_ship_us = w.leader_us("crowdml_repl_ship_seconds");
  l.replica_follower_apply_us =
      hist_delta(w.follower0, w.follower1, "crowdml_repl_apply_seconds").mean() *
      1e6;
  l.engine_queue_depth_mean = w.depth_mean;
  l.engine_queue_depth_max = w.depth_max;
  l.secagg_rounds_completed = static_cast<double>(counter_delta(
      w.leader0, w.leader1, "crowdml_secagg_rounds_completed_total"));
  l.secagg_rounds_aborted = static_cast<double>(counter_delta(
      w.leader0, w.leader1, "crowdml_secagg_rounds_aborted_total"));
}

/// Spans that started inside [from_ns, to_ns).
std::vector<Span> window_spans(const Tracer& tracer, std::int64_t from_ns,
                               std::int64_t to_ns) {
  std::vector<Span> out;
  for (const Span& s : tracer.all())
    if (s.start_ns >= from_ns && s.start_ns < to_ns) out.push_back(s);
  return out;
}

void write_spans(Report& report, const Tracer& tracer, const RunConfig& cfg) {
  const std::string path = cfg.dir + "/spans.jsonl";
  report.check("spans_written", tracer.write_jsonl(path), path);
  report.info("spans_file", path);
}

/// Same seed => same inputs, another seed => other inputs, for both the
/// fleet (checked on a small fleet to stay cheap) and the workload plan.
void check_seed_discipline(Report& report, std::uint64_t seed,
                           std::uint64_t fleet_digest,
                           std::uint64_t (*plan_digest)(std::uint64_t)) {
  const std::uint64_t a = make_fleet(seed, 0.01, 50).digest;
  const std::uint64_t b = make_fleet(seed, 0.01, 50).digest;
  const std::uint64_t c = make_fleet(seed + 1, 0.01, 50).digest;
  const std::uint64_t p = plan_digest(seed), q = plan_digest(seed),
                      r = plan_digest(seed + 1);
  report.check("seed_discipline", a == b && a != c && p == q && p != r,
               "fleet and plan digests repeat for one seed and differ for "
               "the next");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fleet_digest));
  report.info("fleet_digest", buf);
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(p));
  report.info("plan_digest", buf);
}

// ---- device_cycle -------------------------------------------------------

struct Due {
  std::int64_t ns;
  std::uint32_t device;
  std::uint16_t cycle;
  std::uint16_t conn;
};

/// Every device's cycle due times over [0, horizon): lognormal think times
/// with mean M / rate, so the fleet offers `kCycleRatePerS` cycles per
/// second. First arrivals are stratified (device k of a seeded order is
/// first due in [k, k+1) / rate) rather than uniform, so the count in the
/// window, and with it acked_per_s, does not carry Poisson noise; and
/// device k uses connection k mod kCycleConns, so consecutive first
/// arrivals never queue behind each other on one connection.
std::vector<Due> make_schedule(std::uint64_t seed, double horizon_s) {
  rng::Engine eng(seed * 0x9E3779B97F4A7C15ULL + 0x5C4E);
  const double mean_think = static_cast<double>(kDevices) / kCycleRatePerS;
  const double mu = std::log(mean_think) - 0.5 * kThinkSigma * kThinkSigma;
  std::vector<std::uint32_t> order(kDevices);
  for (std::uint32_t d = 0; d < kDevices; ++d) order[d] = d;
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng::uniform_index(eng, i + 1)]);
  std::vector<Due> out;
  for (std::uint32_t k = 0; k < kDevices; ++k) {
    const std::uint32_t d = order[k];
    double t = (k + rng::uniform(eng, 0.0, 1.0)) / kCycleRatePerS;
    const auto conn = static_cast<std::uint16_t>(k % kCycleConns);
    for (std::uint16_t c = 0; t < horizon_s; ++c) {
      out.push_back({ns_of(t), d, c, conn});
      t += std::exp(mu + kThinkSigma * rng::normal(eng));
    }
  }
  std::sort(out.begin(), out.end(), [](const Due& a, const Due& b) {
    return a.ns != b.ns ? a.ns < b.ns : a.device < b.device;
  });
  return out;
}

std::uint64_t schedule_digest(std::uint64_t seed) {
  const auto s = make_schedule(seed, 2.0);
  return fnv1a(s.data(), s.size() * sizeof(Due));
}

struct CycleRec {
  std::int64_t due_ns = 0;
  std::uint32_t device = 0;
  bool ok = false;
  double cycle_ms = 0, ack_ms = 0, lag_ms = 0;
  Time ack_at{};
  std::size_t params_bytes = 0, checkin_bytes = 0;
};

void cycle_worker(std::uint16_t port, const std::vector<Due>& events,
                  std::vector<std::unique_ptr<FleetDevice>>& devices,
                  Time origin, std::int64_t horizon_ns, Tracer& tracer,
                  std::vector<CycleRec>& out) {
  net::TcpConnection conn = connect_to(port);
  Tracer::Lane* lane = tracer.enabled() ? tracer.lane() : nullptr;
  for (const Due& ev : events) {
    if (ev.ns >= horizon_ns) break;
    FleetDevice& fd = *devices[ev.device];
    fd.feed();  // samples collected while the device thinks
    const Time due = origin + std::chrono::nanoseconds(ev.ns);
    std::this_thread::sleep_until(due);

    CycleRec r;
    r.due_ns = ev.ns;
    r.device = ev.device;
    const Time t_start = Clock::now();
    fd.device.begin_checkout();
    std::optional<net::Bytes> params_frame;
    if (conn.send_frame(fd.checkout_frame)) params_frame = conn.recv_frame();
    const Time t_co = Clock::now();
    std::optional<net::ParamsMessage> params;
    if (params_frame) {
      try {
        const net::Frame f = net::decode_frame(*params_frame);
        if (f.type == net::MessageType::kParams)
          params = net::ParamsMessage::deserialize(f.payload);
      } catch (const net::CodecError&) {
      }
    }
    const Time t_dec = Clock::now();
    if (!params || !params->accepted) {
      fd.device.on_checkout_failed();
      out.push_back(r);
      if (!params_frame) conn = connect_to(port);
      continue;
    }
    const core::CheckinResult res =
        fd.device.compute_checkin(params->w, params->version);
    const Time t_cmp = Clock::now();
    const net::Bytes frame =
        net::encode_frame(net::MessageType::kCheckin, res.message.serialize());
    const Time t_enc = Clock::now();
    std::optional<net::Bytes> ack;
    if (conn.send_frame(frame)) ack = conn.recv_frame();
    const Time t_ack = Clock::now();

    r.ok = ack_ok(ack);
    r.cycle_ms = ms_between(due, t_ack);
    r.ack_ms = ms_between(t_enc, t_ack);
    r.lag_ms = ms_between(due, t_start);
    r.ack_at = t_ack;
    r.params_bytes = params_frame->size();
    r.checkin_bytes = frame.size();
    out.push_back(r);
    if (lane) {
      const std::uint64_t id = tracer.next_id();
      lane->add("gen.lag", due, t_start, id, ev.device, ev.cycle);
      lane->add("net.checkout_rtt", t_start, t_co, id, ev.device, ev.cycle);
      lane->add("net.params_decode", t_co, t_dec, id, ev.device, ev.cycle);
      lane->add("device.compute", t_dec, t_cmp, id, ev.device, ev.cycle);
      lane->add("net.encode", t_cmp, t_enc, id, ev.device, ev.cycle);
      lane->add("engine.checkin_rtt", t_enc, t_ack, id, ev.device, ev.cycle);
      lane->add("cycle", due, t_ack, 0, ev.device, ev.cycle, id);
    }
    if (!ack) conn = connect_to(port);
  }
}

/// The six per-cycle stages are contiguous, so per cycle they must add up
/// to the cycle span, and the cycle span must match the latency sample.
void check_reconciliation(Report& report, const std::vector<Span>& spans,
                          std::int64_t from_ns, std::int64_t to_ns,
                          const std::vector<double>& cycle_ms) {
  std::map<std::uint64_t, std::pair<std::int64_t, int>> children;  // sum, n
  for (const Span& s : spans)
    if (s.parent != 0) {
      auto& c = children[s.parent];
      c.first += s.end_ns - s.start_ns;
      ++c.second;
    }
  std::vector<double> span_ms;
  double worst_us = 0.0;
  bool complete = true;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "cycle") != 0 || s.start_ns < from_ns ||
        s.start_ns >= to_ns)
      continue;
    const auto it = children.find(s.id);
    if (it == children.end() || it->second.second != 6) {
      complete = false;
      continue;
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    worst_us = std::max(worst_us,
                        std::abs(static_cast<double>(dur - it->second.first)) / 1e3);
    span_ms.push_back(static_cast<double>(dur) / 1e6);
  }
  // The cycle spans of the window and the latency samples of the window
  // are the same cycles; their sorted durations agree to clock rounding.
  std::vector<double> samples = cycle_ms;
  std::sort(samples.begin(), samples.end());
  std::sort(span_ms.begin(), span_ms.end());
  double worst_sample_us = samples.size() == span_ms.size() ? 0.0 : 1e9;
  for (std::size_t i = 0; i < samples.size() && i < span_ms.size(); ++i)
    worst_sample_us =
        std::max(worst_sample_us, std::abs(samples[i] - span_ms[i]) * 1e3);
  report.check("stage_reconciliation",
               complete && worst_us <= 1.0 && worst_sample_us <= 1.0,
               std::to_string(span_ms.size()) +
                   " cycles; worst |cycle - sum(stages)| " +
                   std::to_string(worst_us) + " us; worst |span - sample| " +
                   std::to_string(worst_sample_us) + " us");
  report.info("reconciliation_worst_us", worst_us);
}

}  // namespace

void run_device_cycle(const RunConfig& cfg, Report& report) {
  Tracer tracer(cfg.trace, Clock::now());
  const Fleet fleet = make_fleet(cfg.seed, kDataScale, kDevices);
  check_seed_discipline(report, cfg.seed, fleet.digest, schedule_digest);
  const double horizon_s = kWarmupS + cfg.seconds;
  const std::vector<Due> schedule = make_schedule(cfg.seed, horizon_s);
  report.info("offered_rate_per_s", kCycleRatePerS);
  report.info("connections", static_cast<double>(kCycleConns));
  report.info("followers", static_cast<double>(kCycleFollowers));
  report.info("warmup_s", kWarmupS);
  report.info("lag_p99_bound_ms", kLagP99BoundMs);
  report.info("test_error_bound", kTestErrorBound);

  EndToEnd e2e;
  StackOptions so;
  so.seed = cfg.seed;
  so.followers = kCycleFollowers;
  auto devices = make_devices(cfg.seed, fleet, fleet_credentials(cfg.seed));
  const std::string history = cfg.dir + "/history";
  const std::uint64_t base = write_history(history, cfg.seed, devices);
  auto stack = build_stack(cfg.dir, history, so, tracer, &e2e.setup_s);

  std::vector<std::vector<Due>> per_conn(kCycleConns);
  for (const Due& d : schedule) per_conn[d.conn].push_back(d);
  std::vector<std::vector<CycleRec>> recs(kCycleConns);
  for (std::size_t c = 0; c < kCycleConns; ++c)
    recs[c].reserve(per_conn[c].size());

  const Time origin = Clock::now() + std::chrono::milliseconds(50);
  const Time ws = origin + std::chrono::nanoseconds(ns_of(kWarmupS));
  const Time we = origin + std::chrono::nanoseconds(ns_of(horizon_s));
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(kCycleConns);
  for (std::size_t c = 0; c < kCycleConns; ++c)
    workers.emplace_back([&, c] {
      try {
        cycle_worker(stack->port(), per_conn[c], devices, origin,
                     ns_of(horizon_s), tracer, recs[c]);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });

  Window w;
  w.measure(*stack, ws, we, cfg.trace, e2e);
  for (auto& t : workers) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  long long ok_total = 0;
  std::vector<double> lag_ms;
  double params_bytes = 0, checkin_bytes = 0;
  for (const auto& v : recs)
    for (const CycleRec& r : v) {
      ok_total += r.ok;
      if (r.ok && r.ack_at >= ws && r.ack_at < we) ++e2e.acks_in_window;
      if (r.due_ns < ns_of(kWarmupS)) continue;
      ++report.attempted;
      if (!r.ok) {
        ++report.failed;
        continue;
      }
      e2e.cycle_ms.push_back(r.cycle_ms);
      e2e.ack_ms.push_back(r.ack_ms);
      lag_ms.push_back(r.lag_ms);
      params_bytes += static_cast<double>(r.params_bytes);
      checkin_bytes += static_cast<double>(r.checkin_bytes);
    }
  emit_end_to_end(report, e2e);
  const Quantiles lag = exact_quantiles(lag_ms);
  report.quantiles("gen.lag_ms", lag);
  report.check("gen_lag_p99_under_bound", lag.p99 < kLagP99BoundMs,
               "p99 lag " + std::to_string(lag.p99) + " ms, bound " +
                   std::to_string(kLagP99BoundMs) + " ms");

  if (cfg.trace) {
    const auto spans = window_spans(tracer, tracer.offset_ns(ws),
                                    tracer.offset_ns(we));
    check_reconciliation(report, tracer.all(), tracer.offset_ns(ws),
                         tracer.offset_ns(we), e2e.cycle_ms);
    Layers l;
    fill_from_registries(l, w, e2e.acks_in_window);
    const double n = static_cast<double>(std::max<std::size_t>(e2e.cycle_ms.size(), 1));
    l.device_compute_us = mean_span_us(spans, "device.compute");
    l.net_encode_us = mean_span_us(spans, "net.encode");
    l.net_params_decode_us = mean_span_us(spans, "net.params_decode");
    l.net_checkout_rtt_us = mean_span_us(spans, "net.checkout_rtt");
    l.net_checkin_bytes = checkin_bytes / n;
    l.net_params_bytes = params_bytes / n;
    l.engine_checkin_rtt_us = mean_span_us(spans, "engine.checkin_rtt");
    l.store_commit_us = mean_span_us(spans, "store.commit");
    l.replica_quorum_wait_us = mean_span_us(spans, "replica.quorum_wait");
    l.gen_lag_p99_ms = lag.p99;
    emit_layers(report, l);
  }

  // acked => replicated: both followers reach the leader's final seq with
  // byte-identical parameters.
  stack->stop_engine();
  const bool caught_up = stack->await_followers(10'000);
  const auto leader_w = stack->leader().parameters();
  bool identical = caught_up;
  std::string detail = "leader seq " + std::to_string(stack->leader().version());
  for (std::size_t i = 0; i < stack->follower_count(); ++i) {
    const auto fw = stack->follower_server(i).parameters();
    identical = identical && fw.size() == leader_w.size() &&
                std::memcmp(fw.data(), leader_w.data(),
                            fw.size() * sizeof(double)) == 0;
    detail += "; follower " + std::to_string(i + 1) + " seq " +
              std::to_string(stack->follower_applied(i));
  }
  report.check("acked_implies_replicated", identical, detail);
  check_applied(report, stack->leader().version(), base, ok_total,
                report.failed == 0);
  const double test_error = model().error_rate(leader_w, fleet.ds.test);
  report.info("test_error", test_error);
  report.check("learning", test_error < kTestErrorBound,
               "held-out test error " + std::to_string(test_error) +
                   ", bound " + std::to_string(kTestErrorBound));
  check_durable(report, *stack);
  if (cfg.trace) write_spans(report, tracer, cfg);
}

// ---- checkin_flood ------------------------------------------------------

namespace {

/// Which devices pre-sign each connection's checkins.
std::vector<std::vector<std::uint32_t>> flood_plan(std::uint64_t seed) {
  rng::Engine eng(seed * 0x9E3779B97F4A7C15ULL + 0xF100D);
  std::vector<std::uint32_t> order(kDevices);
  for (std::uint32_t d = 0; d < kDevices; ++d) order[d] = d;
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng::uniform_index(eng, i + 1)]);
  std::vector<std::vector<std::uint32_t>> plan(kFloodConns);
  for (std::size_t i = 0; i < kFloodConns * kFloodFrames; ++i)
    plan[i % kFloodConns].push_back(order[i % order.size()]);
  return plan;
}

std::uint64_t flood_digest(std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& c : flood_plan(seed))
    h = fnv1a(c.data(), c.size() * sizeof(std::uint32_t), h);
  return h;
}

struct FloodRec {
  Time due{}, sent{}, acked{};
  bool ok = false;
};

void flood_worker(std::uint16_t port, const std::vector<net::Bytes>& frames,
                  const std::vector<std::uint32_t>& devices, Time start,
                  Time end, Tracer& tracer, std::vector<FloodRec>& out) {
  net::TcpConnection conn = connect_to(port);
  Tracer::Lane* lane = tracer.enabled() ? tracer.lane() : nullptr;
  std::deque<std::size_t> inflight;
  std::size_t next = 0;
  const auto send = [&](Time due) {
    FloodRec r;
    r.due = due;
    r.sent = Clock::now();
    out.push_back(r);
    inflight.push_back(out.size() - 1);
    if (!conn.send_frame(frames[next % frames.size()]))
      throw std::runtime_error("flood send failed");
    ++next;
  };
  std::this_thread::sleep_until(start);
  for (std::size_t i = 0; i < kFloodWindow; ++i) send(start);
  while (!inflight.empty()) {
    const auto reply = conn.recv_frame();
    const Time t = Clock::now();
    const std::size_t idx = inflight.front();
    inflight.pop_front();
    FloodRec& r = out[idx];
    r.acked = t;
    r.ok = ack_ok(reply);
    if (!reply) throw std::runtime_error("flood connection lost");
    if (lane)
      lane->add("engine.checkin_rtt", r.sent, t, 0,
                devices[idx % devices.size()], idx);
    if (t < end) send(t);
  }
}

}  // namespace

void run_checkin_flood(const RunConfig& cfg, Report& report) {
  Tracer tracer(cfg.trace, Clock::now());
  const Fleet fleet = make_fleet(cfg.seed, kDataScale, kDevices);
  check_seed_discipline(report, cfg.seed, fleet.digest, flood_digest);
  report.info("connections", static_cast<double>(kFloodConns));
  report.info("window_per_connection", static_cast<double>(kFloodWindow));
  report.info("warmup_s", kWarmupS);

  EndToEnd e2e;
  StackOptions so;
  so.seed = cfg.seed;
  auto devices = make_devices(cfg.seed, fleet, fleet_credentials(cfg.seed));
  const std::string history = cfg.dir + "/history";
  const std::uint64_t base = write_history(history, cfg.seed, devices);
  auto stack = build_stack(cfg.dir, history, so, tracer, &e2e.setup_s);

  // Paper-shaped checkins, pre-signed by real devices against w = 0.
  const auto plan = flood_plan(cfg.seed);
  const linalg::Vector zero_w(kClasses * kFeatures, 0.0);
  std::vector<std::vector<net::Bytes>> frames(kFloodConns);
  for (std::size_t c = 0; c < kFloodConns; ++c)
    for (const std::uint32_t d : plan[c]) {
      devices[d]->feed();
      devices[d]->device.begin_checkout();
      const auto res = devices[d]->device.compute_checkin(zero_w, 0);
      frames[c].push_back(
          net::encode_frame(net::MessageType::kCheckin, res.message.serialize()));
    }

  const Time start = Clock::now() + std::chrono::milliseconds(50);
  const Time ws = start + std::chrono::nanoseconds(ns_of(kWarmupS));
  const Time we = ws + std::chrono::nanoseconds(ns_of(cfg.seconds));
  std::vector<std::vector<FloodRec>> recs(kFloodConns);
  for (auto& r : recs) r.reserve(1 << 18);
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(kFloodConns);
  for (std::size_t c = 0; c < kFloodConns; ++c)
    workers.emplace_back([&, c] {
      try {
        flood_worker(stack->port(), frames[c], plan[c], start, we, tracer,
                     recs[c]);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });

  Window w;
  w.measure(*stack, ws, we, cfg.trace, e2e);
  for (auto& t : workers) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  long long ok_total = 0;
  double bytes = 0;
  for (std::size_t c = 0; c < kFloodConns; ++c)
    for (std::size_t i = 0; i < recs[c].size(); ++i) {
      const FloodRec& r = recs[c][i];
      ok_total += r.ok;
      if (r.ok && r.acked >= ws && r.acked < we) ++e2e.acks_in_window;
      if (r.sent < ws) continue;
      ++report.attempted;
      if (!r.ok) {
        ++report.failed;
        continue;
      }
      e2e.cycle_ms.push_back(ms_between(r.due, r.acked));
      e2e.ack_ms.push_back(ms_between(r.sent, r.acked));
      bytes += static_cast<double>(frames[c][i % frames[c].size()].size());
    }
  emit_end_to_end(report, e2e);

  if (cfg.trace) {
    const auto spans = window_spans(tracer, tracer.offset_ns(ws),
                                    tracer.offset_ns(we));
    Layers l;
    fill_from_registries(l, w, e2e.acks_in_window);
    l.net_checkin_bytes =
        bytes / static_cast<double>(std::max<std::size_t>(e2e.ack_ms.size(), 1));
    l.engine_checkin_rtt_us = mean_span_us(spans, "engine.checkin_rtt");
    l.store_commit_us = mean_span_us(spans, "store.commit");
    emit_layers(report, l);
  }

  stack->stop_engine();
  check_applied(report, stack->leader().version(), base, ok_total,
                report.failed == 0);
  check_durable(report, *stack);
  if (cfg.trace) write_spans(report, tracer, cfg);
}

// ---- secagg_rounds ------------------------------------------------------

namespace {

/// Each thread's devices, in the seeded order it cycles through them, and
/// the think time before each of its cycles.
struct SecaggPlan {
  std::vector<std::vector<std::uint32_t>> order;
  std::vector<std::vector<double>> think_ms;
};

SecaggPlan secagg_plan(std::uint64_t seed) {
  rng::Engine eng(seed * 0x9E3779B97F4A7C15ULL + 0x5EC);
  SecaggPlan plan;
  plan.order.resize(kSecaggThreads);
  plan.think_ms.resize(kSecaggThreads);
  for (std::uint32_t d = 0; d < kDevices; ++d)
    plan.order[d % kSecaggThreads].push_back(d);
  for (std::size_t t = 0; t < kSecaggThreads; ++t) {
    auto& p = plan.order[t];
    for (std::size_t i = p.size() - 1; i > 0; --i)
      std::swap(p[i], p[rng::uniform_index(eng, i + 1)]);
    for (std::size_t i = 0; i < kSecaggThinkDraws; ++i)
      plan.think_ms[t].push_back(rng::uniform(eng, 0.0, kSecaggThinkMaxMs));
  }
  return plan;
}

std::uint64_t secagg_digest(std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const SecaggPlan plan = secagg_plan(seed);
  for (std::size_t t = 0; t < kSecaggThreads; ++t) {
    h = fnv1a(plan.order[t].data(), plan.order[t].size() * sizeof(std::uint32_t), h);
    h = fnv1a(plan.think_ms[t].data(), plan.think_ms[t].size() * sizeof(double), h);
  }
  return h;
}

/// One device thread: its connection, the per-cycle tallies its injected
/// Exchange and sleep_ms callables keep, and its finished cycles.
struct SecaggThread {
  struct Cycle {
    Time start{}, end{};
    bool ok = false;
    bool fallback = false;
    double ack_ms = 0;
    int assign_polls = 0, status_polls = 0, exchanges = 0;
    double sleep_ms = 0, exchange_us = 0, checkout_us = 0,
           masked_compute_us = 0, masked_rtt_us = 0;
    std::size_t params_bytes = 0, masked_bytes = 0;
  };
  net::TcpConnection conn;
  Tracer::Lane* lane = nullptr;
  std::uint64_t span_parent = 0, device = 0, seq = 0;
  Cycle cur;
  Time checkout_reply{}, masked_sent{};
  bool awaiting_assign = false;
  std::vector<Cycle> cycles;

  std::optional<net::Bytes> exchange(const net::Bytes& req) {
    const auto type = static_cast<net::MessageType>(
        req.size() > net::kFrameTypeOffset ? req[net::kFrameTypeOffset] : 0);
    const Time t0 = Clock::now();
    if (type == net::MessageType::kSecAggAssign && awaiting_assign) {
      awaiting_assign = false;
      cur.masked_compute_us = us_between(checkout_reply, t0);
      if (lane)
        lane->add("device.masked_compute", checkout_reply, t0, span_parent,
                  device, seq);
    }
    std::optional<net::Bytes> reply;
    if (conn.send_frame(req)) reply = conn.recv_frame();
    const Time t1 = Clock::now();
    const double rtt = us_between(t0, t1);
    const char* span = "secagg.exchange";
    switch (type) {
      case net::MessageType::kCheckoutRequest:
        cur.checkout_us = rtt;
        cur.params_bytes = reply ? reply->size() : 0;
        checkout_reply = t1;
        awaiting_assign = true;
        span = "net.checkout_rtt";
        break;
      case net::MessageType::kSecAggAssign:
        ++cur.assign_polls;
        break;
      case net::MessageType::kSecAggMasked:
        masked_sent = t0;
        cur.masked_rtt_us = rtt;
        cur.masked_bytes = req.size();
        break;
      case net::MessageType::kSecAggReveal:
        ++cur.status_polls;
        break;
      default:
        break;
    }
    if (type != net::MessageType::kCheckoutRequest) {
      cur.exchange_us += rtt;
      ++cur.exchanges;
    }
    if (lane) lane->add(span, t0, t1, span_parent, device, seq);
    return reply;
  }

  void sleep(std::uint32_t ms) {
    const Time t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    const Time t1 = Clock::now();
    cur.sleep_ms += ms_between(t0, t1);
    if (lane) lane->add("secagg.sleep", t0, t1, span_parent, device, seq);
  }
};

}  // namespace

void run_secagg_rounds(const RunConfig& cfg, Report& report) {
  Tracer tracer(cfg.trace, Clock::now());
  const Fleet fleet = make_fleet(cfg.seed, kDataScale, kDevices);
  check_seed_discipline(report, cfg.seed, fleet.digest, secagg_digest);
  report.info("device_threads", static_cast<double>(kSecaggThreads));
  report.info("cohort_size", static_cast<double>(kCohort));
  report.info("min_survivors", static_cast<double>(kMinSurvivors));
  report.info("think_max_ms", kSecaggThinkMaxMs);
  report.info("warmup_s", kWarmupS);

  EndToEnd e2e;
  StackOptions so;
  so.seed = cfg.seed;
  so.secagg = true;
  so.cohort_size = kCohort;
  so.min_survivors = kMinSurvivors;
  auto devices = make_devices(cfg.seed, fleet, fleet_credentials(cfg.seed));
  const std::string history = cfg.dir + "/history";
  const std::uint64_t base = write_history(history, cfg.seed, devices);
  auto stack = build_stack(cfg.dir, history, so, tracer, &e2e.setup_s);

  rng::Engine key_eng(cfg.seed * 0x9E3779B97F4A7C15ULL + 0xF1EE7);
  net::SecretKey fleet_key(32);
  for (auto& b : fleet_key) b = static_cast<std::uint8_t>(key_eng());

  const auto plan = secagg_plan(cfg.seed);
  std::vector<std::unique_ptr<SecaggThread>> threads;
  std::vector<std::vector<std::unique_ptr<core::SecAggDeviceClient>>> clients(
      kSecaggThreads);
  for (std::size_t t = 0; t < kSecaggThreads; ++t) {
    auto st = std::make_unique<SecaggThread>();
    st->conn = connect_to(stack->port());
    if (tracer.enabled()) st->lane = tracer.lane();
    SecaggThread* s = st.get();
    core::SecAggDeviceClient::Options o;
    o.fleet_key = fleet_key;
    o.min_survivors = kMinSurvivors;
    o.sleep_ms = [s](std::uint32_t ms) { s->sleep(ms); };
    for (const std::uint32_t d : plan.order[t])
      clients[t].push_back(std::make_unique<core::SecAggDeviceClient>(
          devices[d]->device,
          [s](const net::Bytes& req) { return s->exchange(req); }, o));
    threads.push_back(std::move(st));
  }

  secagg::CohortManager& cohort = *stack->cohort();
  const Time start = Clock::now() + std::chrono::milliseconds(50);
  const Time ws = start + std::chrono::nanoseconds(ns_of(kWarmupS));
  const Time we = ws + std::chrono::nanoseconds(ns_of(cfg.seconds));
  // Cohorts need every device thread, so the threads decide together, at
  // the top of each cycle, whether the run is over.
  std::atomic<bool> stop{false};
  std::barrier sync(static_cast<std::ptrdiff_t>(kSecaggThreads),
                    [&]() noexcept {
                      if (Clock::now() >= we) stop.store(true);
                    });
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(kSecaggThreads);
  for (std::size_t t = 0; t < kSecaggThreads; ++t)
    workers.emplace_back([&, t] {
      SecaggThread& s = *threads[t];
      std::this_thread::sleep_until(start);
      for (std::size_t i = 0;; ++i) {
        sync.arrive_and_wait();
        if (stop.load()) break;
        try {
          const std::size_t k = i % plan.order[t].size();
          devices[plan.order[t][k]]->feed();
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              plan.think_ms[t][i % kSecaggThinkDraws]));
          s.cur = SecaggThread::Cycle{};
          s.device = plan.order[t][k];
          s.seq = i;
          s.span_parent = s.lane ? tracer.next_id() : 0;
          s.cur.start = Clock::now();
          const auto res = clients[t][k]->run_cycle();
          s.cur.end = Clock::now();
          s.cur.ok = res && res->outcome == secagg::RoundOutcome::kApplied;
          s.cur.fallback = res && res->fallback_sent;
          s.cur.ack_ms = ms_between(s.masked_sent, s.cur.end);
          if (s.lane)
            s.lane->add("cycle", s.cur.start, s.cur.end, 0, s.device, i,
                        s.span_parent);
          s.cycles.push_back(s.cur);
        } catch (...) {
          // Leave the barrier so the other threads can still finish.
          errors[t] = std::current_exception();
          sync.arrive_and_drop();
          return;
        }
      }
    });

  Window w;
  w.measure(*stack, ws, we, cfg.trace, e2e);
  for (auto& t : workers) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  long long applied_total = 0, fallbacks = 0;
  SecaggThread::Cycle sum;
  for (const auto& st : threads)
    for (const auto& c : st->cycles) {
      applied_total += c.ok;
      fallbacks += c.fallback;
      if (c.ok && c.end >= ws && c.end < we) ++e2e.acks_in_window;
      if (c.start < ws) continue;
      ++report.attempted;
      if (!c.ok) {
        ++report.failed;
        continue;
      }
      e2e.cycle_ms.push_back(ms_between(c.start, c.end));
      e2e.ack_ms.push_back(c.ack_ms);
      sum.assign_polls += c.assign_polls;
      sum.status_polls += c.status_polls;
      sum.exchanges += c.exchanges;
      sum.sleep_ms += c.sleep_ms;
      sum.exchange_us += c.exchange_us;
      sum.checkout_us += c.checkout_us;
      sum.masked_compute_us += c.masked_compute_us;
      sum.masked_rtt_us += c.masked_rtt_us;
      sum.params_bytes += c.params_bytes;
      sum.masked_bytes += c.masked_bytes;
    }
  emit_end_to_end(report, e2e);

  if (cfg.trace) {
    Layers l;
    fill_from_registries(l, w, e2e.acks_in_window);
    const double n =
        static_cast<double>(std::max<std::size_t>(e2e.cycle_ms.size(), 1));
    const auto spans = window_spans(tracer, tracer.offset_ns(ws),
                                    tracer.offset_ns(we));
    l.device_masked_compute_us = sum.masked_compute_us / n;
    l.net_checkout_rtt_us = sum.checkout_us / n;
    l.net_params_bytes = static_cast<double>(sum.params_bytes) / n;
    l.net_checkin_bytes = static_cast<double>(sum.masked_bytes) / n;
    l.engine_checkin_rtt_us = sum.masked_rtt_us / n;
    l.store_commit_us = mean_span_us(spans, "store.commit");
    l.secagg_assign_polls = sum.assign_polls / n;
    l.secagg_status_polls = sum.status_polls / n;
    l.secagg_sleep_ms = sum.sleep_ms / n;
    l.secagg_exchange_us =
        sum.exchange_us / static_cast<double>(std::max(sum.exchanges, 1));
    emit_layers(report, l);
  }

  stack->stop_engine();
  const long long completed = cohort.rounds_completed();
  const long long masked = cohort.masked_checkins();
  const long long aborted = cohort.rounds_aborted();
  report.check("secagg_rounds",
               masked >= static_cast<long long>(kMinSurvivors) * completed &&
                   aborted == 0 && completed > 0,
               std::to_string(completed) + " rounds completed, " +
                   std::to_string(masked) + " masked checkins, " +
                   std::to_string(aborted) + " aborted");
  // One cohort record per completed round, one classic record per
  // fallback; every applied device cycle belongs to a completed round.
  check_applied(report, stack->leader().version(), base,
                completed + fallbacks,
                report.failed == 0);
  report.check("applied_cycles_match_rounds",
               applied_total == static_cast<long long>(kCohort) * completed,
               std::to_string(applied_total) + " applied device cycles, " +
                   std::to_string(completed) + " rounds of " +
                   std::to_string(kCohort));
  check_durable(report, *stack);
  if (cfg.trace) write_spans(report, tracer, cfg);
}

}  // namespace perfbench
