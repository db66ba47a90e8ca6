#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "data/mixture.hpp"
#include "opt/schedule.hpp"
#include "opt/updater.hpp"
#include "privacy/budget.hpp"

namespace perfbench {

// ---- exact quantiles ----------------------------------------------------

Quantiles exact_quantiles(std::vector<double> samples) {
  Quantiles q;
  q.n = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double p) {
    const auto r = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(r, 1, samples.size()) - 1];
  };
  q.p50 = rank(0.50);
  q.p99 = rank(0.99);
  q.max = samples.back();
  q.beyond_p99 = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), q.p99));
  return q;
}

// ---- spans --------------------------------------------------------------

std::uint64_t Tracer::Lane::add(const char* name, Time start, Time end,
                                std::uint64_t parent, std::uint64_t device,
                                std::uint64_t seq, std::uint64_t id) {
  if (id == 0) id = tracer_.next_id();
  spans_.push_back(Span{name, tracer_.offset_ns(start), tracer_.offset_ns(end),
                        id, parent, device, seq});
  return id;
}

Tracer::Lane* Tracer::lane() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.emplace_back(*this);
  return &lanes_.back();
}

std::vector<Span> Tracer::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Lane& l : lanes_)
    out.insert(out.end(), l.spans().begin(), l.spans().end());
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : all())
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"device\":%llu,\"seq\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.device),
                 static_cast<unsigned long long>(s.seq));
  return std::fclose(f) == 0;
}

double mean_span_us(const std::vector<Span>& spans, const char* name) {
  double sum = 0.0;
  long long n = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    sum += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// ---- registry readers ---------------------------------------------------

Reading read_registry(const obs::MetricsRegistry& reg) {
  Reading r;
  const auto snap = reg.snapshot();
  for (const auto& h : snap.histograms)
    r.hist[h.name] = {h.data.count, h.data.sum};
  for (const auto& c : snap.counters) r.counters[c.name] = c.value;
  return r;
}

HistDelta hist_delta(const Reading& before, const Reading& after,
                     const std::string& name) {
  HistDelta d;
  const auto a = after.hist.find(name);
  if (a == after.hist.end()) return d;
  d.count = a->second.first;
  d.sum = a->second.second;
  if (const auto b = before.hist.find(name); b != before.hist.end()) {
    d.count -= b->second.first;
    d.sum -= b->second.second;
  }
  return d;
}

long long counter_delta(const Reading& before, const Reading& after,
                        const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

// ---- report -------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Report::quantiles(const std::string& prefix, const Quantiles& q) {
  info(prefix + ".samples", static_cast<double>(q.n));
  info(prefix + ".p50", q.p50);
  info(prefix + ".p99", q.p99);
  info(prefix + ".max", q.max);
  info(prefix + ".beyond_p99", static_cast<double>(q.beyond_p99));
}

std::string Report::to_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    out += (i ? ", " : "") + json_string(metrics_[i].name) +
           ": {\"value\": " + json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i)
    out += std::string(i ? ", " : "") + "{\"name\": " +
           json_string(checks_[i].name) +
           ", \"ok\": " + (checks_[i].ok ? "true" : "false") +
           ", \"detail\": " + json_string(checks_[i].detail) + "}";
  out += "], \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i)
    out += (i ? ", " : "") + json_string(info_[i].first) + ": " +
           info_[i].second;
  return out + "}}";
}

// ---- seeded inputs ------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Fleet make_fleet(std::uint64_t seed, double scale, std::size_t devices) {
  Fleet f;
  rng::Engine data_eng(seed * 0x9E3779B97F4A7C15ULL + 0xDA7A);
  f.ds = data::make_mnist_like(data_eng, scale);
  rng::Engine shard_eng(seed * 0x9E3779B97F4A7C15ULL + 0x5A4D);
  f.shards = data::shard_across_devices(f.ds.train, devices, shard_eng);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& shard : f.shards)
    for (const auto& s : shard) {
      h = fnv1a(s.x.data(), s.x.size() * sizeof(double), h);
      h = fnv1a(&s.y, sizeof s.y, h);
    }
  f.digest = h;
  return f;
}

const models::MulticlassLogisticRegression& model() {
  static const models::MulticlassLogisticRegression m(kClasses, kFeatures, 0.0);
  return m;
}

namespace {

core::DeviceConfig device_config(std::uint64_t device_id) {
  core::DeviceConfig dc;
  dc.device_id = device_id;
  dc.minibatch_size = kMinibatch;
  dc.budget = privacy::PrivacyBudget::gradient_dominated(kEpsilon);
  return dc;
}

}  // namespace

FleetDevice::FleetDevice(std::uint64_t seed, std::size_t index,
                         const models::SampleSet& shard_,
                         net::DeviceCredentials creds)
    : device(device_config(creds.device_id), model(),
             rng::Engine(seed * 0x9E3779B97F4A7C15ULL + 0xDE000 + index)),
      shard(shard_) {
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  checkout_frame =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());
  device.set_credentials(std::move(creds));
}

void FleetDevice::feed() {
  for (std::size_t i = 0; i < kMinibatch; ++i) {
    device.on_sample(shard[cursor]);
    cursor = (cursor + 1) % shard.size();
  }
}

std::vector<std::unique_ptr<FleetDevice>> make_devices(
    std::uint64_t seed, const Fleet& fleet,
    const std::vector<net::DeviceCredentials>& creds) {
  std::vector<std::unique_ptr<FleetDevice>> out;
  out.reserve(fleet.shards.size());
  for (std::size_t d = 0; d < fleet.shards.size(); ++d)
    out.push_back(
        std::make_unique<FleetDevice>(seed, d, fleet.shards[d], creds[d]));
  return out;
}

// ---- server stack -------------------------------------------------------

namespace {

rng::Engine auth_engine(std::uint64_t seed) {
  return rng::Engine(seed * 0x9E3779B97F4A7C15ULL + 0xA17);
}

}  // namespace

std::vector<net::DeviceCredentials> fleet_credentials(std::uint64_t seed) {
  net::AuthRegistry auth(auth_engine(seed));
  std::vector<net::DeviceCredentials> out;
  out.reserve(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) out.push_back(auth.enroll());
  return out;
}

std::unique_ptr<core::Server> make_server(std::uint64_t seed) {
  core::ServerConfig cfg;
  cfg.param_dim = kClasses * kFeatures;
  cfg.num_classes = kClasses;
  return std::make_unique<core::Server>(
      cfg,
      std::make_unique<opt::SgdUpdater>(
          std::make_unique<opt::SqrtDecaySchedule>(kLearningRate), kRadius),
      rng::Engine(seed * 0x9E3779B97F4A7C15ULL + 0x5E12));
}

namespace {

store::DurableStoreOptions store_options(obs::MetricsRegistry* metrics) {
  store::DurableStoreOptions o;
  o.wal.fsync = store::FsyncPolicy::kAlways;
  o.wal.metrics = metrics;
  return o;
}

}  // namespace

Stack::Stack(std::string dir, StackOptions opts, Tracer& tracer)
    : dir_(std::move(dir)),
      opts_(opts),
      tracer_(tracer),
      leader_(make_server(opts.seed)),
      auth_(auth_engine(opts.seed)) {
  std::filesystem::create_directories(dir_);
  for (std::size_t d = 0; d < kDevices; ++d) auth_.enroll();

  store_ = std::make_unique<store::DurableStore>(leader_dir(),
                                                 store_options(&reg_));
  store_->recover(*leader_);
  store_->attach(*leader_);
  store_->set_group_commit(true);

  if (opts_.followers > 0) {
    replica::ShipperOptions sh;
    sh.ack_mode = replica::ReplAckMode::kQuorum;
    sh.quorum_follower_acks = replica::quorum_follower_acks_for(opts_.followers);
    sh.metrics = &reg_;
    shipper_ = std::make_unique<replica::LogShipper>(*leader_, *store_, 1, sh);
    for (std::size_t i = 0; i < opts_.followers; ++i) {
      fservers_.push_back(make_server(opts_.seed));
      replica::FollowerOptions fo;
      fo.leader_port = shipper_->port();
      fo.follower_id = i + 1;
      fo.store = store_options(&freg_);
      fo.metrics = &freg_;
      fo.reconnect_backoff_ms = 20;
      followers_.push_back(std::make_unique<replica::Follower>(
          *fservers_.back(), dir_ + "/follower-" + std::to_string(i + 1), fo));
      followers_.back()->start();
    }
  }

  if (opts_.secagg) {
    secagg::CohortConfig c;
    c.cohort_size = opts_.cohort_size;
    c.min_survivors = opts_.min_survivors;
    c.param_dim = kClasses * kFeatures;
    c.num_classes = kClasses;
    c.metrics = &reg_;
    core::Server* leader = leader_.get();
    cohort_ = std::make_unique<secagg::CohortManager>(
        c, [leader](const net::CheckinMessage& m) {
          return leader->handle_checkin(m);
        });
  }

  if (tracer_.enabled()) hook_lane_ = tracer_.lane();
  engine::EngineConfig ec;
  ec.metrics = &reg_;
  ec.secagg = cohort_.get();
  ec.group_commit = [this] { return group_commit(); };
  engine_ = std::make_unique<engine::EpollCrowdServer>(*leader_, auth_, ec);

  // Followers connected and caught up: quorum acks are possible from the
  // first request on.
  const Time deadline = Clock::now() + std::chrono::seconds(10);
  while (shipper_ && (shipper_->follower_sessions() < followers_.size() ||
                      !await_followers(0))) {
    if (Clock::now() > deadline)
      throw std::runtime_error("followers did not connect within 10 s");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Stack::~Stack() {
  try {
    shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: stack shutdown failed: %s\n", e.what());
  }
}

bool Stack::group_commit() {
  if (!hook_lane_) {
    if (!store_->commit_group()) return false;
    if (!shipper_) return true;
    shipper_->notify_committed();
    return shipper_->await_quorum(store_->wal().last_seq());
  }
  // Traced: the same calls, timed. Batches that wrote no record (secagg
  // polls) are not commits and get no span.
  const std::uint64_t before = store_->wal().last_seq();
  const Time t0 = Clock::now();
  const bool ok = store_->commit_group();
  const Time t1 = Clock::now();
  const std::uint64_t last = store_->wal().last_seq();
  const bool wrote = last != before;
  const std::uint64_t batch = ++batches_;
  if (wrote) hook_lane_->add("store.commit", t0, t1, 0, 0, batch);
  if (!ok) return false;
  if (!shipper_) return true;
  shipper_->notify_committed();
  const Time t2 = Clock::now();
  const bool q = shipper_->await_quorum(last);
  if (wrote) hook_lane_->add("replica.quorum_wait", t2, Clock::now(), 0, 0, batch);
  return q;
}

void Stack::stop_engine() {
  if (engine_) engine_->shutdown();
}

bool Stack::await_followers(int timeout_ms) {
  const Time deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::uint64_t v = leader_->version();
    bool all = true;
    for (const auto& f : followers_) all = all && f->applied_seq() == v;
    if (all) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Stack::shutdown() {
  if (down_) return;
  down_ = true;
  if (engine_) engine_->shutdown();
  for (auto& f : followers_) f->shutdown();
  if (shipper_) shipper_->shutdown();
  engine_.reset();
  cohort_.reset();
  followers_.clear();
  shipper_.reset();
  if (store_) store_->sync();
  store_.reset();
}

std::uint64_t write_history(const std::string& dir, std::uint64_t seed,
                            std::vector<std::unique_ptr<FleetDevice>>& devices) {
  std::filesystem::remove_all(dir);
  obs::MetricsRegistry scratch;
  auto server = make_server(seed);
  store::DurableStore st(dir, store_options(&scratch));
  st.recover(*server);
  st.attach(*server);
  st.set_group_commit(true);
  const linalg::Vector zero_w(kClasses * kFeatures, 0.0);
  for (std::size_t i = 0; i < kHistoryRecords; ++i) {
    FleetDevice& fd = *devices[i % devices.size()];
    fd.feed();
    fd.device.begin_checkout();
    if (!server->handle_checkin(fd.device.compute_checkin(zero_w, 0).message).ok)
      throw std::runtime_error("history checkin rejected");
  }
  if (!st.commit_group()) throw std::runtime_error("history commit failed");
  return server->version();
}

std::unique_ptr<Stack> build_stack(const std::string& dir,
                                   const std::string& history,
                                   const StackOptions& opts, Tracer& tracer,
                                   std::vector<double>* setup_s) {
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kSetupWarmups + kSetupRepeats; ++r) {
    if (stack) {
      const std::string old = stack->dir();
      stack.reset();
      std::filesystem::remove_all(old);
    }
    const std::string sub = dir + "/stack-" + std::to_string(r);
    std::filesystem::remove_all(sub);
    std::filesystem::create_directories(sub);
    std::filesystem::copy(history, sub + "/leader",
                          std::filesystem::copy_options::recursive);
    const Time t0 = Clock::now();
    stack = std::make_unique<Stack>(sub, opts, tracer);
    if (r >= kSetupWarmups)
      setup_s->push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return stack;
}

void check_durable(Report& report, Stack& stack) {
  stack.shutdown();
  obs::MetricsRegistry scratch;
  auto fresh = make_server(0);
  store::DurableStore st(stack.leader_dir(), store_options(&scratch));
  st.recover(*fresh);
  const auto live = stack.leader().parameters();
  const auto rec = fresh->parameters();
  const bool same_version = fresh->version() == stack.leader().version();
  const bool same_bytes =
      live.size() == rec.size() &&
      std::memcmp(live.data(), rec.data(), live.size() * sizeof(double)) == 0;
  report.check("acked_implies_durable", same_version && same_bytes,
               "recovered version " + std::to_string(fresh->version()) +
                   " vs live " + std::to_string(stack.leader().version()) +
                   (same_bytes ? ", parameter bytes identical"
                               : ", parameter bytes differ"));
}

void check_applied(Report& report, std::uint64_t version, std::uint64_t history,
                   long long acked, bool exact) {
  const auto v = static_cast<long long>(version - history);
  report.check("acked_implies_applied", exact ? v == acked : v >= acked,
               "leader version " + std::to_string(version) + " = history " +
                   std::to_string(history) + " + " + std::to_string(v) +
                   "; records acked " + std::to_string(acked) +
                   (exact ? " (must be equal)" : ""));
}

DepthSampler::DepthSampler(const engine::EpollCrowdServer* engine)
    : engine_(engine), thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          const std::size_t d = engine_->queue().depth();
          sum_ += static_cast<double>(d);
          ++samples_;
          max_ = std::max(max_, d);
          std::this_thread::sleep_for(std::chrono::microseconds(250));
        }
      }) {}

DepthSampler::~DepthSampler() { stop(); }

void DepthSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double DepthSampler::mean() const {
  return samples_ > 0 ? sum_ / static_cast<double>(samples_) : 0.0;
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace perfbench

// ---- entry point --------------------------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string report_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") cfg.workload = val;
    else if (key == "--seed") cfg.seed = std::stoull(val);
    else if (key == "--seconds") cfg.seconds = std::stod(val);
    else if (key == "--trace") cfg.trace = val == "1";
    else if (key == "--dir") cfg.dir = val;
    else if (key == "--report") report_path = val;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (cfg.dir.empty() || report_path.empty() || cfg.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: crowdml_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --dir DIR --report PATH\n");
    return 2;
  }
  Report report;
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("compiler", __VERSION__);
  report.info("seed", static_cast<double>(cfg.seed));
  report.info("run_seconds", cfg.seconds);
  try {
    std::filesystem::create_directories(cfg.dir);
    if (cfg.workload == "device_cycle") run_device_cycle(cfg, report);
    else if (cfg.workload == "checkin_flood") run_checkin_flood(cfg, report);
    else if (cfg.workload == "secagg_rounds") run_secagg_rounds(cfg, report);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  std::FILE* f = std::fopen(report_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", report_path.c_str());
    return 1;
  }
  const std::string json = report.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 ? 0 : 1;
}
