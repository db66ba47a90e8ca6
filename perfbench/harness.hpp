// Shared pieces of the Crowd-ML benchmark harness: exact quantiles, the
// in-memory span tracer, registry readers, the seeded fleet, and the
// server stack every workload drives (epoll engine, fsync=always durable
// store with group commit, optional quorum followers and secagg cohorts).
//
// The harness measures every layer from outside: it times its own calls
// into each module's public functions and owns the engine's group-commit
// hook, and it reads the exact sum/count of instruments the program
// already exports. Nothing here changes what the program does.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "core/server.hpp"
#include "data/dataset.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "net/auth.hpp"
#include "obs/metrics.hpp"
#include "replica/follower.hpp"
#include "replica/log_shipper.hpp"
#include "secagg/cohort.hpp"
#include "store/durable_store.hpp"

namespace perfbench {

using namespace crowdml;

using Clock = std::chrono::steady_clock;
using Time = Clock::time_point;

inline double us_between(Time a, Time b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double ms_between(Time a, Time b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- the paper's setting (Section V-C) ---------------------------------

inline constexpr std::size_t kDevices = 1000;   // M
inline constexpr std::size_t kClasses = 10;
inline constexpr std::size_t kFeatures = 50;    // PCA dimension
inline constexpr std::size_t kMinibatch = 10;   // b
inline constexpr double kEpsilon = 10.0;        // eps^-1 = 0.1
inline constexpr double kLearningRate = 50.0;   // c for the eps^-1 = 0.1 runs
inline constexpr double kRadius = 500.0;
/// MNIST-like train/test at this scale: 15000/2500 samples, so each of
/// the M devices holds 15 training samples and cycles through them.
inline constexpr double kDataScale = 0.25;

// ---- exact quantiles ----------------------------------------------------

/// Percentiles from the raw samples (nearest rank: always a sample that
/// was measured, never an interpolated or bucketed value).
struct Quantiles {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::size_t beyond_p99 = 0;  ///< samples strictly above p99
};
Quantiles exact_quantiles(std::vector<double> samples);

// ---- spans --------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t device = 0;   ///< request id, part 1 (0 for batch spans)
  std::uint64_t seq = 0;      ///< request id, part 2: cycle / request / batch number
};

/// Spans kept in memory and written as JSONL once the run ends. Each
/// recording thread owns one lane, so recording takes no lock.
class Tracer {
 public:
  Tracer(bool enabled, Time origin) : enabled_(enabled), origin_(origin) {}
  bool enabled() const { return enabled_; }

  class Lane {
   public:
    explicit Lane(Tracer& t) : tracer_(t) {}
    /// Records a span; `id` 0 allocates a fresh one. Returns the id.
    std::uint64_t add(const char* name, Time start, Time end,
                      std::uint64_t parent, std::uint64_t device,
                      std::uint64_t seq, std::uint64_t id = 0);
    const std::vector<Span>& spans() const { return spans_; }

   private:
    Tracer& tracer_;
    std::vector<Span> spans_;
  };

  /// A new lane for one thread (stable address; never shared).
  Lane* lane();
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  std::int64_t offset_ns(Time t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::vector<Span> all() const;
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Time origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::deque<Lane> lanes_;
};

/// Mean duration (us) of every span named `name`.
double mean_span_us(const std::vector<Span>& spans, const char* name);

// ---- registry readers ---------------------------------------------------

/// The exact sum/count of every histogram and the value of every counter
/// in a registry, at one instant.
struct Reading {
  std::map<std::string, std::pair<long long, double>> hist;  // count, sum
  std::map<std::string, long long> counters;
};
Reading read_registry(const obs::MetricsRegistry& reg);

struct HistDelta {
  long long count = 0;
  double sum = 0.0;  ///< in the instrument's unit (seconds for *_seconds)
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};
HistDelta hist_delta(const Reading& before, const Reading& after,
                     const std::string& name);
long long counter_delta(const Reading& before, const Reading& after,
                        const std::string& name);

// ---- report -------------------------------------------------------------

/// Everything one harness run tells run.py: metrics with units, checks,
/// and the provenance / sample-count facts behind them.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok, const std::string& detail);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);
  void quantiles(const std::string& prefix, const Quantiles& q);
  long long attempted = 0;
  long long failed = 0;
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> info_;  // JSON-encoded
};

// ---- seeded inputs ------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// The fleet's data: an MNIST-like dataset sharded across `devices`.
struct Fleet {
  data::Dataset ds;
  std::vector<models::SampleSet> shards;
  std::uint64_t digest = 0;  ///< over every shard's features and labels
};
Fleet make_fleet(std::uint64_t seed, double scale, std::size_t devices);

/// The model every device and server uses: 10-class logistic regression.
const models::MulticlassLogisticRegression& model();

/// One simulated phone: the Device state machine, its shard, and its
/// pre-signed checkout request.
struct FleetDevice {
  FleetDevice(std::uint64_t seed, std::size_t index,
              const models::SampleSet& shard, net::DeviceCredentials creds);
  /// Device Routine 1 for one minibatch: buffer the next b samples.
  void feed();
  core::Device device;
  const models::SampleSet& shard;
  std::size_t cursor = 0;
  net::Bytes checkout_frame;
};
std::vector<std::unique_ptr<FleetDevice>> make_devices(
    std::uint64_t seed, const Fleet& fleet,
    const std::vector<net::DeviceCredentials>& creds);

/// The fleet's credentials: the keys every Stack's AuthRegistry issues
/// for this seed, in enrollment order.
std::vector<net::DeviceCredentials> fleet_credentials(std::uint64_t seed);

/// A leader WAL holding kHistoryRecords checkins that real devices
/// computed against w = 0, written by the store itself into `dir`. Every
/// stack starts from a copy, so set-up recovers it and followers catch
/// up on it. 1000 paper-shaped records fill the first 4 MiB segment, so
/// the measured window appends to a fresh one. Returns the history's
/// final version.
inline constexpr std::size_t kHistoryRecords = 1000;
std::uint64_t write_history(const std::string& dir, std::uint64_t seed,
                            std::vector<std::unique_ptr<FleetDevice>>& devices);

// ---- server stack -------------------------------------------------------

std::unique_ptr<core::Server> make_server(std::uint64_t seed);

struct StackOptions {
  std::uint64_t seed = 1;
  std::size_t followers = 0;  ///< quorum followers (ReplAckMode::kQuorum)
  bool secagg = false;        ///< attach a cohort manager
  std::size_t cohort_size = 4;
  std::size_t min_survivors = 2;
};

/// One leader (epoll engine, fsync=always durable store, group commit),
/// optionally with in-process quorum followers or a secagg cohort
/// manager. The constructor returns once the engine is bound and every
/// follower is connected and caught up: that span is the set-up time.
class Stack {
 public:
  Stack(std::string dir, StackOptions opts, Tracer& tracer);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::uint16_t port() const { return engine_->port(); }
  core::Server& leader() { return *leader_; }
  const engine::EpollCrowdServer& engine() const { return *engine_; }
  secagg::CohortManager* cohort() { return cohort_.get(); }
  obs::MetricsRegistry& leader_registry() { return reg_; }
  obs::MetricsRegistry& follower_registry() { return freg_; }
  const std::string& dir() const { return dir_; }
  std::string leader_dir() const { return dir_ + "/leader"; }

  /// Stop the device-facing engine (every admitted request answers).
  void stop_engine();
  /// Wait until every follower applied the leader's final seq; false on
  /// timeout.
  bool await_followers(int timeout_ms);
  std::size_t follower_count() const { return followers_.size(); }
  const core::Server& follower_server(std::size_t i) const { return *fservers_[i]; }
  std::uint64_t follower_applied(std::size_t i) const {
    return followers_[i]->applied_seq();
  }
  /// Stop everything and close the leader's store (its WAL can then be
  /// recovered by a fresh DurableStore).
  void shutdown();

 private:
  bool group_commit();

  std::string dir_;
  StackOptions opts_;
  Tracer& tracer_;
  Tracer::Lane* hook_lane_ = nullptr;
  std::uint64_t batches_ = 0;  // applier thread only
  obs::MetricsRegistry reg_;   // leader: engine, WAL, shipper, cohorts
  obs::MetricsRegistry freg_;  // followers: their WALs and apply timings
  std::unique_ptr<core::Server> leader_;
  net::AuthRegistry auth_;
  std::unique_ptr<store::DurableStore> store_;
  std::unique_ptr<replica::LogShipper> shipper_;
  std::vector<std::unique_ptr<core::Server>> fservers_;
  std::vector<std::unique_ptr<replica::Follower>> followers_;
  std::unique_ptr<secagg::CohortManager> cohort_;
  std::unique_ptr<engine::EpollCrowdServer> engine_;
  bool down_ = false;
};

/// Build the stack kSetupWarmups + kSetupRepeats times (all but the last
/// torn down again), each on a fresh copy of the `history` WAL, and
/// return the last one. `setup_s` receives the durations of the builds
/// after the warm-up (the copy is not timed): the first few builds in a
/// process run up to twice as slow while the process warms up.
inline constexpr int kSetupWarmups = 5;
inline constexpr int kSetupRepeats = 9;
std::unique_ptr<Stack> build_stack(const std::string& dir,
                                   const std::string& history,
                                   const StackOptions& opts, Tracer& tracer,
                                   std::vector<double>* setup_s);

/// acked => durable: recover a fresh server from the leader's WAL and
/// compare version and parameter bytes with the live leader.
void check_durable(Report& report, Stack& stack);
/// acked => applied: the leader's version past the history is >= the
/// records acked, and == when nothing failed.
void check_applied(Report& report, std::uint64_t version, std::uint64_t history,
                   long long acked, bool exact);

/// Queue depth sampled every 250 us while tracing (the engine exports no
/// depth histogram, only a gauge).
class DepthSampler {
 public:
  explicit DepthSampler(const engine::EpollCrowdServer* engine);
  ~DepthSampler();
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;
  void stop();
  double mean() const;
  double max() const { return static_cast<double>(max_); }

 private:
  const engine::EpollCrowdServer* engine_;
  std::atomic<bool> stop_{false};
  double sum_ = 0.0;
  long long samples_ = 0;
  std::size_t max_ = 0;
  std::thread thread_;
};

/// Process CPU time (user + system), ms.
double process_cpu_ms();

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  ///< scratch directory for WALs and the span file
};

void run_device_cycle(const RunConfig& cfg, Report& report);
void run_checkin_flood(const RunConfig& cfg, Report& report);
void run_secagg_rounds(const RunConfig& cfg, Report& report);

}  // namespace perfbench
