// Shared harness utilities for the figure-reproduction benches.
//
// Each bench regenerates one figure of the paper: it runs every curve the
// figure plots (averaged over trials with randomized sharding, noise and
// delays — Section V-C), prints the error-vs-iteration table, and ends
// with a PASS/WARN line per qualitative "shape" the paper reports.
//
// Scale knobs (environment):
//   CROWDML_SCALE  — dataset scale in (0,1]; default 0.25 (15000/2500
//                    samples for MNIST-like). 1.0 = the paper's full size.
//   CROWDML_TRIALS — trials to average; default 3 (paper: 10).
//   CROWDML_PROFILE — if set, print the hot-path timing histograms
//                    (gradient, sanitize, codec, server update) at exit.
//   CROWDML_METRICS_OUT — if set, write the full Prometheus exposition of
//                    the process registry to this path at exit.
#pragma once

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/central_batch.hpp"
#include "core/crowd_simulation.hpp"
#include "data/mixture.hpp"
#include "metrics/curves.hpp"
#include "models/logistic_regression.hpp"
#include "obs/metrics.hpp"

namespace bench {

using namespace crowdml;

struct Options {
  double scale = 0.25;
  int trials = 3;
  bool profile = false;
};

/// atexit hook: render the timing histograms accumulated in the process
/// registry (every sim run below records into it) as a per-phase summary,
/// and optionally dump the raw Prometheus text for offline diffing.
inline void print_profile_report() {
  const auto snap = obs::default_registry().snapshot();
  std::printf("\n---- profile (CROWDML_PROFILE) ----------------------------\n");
  std::printf("%-40s %12s %14s %14s\n", "scope", "count", "total_s", "mean_us");
  for (const auto& h : snap.histograms) {
    // Only timing scopes belong in a seconds table; other histograms
    // (e.g. observed staleness) still land in CROWDML_METRICS_OUT.
    const bool timing = h.name.size() > 8 &&
                        h.name.rfind("_seconds") == h.name.size() - 8;
    if (h.data.count == 0 || !timing) continue;
    std::printf("%-40s %12lld %14.4f %14.2f\n", h.name.c_str(), h.data.count,
                h.data.sum, h.data.mean() * 1e6);
  }
  if (const char* path = std::getenv("CROWDML_METRICS_OUT")) {
    obs::write_metrics_file(obs::default_registry(), path);
    std::printf("(metrics written: %s)\n", path);
  }
}

inline Options options() {
  Options o;
  if (const char* s = std::getenv("CROWDML_SCALE")) o.scale = std::atof(s);
  if (const char* t = std::getenv("CROWDML_TRIALS")) o.trials = std::atoi(t);
  if (o.scale <= 0.0 || o.scale > 1.0) o.scale = 0.25;
  if (o.trials < 1) o.trials = 1;
  o.profile = std::getenv("CROWDML_PROFILE") != nullptr ||
              std::getenv("CROWDML_METRICS_OUT") != nullptr;
  static bool hook_registered = false;
  if (o.profile && !hook_registered) {
    hook_registered = true;
    // Construct the registry's function-local static *before* registering
    // the hook, so it is destroyed after the hook runs at exit.
    obs::default_registry();
    std::atexit(print_profile_report);
  }
  return o;
}

/// The experiments' shared hyperparameters (selected once on held-out
/// trials, as the paper selects lambda and c).
inline constexpr double kRadius = 500.0;
inline constexpr double kCrowdLearningRate = 100.0;   // no-privacy runs
inline constexpr double kPrivateLearningRate = 50.0;  // eps^-1 = 0.1 runs
inline constexpr std::size_t kNumDevices = 1000;      // paper's M

inline core::CrowdSimConfig crowd_base(long long max_samples,
                                       std::uint64_t seed) {
  core::CrowdSimConfig cfg;
  cfg.num_devices = kNumDevices;
  cfg.max_total_samples = max_samples;
  cfg.eval_points = 30;
  cfg.learning_rate_c = kCrowdLearningRate;
  cfg.projection_radius = kRadius;
  cfg.seed = seed;
  return cfg;
}

/// Run the crowd sim `trials` times (re-sharding each trial) and return
/// the mean test-error curve.
inline metrics::LearningCurve run_crowd_trials(
    const models::Model& model, const data::Dataset& ds,
    const core::CrowdSimConfig& base, int trials, std::uint64_t seed0) {
  metrics::CurveAggregator agg;
  for (int t = 0; t < trials; ++t) {
    core::CrowdSimConfig cfg = base;
    // Aggregate protocol counters + staleness/update-latency histograms
    // across all trials into the process registry (observability only;
    // the sim itself never reads them).
    cfg.metrics = &obs::default_registry();
    cfg.seed = seed0 + static_cast<std::uint64_t>(t) * 7919;
    rng::Engine shard_eng(cfg.seed ^ 0x5A5A);
    auto shards =
        data::shard_across_devices(ds.train, cfg.num_devices, shard_eng);
    core::CrowdSimulation sim(model, cfg);
    agg.add_trial(
        sim.run(core::make_cycling_source(std::move(shards)), ds.test)
            .test_error);
  }
  return agg.mean();
}

/// Constant reference line at the batch baseline's error, on `grid`'s x's.
inline metrics::LearningCurve constant_curve(
    double value, const metrics::LearningCurve& grid) {
  metrics::LearningCurve out;
  for (const auto& p : grid.points()) out.record(p.x, value);
  return out;
}

/// Batch trainer tuned for the mixture problems.
inline baselines::BatchTrainerConfig batch_config() {
  baselines::BatchTrainerConfig cfg;
  cfg.iterations = 400;
  cfg.learning_rate = 200.0;
  cfg.momentum = 0.95;
  cfg.projection_radius = kRadius;
  return cfg;
}

inline void header(const char* figure, const char* description,
                   const Options& o) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("scale=%.2f trials=%d (CROWDML_SCALE / CROWDML_TRIALS to change;"
              " paper: scale=1.0 trials=10)\n", o.scale, o.trials);
  std::printf("================================================================\n");
}

/// Every bench::check result this process, in call order — the `checks`
/// map of the machine-readable output below.
inline std::vector<std::pair<std::string, bool>>& check_log() {
  static std::vector<std::pair<std::string, bool>> log;
  return log;
}

inline void check(bool ok, const std::string& what) {
  check_log().emplace_back(what, ok);
  std::printf("%s  %s\n", ok ? "[PASS]" : "[WARN]", what.c_str());
}

// ---- machine-readable results (--json-out; BENCH_*.json) -------------
//
// Shared schema so every bench's artifact diffs the same way:
//   {"bench": "<name>", "scale": <number>,
//    "rows": [{<field>: <value>, ...}, ...],
//    "checks": {"<bench::check label>": true|false, ...}}

struct JsonField {
  std::string key;
  std::string value;  ///< already JSON-encoded
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
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
  return out;
}

inline JsonField jnum(const std::string& key, double v) {
  char buf[32];
  // NaN/inf are not JSON; a bench that produced one reports 0 and should
  // be failing a check anyway.
  std::snprintf(buf, sizeof buf, "%.6g", std::isfinite(v) ? v : 0.0);
  return {key, buf};
}

inline JsonField jint(const std::string& key, long long v) {
  return {key, std::to_string(v)};
}

inline JsonField jstr(const std::string& key, const std::string& v) {
  return {key, "\"" + json_escape(v) + "\""};
}

/// The CPUs this process may run on (what `nproc` prints).
inline int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// The CPU model from /proc/cpuinfo, or "unknown".
inline std::string host_cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
    break;
  }
  return "unknown";
}

/// Host facts a bench JSON records beside its numbers, as a JSON object:
/// host_nproc() and host_cpu_model().
inline std::string host_facts_json() {
  return "{\"nproc\": " + std::to_string(host_nproc()) + ", \"cpu_model\": \"" +
         json_escape(host_cpu_model()) + "\"}";
}

/// Write the bench's results (+ every check recorded so far) to `path`.
/// Returns false (after printing a warning) when the file can't open.
inline bool write_bench_json(const std::string& path, const std::string& name,
                             double scale,
                             const std::vector<std::vector<JsonField>>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::printf("[WARN]  could not write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"" << json_escape(name) << "\",\n  \"scale\": "
      << jnum("", scale).value << ",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i ? ",\n    {" : "\n    {");
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      out << (j ? ", " : "") << '"' << json_escape(rows[i][j].key)
          << "\": " << rows[i][j].value;
    out << '}';
  }
  out << "\n  ],\n  \"checks\": {";
  const auto& checks = check_log();
  for (std::size_t i = 0; i < checks.size(); ++i)
    out << (i ? ",\n    \"" : "\n    \"") << json_escape(checks[i].first)
        << "\": " << (checks[i].second ? "true" : "false");
  out << "\n  }\n}\n";
  std::printf("(json written: %s)\n", path.c_str());
  return true;
}

inline void print_figure(const std::string& x_label,
                         const std::vector<std::string>& names,
                         const std::vector<metrics::LearningCurve>& curves,
                         const std::string& csv_name = "") {
  metrics::print_curve_table(std::cout, x_label, names, curves, 16);
  // With CROWDML_CSV_DIR set, also emit the raw series for plotting.
  if (const char* dir = std::getenv("CROWDML_CSV_DIR"); dir && !csv_name.empty()) {
    std::string stem = csv_name;
    for (char& c : stem)
      if (c == ' ' || c == '/') c = '_';
    const std::string path = std::string(dir) + "/" + stem + ".csv";
    std::ofstream out(path);
    if (out) {
      metrics::write_curves_csv(out, names, curves);
      std::printf("(csv written: %s)\n", path.c_str());
    }
  }
}

}  // namespace bench
