// Serving-engine bench: checkout and checkin throughput vs connection
// count, per-record vs group-commit fsync — the numbers behind
// docs/SCALING.md.
//
// Two engine modes, both with a durable store attached under
// --fsync always semantics (every acked checkin is on the platter):
//
//   epoll        engine::EpollCrowdServer, one fsync per checkin
//                (group commit off: the store appends per record);
//   epoll+group  the full engine: batched applier, one fsync per batch.
//
// Plus the draw-and-discard pool (src/multimodel/) at k in {1, 2, 4, 8}
// instances on 256 connections: k engine lanes, each lane's applier
// group-committing its own WAL stream — the applier-scaling numbers behind
// docs/SCALING.md "Draw-and-discard multi-model serving".
//
// Clients are raw protocol loops over real localhost TCP — pre-encoded
// checkout/checkin frames per enrolled device, so the bench measures the
// serving path, not client-side SGD. Gradients are compact (10 classes x
// 5 features) for the same reason: with MNIST-sized payloads the
// apply/codec cost swamps the fsync contrast this bench exists to show
// (bench/durability covers the payload-heavy WAL costs). For each mode and connection count
// {16, 64, 256}: a checkout phase (all connections hammer checkouts) and
// a checkin phase (all connections hammer checkins), aggregate ops/s.
//
// Scale via CROWDML_SCALE (default 0.25 => 2000 checkins per phase).
#include <atomic>
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "engine/epoll_server.hpp"
#include "multimodel/instance_pool.hpp"
#include "store/durable_store.hpp"
#include "tools/flags.hpp"

namespace {

using namespace crowdml;

constexpr std::size_t kClasses = 10;
constexpr std::size_t kDim = 5;

core::Server make_server() {
  core::ServerConfig cfg;
  cfg.param_dim = kClasses * kDim;
  cfg.num_classes = kClasses;
  return core::Server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0),
                      rng::Engine(1));
}

/// Pre-encoded request frames for one enrolled device. The checkin pins
/// param_version=0 (staleness is free in Crowd-ML), so one signed frame
/// can be replayed by the bench loop without client-side work.
struct ClientFrames {
  net::Bytes checkout;
  net::Bytes checkin;
};

ClientFrames make_frames(const net::DeviceCredentials& creds,
                         rng::Engine& eng) {
  ClientFrames f;
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  f.checkout =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());

  net::CheckinMessage m;
  m.device_id = creds.device_id;
  m.g_hat.reserve(kClasses * kDim);
  for (std::size_t i = 0; i < kClasses * kDim; ++i)
    m.g_hat.push_back(static_cast<double>(eng() % 2001) / 1000.0 - 1.0);
  m.ns = 10;
  m.ne_hat = static_cast<std::int64_t>(eng() % 3);
  for (std::size_t i = 0; i < kClasses; ++i)
    m.ny_hat.push_back(static_cast<std::int64_t>(eng() % 5));
  m.auth_tag = creds.sign(m.body());
  f.checkin = net::encode_frame(net::MessageType::kCheckin, m.serialize());
  return f;
}

/// All connections send `frame` until `total` exchanges have completed;
/// returns aggregate exchanges/s. The load generator multiplexes
/// connections over at most 16 client threads (each owning a slice) and
/// pipelines kWindow requests per connection before reading the
/// responses: the measured quantity is concurrent *connections* and the
/// server's capacity to serve them, and a thread per connection doing
/// lock-step RTTs would bench the client's scheduler instead. The window
/// is deep enough that the generator never starves a commit-per-update
/// applier (the multimodel rows below) between refills.
constexpr long long kWindow = 32;

double hammer(std::vector<net::TcpConnection>& conns,
              const std::vector<ClientFrames>& frames, bool checkin,
              long long total) {
  std::atomic<long long> remaining{total};
  std::atomic<long long> failed{0};
  std::vector<std::thread> threads;
  const std::size_t workers = std::min<std::size_t>(16, conns.size());
  const auto t0 = std::chrono::steady_clock::now();
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::size_t c = w;
      for (;;) {
        const long long before = remaining.fetch_sub(kWindow);
        const long long k = std::min(kWindow, before);
        if (k <= 0) break;
        const net::Bytes& frame =
            checkin ? frames[c].checkin : frames[c].checkout;
        // One write per window, not per frame: frames are length-prefixed
        // on a byte stream, so k concatenated frames are wire-identical
        // to k separate sends — without the load generator burning a
        // syscall (and a scheduler slot) per request it pipelines.
        net::Bytes burst;
        burst.reserve(static_cast<std::size_t>(k) * frame.size());
        for (long long i = 0; i < k; ++i)
          burst.insert(burst.end(), frame.begin(), frame.end());
        long long sent = 0;
        if (conns[c].send_frame(burst)) sent = k;
        for (long long i = 0; i < sent; ++i)
          if (!conns[c].recv_frame()) ++failed;
        failed += k - sent;
        c = (c + workers < conns.size()) ? c + workers : w;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (failed.load() > 0)
    std::printf("  !! %lld exchanges failed\n", failed.load());
  return static_cast<double>(total) / wall;
}

struct Result {
  double checkouts_per_s = 0.0;
  double checkins_per_s = 0.0;
  long long fsyncs = 0;
  std::uint64_t version = 0;
};

enum class Mode { kEpoll, kEpollGroup };

const char* mode_name(Mode m) {
  return m == Mode::kEpollGroup ? "epoll+group" : "epoll";
}

std::string make_temp_dir(const char* pattern) {
  std::string dir = (std::filesystem::temp_directory_path() / pattern).string();
  if (!mkdtemp(dir.data())) throw std::runtime_error("mkdtemp failed");
  return dir;
}

/// Connect `conns` freshly enrolled clients to `port` and run the
/// checkout phase, then the checkin phase. The clients disconnect on
/// return, before the caller shuts the server down.
Result drive(std::uint16_t port, net::AuthRegistry& registry,
             std::size_t conns, long long total) {
  std::vector<net::TcpConnection> sockets;
  std::vector<ClientFrames> frames;
  rng::Engine eng(42);
  for (std::size_t c = 0; c < conns; ++c) {
    frames.push_back(make_frames(registry.enroll(), eng));
    auto conn = net::TcpConnection::connect("127.0.0.1", port, 2000);
    if (!conn) throw std::runtime_error("bench client connect failed");
    sockets.push_back(std::move(*conn));
  }
  Result r;
  r.checkouts_per_s = hammer(sockets, frames, false, total);
  r.checkins_per_s = hammer(sockets, frames, true, total);
  return r;
}

Result run_mode(Mode mode, std::size_t conns, long long total) {
  Result r;
  const std::string dir = make_temp_dir("crowdml_serving_XXXXXX");
  {
    core::Server server = make_server();
    net::AuthRegistry registry(rng::Engine(2));

    store::DurableStoreOptions sopts;
    sopts.wal.fsync = store::FsyncPolicy::kAlways;
    store::DurableStore store(dir, sopts);
    store.recover(server);
    store.attach(server);

    obs::MetricsRegistry metrics;  // isolate per-run engine instruments
    engine::EngineConfig ecfg;
    ecfg.max_connections = conns + 8;
    ecfg.checkin_queue_max = 4096;  // measure throughput, not shedding
    ecfg.metrics = &metrics;
    if (mode == Mode::kEpollGroup) {
      store.set_group_commit(true);
      store::DurableStore* s = &store;
      ecfg.group_commit = [s] { return s->commit_group(); };
    }
    engine::EpollCrowdServer epoll_srv(server, registry, ecfg);

    r = drive(epoll_srv.port(), registry, conns, total);
    r.fsyncs = store.wal().fsyncs();
    r.version = server.version();
    epoll_srv.shutdown();
  }
  std::filesystem::remove_all(dir);
  return r;
}

/// Draw-and-discard pool: k engine lanes, k WAL streams (fsync=always,
/// group commit per instance), each lane carrying its discard step.
///
/// Pool rows run at commit-per-update cadence (checkin_batch_max = 1):
/// every acked update is its own group-commit tick, so the row measures
/// the WAL-clock serialization itself rather than fsync amortization.
/// That is the regime where k instances genuinely win — k = 1 spends its
/// applier blocked in one fsync at a time, while k independent commit
/// clocks overlap their fsync stalls (even on a single core: fsync waits
/// are I/O waits, not CPU). At large batch sizes fsync amortizes toward
/// zero and a single applier is already CPU-bound — see the epoll-group
/// rows above for that regime.
Result run_pool(std::size_t k, std::size_t conns, long long total) {
  Result r;
  const std::string dir = make_temp_dir("crowdml_pool_XXXXXX");
  {
    net::AuthRegistry registry(rng::Engine(2));
    obs::MetricsRegistry metrics;

    std::vector<std::unique_ptr<core::Server>> servers;
    std::vector<std::unique_ptr<store::DurableStore>> stores;
    std::vector<std::unique_ptr<multimodel::DiscardRecords>> discards;
    std::vector<engine::LaneConfig> lanes;
    for (std::size_t i = 0; i < k; ++i) {
      core::ServerConfig cfg;
      cfg.param_dim = kClasses * kDim;
      cfg.num_classes = kClasses;
      servers.push_back(std::make_unique<core::Server>(
          cfg,
          std::make_unique<opt::SgdUpdater>(
              std::make_unique<opt::SqrtDecaySchedule>(50.0), 500.0),
          rng::Engine(1).split(i)));
      store::DurableStoreOptions sopts;
      sopts.wal.fsync = store::FsyncPolicy::kAlways;
      multimodel::install_overwrite_replay(sopts);
      stores.push_back(std::make_unique<store::DurableStore>(
          store::DurableStore::instance_dir(dir, i, k), sopts));
      store::DurableStore* s = stores.back().get();
      s->recover(*servers.back());
      s->attach(*servers.back());
      s->set_group_commit(true);
      if (k > 1)
        discards.push_back(std::make_unique<multimodel::DiscardRecords>(
            i, k, 1, *servers.back(), s, &metrics));
      lanes.push_back({.server = *servers.back(),
                       .group_commit = [s] { return s->commit_group(); },
                       .records = k > 1 ? discards.back().get() : nullptr});
    }

    engine::EngineConfig ecfg;
    ecfg.max_connections = conns + 8;
    ecfg.checkin_queue_max = 4096;
    ecfg.checkin_batch_max = 1;  // commit-per-update (see above)
    ecfg.metrics = &metrics;
    engine::EpollCrowdServer epoll_srv(std::move(lanes), registry, ecfg, 1);

    r = drive(epoll_srv.port(), registry, conns, total);
    for (const auto& s : stores) r.fsyncs += s->wal().fsyncs();
    for (const auto& s : servers) r.version += s->version();
    epoll_srv.shutdown();
  }
  std::filesystem::remove_all(dir);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  try {
    const tools::Flags flags(argc, argv);
    json_out = flags.get("json-out", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_engine: %s (only --json-out PATH)\n",
                 e.what());
    return 1;
  }
  const bench::Options o = bench::options();
  const long long total = std::max(512, static_cast<int>(8000 * o.scale));
  bench::header("serving_engine",
                "epoll engine: throughput vs connections, "
                "per-record vs group-commit fsync", o);
  std::printf("%lld exchanges per phase, %zu-double gradients, "
              "fsync=always throughout\n\n",
              total, kClasses * kDim);

  const std::size_t conn_counts[] = {16, 64, 256};
  const Mode modes[] = {Mode::kEpoll, Mode::kEpollGroup};

  std::printf("%-12s %6s %14s %14s %10s %14s\n", "engine", "conns",
              "checkouts/s", "checkins/s", "fsyncs", "fsyncs/checkin");
  double epoll_256 = 0.0, epoll_group_256 = 0.0;
  long long group_fsyncs_256 = 0;
  struct Row {
    Mode mode;
    std::size_t conns;
    Result r;
  };
  std::vector<Row> rows;
  for (const Mode mode : modes) {
    for (const std::size_t conns : conn_counts) {
      const Result r = run_mode(mode, conns, total);
      rows.push_back({mode, conns, r});
      std::printf("%-12s %6zu %14.0f %14.0f %10lld %14.3f\n", mode_name(mode),
                  conns, r.checkouts_per_s, r.checkins_per_s, r.fsyncs,
                  static_cast<double>(r.fsyncs) /
                      static_cast<double>(std::max<std::uint64_t>(r.version, 1)));
      if (conns == 256 && mode == Mode::kEpoll) epoll_256 = r.checkins_per_s;
      if (conns == 256 && mode == Mode::kEpollGroup) {
        epoll_group_256 = r.checkins_per_s;
        group_fsyncs_256 = r.fsyncs;
      }
    }
    std::printf("\n");
  }

  // Draw-and-discard applier scaling: same 256-connection load, k
  // independent appliers each group-committing its own WAL stream at
  // commit-per-update cadence. Commit-per-update rates are dominated by
  // fsync latency, which on shared/virtualized disks drifts 2-3x between
  // runs — so each k runs kPoolRepeats times (after one unmeasured
  // warmup that absorbs cold-start costs) and the row reports the median.
  struct PoolRow {
    std::size_t k;
    Result r;
  };
  std::vector<PoolRow> pool_rows;
  const std::size_t pool_ks[] = {1, 2, 4, 8};
  constexpr int kPoolRepeats = 3;
  double pool_k1_256 = 0.0, pool_k8_256 = 0.0;
  run_pool(1, 256, std::max<long long>(total / 4, 256));  // warmup
  for (const std::size_t k : pool_ks) {
    std::vector<Result> reps;
    for (int rep = 0; rep < kPoolRepeats; ++rep)
      reps.push_back(run_pool(k, 256, total));
    std::sort(reps.begin(), reps.end(), [](const Result& a, const Result& b) {
      return a.checkins_per_s < b.checkins_per_s;
    });
    const Result& r = reps[reps.size() / 2];
    pool_rows.push_back({k, r});
    std::printf("%-9s k=%zu %6u %14.0f %14.0f %10lld %14.3f\n", "multimodel",
                k, 256u, r.checkouts_per_s, r.checkins_per_s, r.fsyncs,
                static_cast<double>(r.fsyncs) /
                    static_cast<double>(std::max<std::uint64_t>(r.version, 1)));
    if (k == 1) pool_k1_256 = r.checkins_per_s;
    if (k == 8) pool_k8_256 = r.checkins_per_s;
  }
  std::printf("\n");

  const bool speedup_ok = epoll_group_256 >= 4.0 * epoll_256;
  const bool fsync_ok = group_fsyncs_256 < total;
  // The single-applier commit clock is the ceiling being measured: k = 1
  // serializes one fsync per acked update, k = 8 overlaps eight commit
  // clocks. On a single-core host the overlap is bounded by per-request
  // CPU, which caps the honest ratio near (fsync_latency + applier_cpu)
  // / per_request_cpu ~= 2-2.5x (see EXPERIMENTS.md "Draw-and-discard
  // applier scaling"); with >= 8 cores the applies themselves
  // parallelize and the ratio clears 3x. The regression gate here is the
  // single-core floor; the measured ratio and the 3x target are both
  // recorded in the JSON so multi-core runs can assert the stronger
  // claim.
  const double pool_ratio =
      pool_k1_256 > 0.0 ? pool_k8_256 / pool_k1_256 : 0.0;
  const bool pool_ok = pool_ratio >= 1.5;
  const bool pool_3x = pool_ratio >= 3.0;
  bench::check(speedup_ok,
               "epoll+group >= 4x epoll (per-record commit) checkin "
               "throughput at 256 conns");
  bench::check(fsync_ok, "group commit fsyncs fewer times than it acks");
  bench::check(pool_ok,
               "multimodel k=8 >= 1.5x k=1 checkin throughput at 256 conns");
  std::printf("  (k=8 / k=1 checkin ratio: %.2fx; 3x target %s on this "
              "host — see EXPERIMENTS.md)\n",
              pool_ratio, pool_3x ? "met" : "not met");

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "serving_engine: cannot write %s\n",
                   json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"serving_engine\",\n  \"scale\": %g,\n"
                 "  \"exchanges_per_phase\": %lld,\n  \"rows\": [\n",
                 o.scale, total);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(
          f,
          "    {\"engine\": \"%s\", \"connections\": %zu, "
          "\"checkouts_per_s\": %.0f, \"checkins_per_s\": %.0f, "
          "\"fsyncs\": %lld, \"fsyncs_per_checkin\": %.3f}%s\n",
          mode_name(row.mode), row.conns, row.r.checkouts_per_s,
          row.r.checkins_per_s, row.r.fsyncs,
          static_cast<double>(row.r.fsyncs) /
              static_cast<double>(std::max<std::uint64_t>(row.r.version, 1)),
          ",");
    }
    for (std::size_t i = 0; i < pool_rows.size(); ++i) {
      const PoolRow& row = pool_rows[i];
      std::fprintf(
          f,
          "    {\"engine\": \"multimodel\", \"model_instances\": %zu, "
          "\"connections\": 256, "
          "\"checkouts_per_s\": %.0f, \"checkins_per_s\": %.0f, "
          "\"fsyncs\": %lld, \"fsyncs_per_checkin\": %.3f}%s\n",
          row.k, row.r.checkouts_per_s, row.r.checkins_per_s, row.r.fsyncs,
          static_cast<double>(row.r.fsyncs) /
              static_cast<double>(std::max<std::uint64_t>(row.r.version, 1)),
          i + 1 < pool_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"multimodel_k8_over_k1\": %.2f,\n"
                 "  \"checks\": {\n"
                 "    \"epoll_group_4x_epoll_at_256\": %s,\n"
                 "    \"group_commit_batches_fsyncs\": %s,\n"
                 "    \"multimodel_k8_1_5x_k1_at_256\": %s,\n"
                 "    \"multimodel_k8_3x_k1_at_256\": %s\n  }\n}\n",
                 pool_ratio, speedup_ok ? "true" : "false",
                 fsync_ok ? "true" : "false", pool_ok ? "true" : "false",
                 pool_3x ? "true" : "false");
    std::fclose(f);
    std::printf("(json written: %s)\n", json_out.c_str());
  }
  return 0;
}
