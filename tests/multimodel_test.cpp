// Draw-and-discard multi-model pool tests, served through the engine's
// lanes (one per instance): k=1 bit-parity with the single-applier engine
// path (state, WAL bytes, cross-recovery), per-instance crash-recovery
// determinism (recovered pool byte-equal to a never-crashed witness,
// overwrite replay included), seeded draw / route / discard distribution
// sanity, and per-instance pace steering.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "coord/coordinator.hpp"
#include "core/protocol.hpp"
#include "core/server.hpp"
#include "engine/epoll_server.hpp"
#include "multimodel/instance_pool.hpp"
#include "net/auth.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "opt/schedule.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;

namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_mm_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

constexpr std::size_t kDim = 8;
constexpr std::size_t kClasses = 2;

core::ServerConfig server_config() {
  core::ServerConfig c;
  c.param_dim = kDim;
  c.num_classes = kClasses;
  return c;
}

std::unique_ptr<opt::Updater> sgd() {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(10.0), 500.0);
}

/// Per-instance server factory all pools in this file share: identical
/// config, identical updater, rng split by instance — two pools built
/// from it are byte-comparable instance by instance.
std::function<std::unique_ptr<core::Server>(std::size_t)> factory() {
  return [](std::size_t i) {
    return std::make_unique<core::Server>(server_config(), sgd(),
                                          rng::Engine(7).split(i));
  };
}

/// A pool of `instances` model instances composed as a node composes one:
/// servers from factory(), each recovered from its own WAL namespace
/// under `wal_dir` ("" = no durability) with group commit, its discard
/// step when k > 1, an optional coordinator each, and one engine lane per
/// instance.
class Pool {
 public:
  Pool(net::AuthRegistry& auth, std::size_t instances, std::uint64_t seed,
       const std::string& wal_dir = "", bool steering = false) {
    std::vector<engine::LaneConfig> lanes;
    for (std::size_t i = 0; i < instances; ++i) {
      servers_.push_back(factory()(i));
      store::DurableStore* store = nullptr;
      if (!wal_dir.empty()) {
        store::DurableStoreOptions sopts;
        multimodel::install_overwrite_replay(sopts);
        stores_.push_back(std::make_unique<store::DurableStore>(
            store::DurableStore::instance_dir(wal_dir, i, instances), sopts));
        store = stores_.back().get();
        store->recover(*servers_.back());
        store->attach(*servers_.back());
        store->set_group_commit(true);
      }
      coordinators_.push_back(
          steering ? std::make_unique<coord::Coordinator>(
                         coord::CoordConfig{}, coord::DeviceClassTable{})
                   : nullptr);
      if (instances > 1)
        discards_.push_back(std::make_unique<multimodel::DiscardRecords>(
            i, instances, seed, *servers_.back(), store, &metrics_));
      lanes.push_back(
          {.server = *servers_.back(),
           .group_commit =
               store ? std::function<bool()>([store] {
                 return store->commit_group();
               })
                     : nullptr,
           .coordinator = coordinators_.back().get(),
           .records = instances > 1 ? discards_.back().get() : nullptr});
    }
    engine::EngineConfig ecfg;
    ecfg.metrics = &metrics_;
    engine_ = std::make_unique<engine::EpollCrowdServer>(
        std::move(lanes), auth, ecfg, seed);
  }

  /// Drain every lane (every admitted request answers) and sync the
  /// stores. Idempotent.
  void shutdown() {
    engine_->shutdown();
    for (auto& store : stores_) store->sync();
  }

  const engine::EpollCrowdServer& engine() const { return *engine_; }
  std::size_t instances() const { return servers_.size(); }
  const core::Server& server(std::size_t i) const { return *servers_[i]; }
  coord::Coordinator* coordinator(std::size_t i) {
    return coordinators_[i].get();
  }
  std::vector<long long> draw_counts() const { return engine_->draw_counts(); }
  std::vector<long long> route_counts() const {
    return engine_->route_counts();
  }
  /// Victims drawn pool-wide, by victim instance.
  std::vector<long long> discard_counts() const {
    std::vector<long long> out(servers_.size(), 0);
    for (const auto& d : discards_) {
      const std::vector<long long> counts = d->discard_counts();
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += counts[i];
    }
    return out;
  }
  long long overwrites_applied() const {
    return discards_.empty() ? 0 : discards_[0]->overwrites_applied();
  }

 private:
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<core::Server>> servers_;
  std::vector<std::unique_ptr<store::DurableStore>> stores_;
  std::vector<std::unique_ptr<coord::Coordinator>> coordinators_;
  std::vector<std::unique_ptr<multimodel::DiscardRecords>> discards_;
  std::unique_ptr<engine::EpollCrowdServer> engine_;  // last: stops first
};

/// A signed checkin frame from an enrolled device; deterministic given
/// the rng stream.
net::Bytes make_checkin(const net::DeviceCredentials& creds,
                        rng::Engine& eng) {
  net::CheckinMessage m;
  m.device_id = creds.device_id;
  m.g_hat.reserve(kDim);
  for (std::size_t i = 0; i < kDim; ++i)
    m.g_hat.push_back(static_cast<double>(eng() % 2001) / 1000.0 - 1.0);
  m.ns = 10;
  m.ne_hat = static_cast<std::int64_t>(eng() % 3);
  for (std::size_t i = 0; i < kClasses; ++i)
    m.ny_hat.push_back(static_cast<std::int64_t>(eng() % 5));
  m.auth_tag = creds.sign(m.body());
  return net::encode_frame(net::MessageType::kCheckin, m.serialize());
}

bool is_ok_ack(const net::Bytes& response) {
  try {
    const net::Frame f = net::decode_frame(response);
    return f.type == net::MessageType::kAck &&
           net::AckMessage::deserialize(f.payload).ok;
  } catch (const net::CodecError&) {
    return false;
  }
}

/// Send every frame through the engine's port on one connection, in
/// order, and collect one response per frame (in arrival order; at k > 1
/// lanes answer independently). Frames go out in windows, so a window's
/// responses never wait on a sender blocked behind them.
std::vector<net::Bytes> send_all(const Pool& pool,
                                 const std::vector<net::Bytes>& frames) {
  constexpr std::size_t kWindow = 64;
  std::vector<net::Bytes> responses;
  auto conn =
      net::TcpConnection::connect("127.0.0.1", pool.engine().port(), 2000);
  EXPECT_TRUE(conn);
  if (!conn) return responses;
  conn->set_deadline_ms(20'000);
  for (std::size_t sent = 0; sent < frames.size(); sent += kWindow) {
    const std::size_t n = std::min(kWindow, frames.size() - sent);
    for (std::size_t i = sent; i < sent + n; ++i)
      if (!conn->send_frame(frames[i])) return responses;
    for (std::size_t i = 0; i < n; ++i) {
      auto reply = conn->recv_frame();
      if (!reply) return responses;
      responses.push_back(std::move(*reply));
    }
  }
  return responses;
}

/// Send every frame and wait until all are answered. Returns the number
/// of ok acks. The bounded queues only shed under real overload; tests
/// feed well under the bound, so a shed nack fails the caller's count.
int feed_checkins(const Pool& pool, const std::vector<net::Bytes>& frames) {
  const std::vector<net::Bytes> responses = send_all(pool, frames);
  EXPECT_EQ(responses.size(), frames.size());
  return static_cast<int>(
      std::count_if(responses.begin(), responses.end(), is_ok_ack));
}

/// `n` authenticated checkouts: each one is a draw at k > 1.
void draw_checkouts(const Pool& pool, net::AuthRegistry& auth, int n) {
  const net::DeviceCredentials creds = auth.enroll();
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  const std::vector<net::Bytes> frames(
      static_cast<std::size_t>(n),
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize()));
  for (const net::Bytes& response : send_all(pool, frames)) {
    const net::Frame f = net::decode_frame(response);
    ASSERT_EQ(f.type, net::MessageType::kParams);
    ASSERT_TRUE(net::ParamsMessage::deserialize(f.payload).accepted);
  }
}

std::vector<char> slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// All WAL segments in `dir`, sorted by name.
std::vector<std::filesystem::path> wal_segments(const std::string& dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

// ------------------------------------------------------- k=1 bit parity

TEST(MultiModel, KOneBitIdenticalToSingleApplierPath) {
  TempDir pool_dir, witness_dir;
  net::AuthRegistry auth(rng::Engine(2));

  // One set of signed frames feeds both paths.
  std::vector<net::Bytes> frames;
  rng::Engine eng(42);
  for (int i = 0; i < 40; ++i) frames.push_back(make_checkin(auth.enroll(), eng));

  // Witness: the PR 4 engine path — one server, one attached store, the
  // protocol dispatcher applying in order.
  core::Server witness(server_config(), sgd(), rng::Engine(7).split(0));
  {
    store::DurableStore wstore(witness_dir.path, {});
    wstore.recover(witness);
    wstore.attach(witness);
    core::ProtocolServer protocol(witness, auth, nullptr);
    for (const net::Bytes& frame : frames)
      ASSERT_TRUE(is_ok_ack(protocol.handle(frame)));
    wstore.sync();
  }

  // Pool with k = 1 over the same frames.
  {
    Pool pool(auth, 1, 1, pool_dir.path);
    EXPECT_EQ(feed_checkins(pool, frames), 40);
    pool.shutdown();

    EXPECT_EQ(pool.server(0).version(), witness.version());
    EXPECT_EQ(pool.server(0).parameters(), witness.parameters());
    // k = 1 never draws a non-self discard victim, so no overwrite is
    // ever enqueued or logged.
    EXPECT_EQ(pool.overwrites_applied(), 0);
  }

  // The WAL namespace is the base directory itself (instance_dir with
  // k = 1), and its bytes are identical to the single-applier WAL.
  EXPECT_EQ(store::DurableStore::instance_dir(pool_dir.path, 0, 1),
            pool_dir.path);
  const auto pool_segs = wal_segments(pool_dir.path);
  const auto witness_segs = wal_segments(witness_dir.path);
  ASSERT_FALSE(pool_segs.empty());
  ASSERT_EQ(pool_segs.size(), witness_segs.size());
  for (std::size_t i = 0; i < pool_segs.size(); ++i) {
    EXPECT_EQ(pool_segs[i].filename(), witness_segs[i].filename());
    EXPECT_EQ(slurp(pool_segs[i]), slurp(witness_segs[i]))
        << "segment " << pool_segs[i].filename();
  }

  // Cross-recovery: a plain single-model store (no opaque handler)
  // recovers the pool's k = 1 directory byte-for-byte.
  core::Server recovered(server_config(), sgd(), rng::Engine(7).split(0));
  store::DurableStore rstore(pool_dir.path, {});
  rstore.recover(recovered);
  EXPECT_EQ(recovered.version(), witness.version());
  EXPECT_EQ(recovered.parameters(), witness.parameters());
}

// ------------------------------------------- per-instance recovery

TEST(MultiModel, RecoveryBitReproduciblePerInstance) {
  TempDir dir;
  net::AuthRegistry auth(rng::Engine(2));
  std::vector<net::Bytes> frames;
  rng::Engine eng(43);
  for (int i = 0; i < 60; ++i) frames.push_back(make_checkin(auth.enroll(), eng));

  std::vector<std::uint64_t> versions;
  std::vector<linalg::Vector> params;
  long long overwrites = 0;
  {
    Pool pool(auth, 3, 9, dir.path);
    EXPECT_EQ(feed_checkins(pool, frames), 60);
    pool.shutdown();
    overwrites = pool.overwrites_applied();
    for (std::size_t i = 0; i < 3; ++i) {
      versions.push_back(pool.server(i).version());
      params.push_back(pool.server(i).parameters());
    }
  }
  // With 3 instances and 60 updates, cross-instance discards are all but
  // certain — the recovery below replays overwrite records, not just
  // checkins.
  EXPECT_GT(overwrites, 0);

  // A second pool over the same directory replays each instance's WAL
  // (checkins and overwrites, in apply order) to byte-equal state.
  Pool recovered(auth, 3, 9, dir.path);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(recovered.server(i).version(), versions[i]) << "instance " << i;
    EXPECT_EQ(recovered.server(i).parameters(), params[i])
        << "instance " << i;
  }
}

// ------------------------------------------------ draw distributions

TEST(InstancePool, DrawRouteAndDiscardRoughlyUniform) {
  net::AuthRegistry auth(rng::Engine(2));
  Pool pool(auth, 4, 1234);

  // Checkout draws: 4000 over 4 instances, mean 1000, sd ~27. A 700-1300
  // band is >10 sigma — flake-proof, but a stuck or biased stream fails.
  draw_checkouts(pool, auth, 4000);
  for (long long c : pool.draw_counts()) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }

  // Checkin routing + discard victim draws: 400 applied updates, mean
  // 100 per instance, sd ~9; the discard stream draws exactly one victim
  // per applied update.
  std::vector<net::Bytes> frames;
  rng::Engine eng(44);
  for (int i = 0; i < 400; ++i) frames.push_back(make_checkin(auth.enroll(), eng));
  EXPECT_EQ(feed_checkins(pool, frames), 400);
  pool.shutdown();

  long long route_total = 0, discard_total = 0;
  for (long long c : pool.route_counts()) {
    route_total += c;
    EXPECT_GT(c, 55);
    EXPECT_LT(c, 145);
  }
  for (long long c : pool.discard_counts()) {
    discard_total += c;
    EXPECT_GT(c, 55);
    EXPECT_LT(c, 145);
  }
  EXPECT_EQ(route_total, 400);
  EXPECT_EQ(discard_total, 400);
}

TEST(InstancePool, DrawStreamDeterministicGivenSeed) {
  net::AuthRegistry auth(rng::Engine(2));

  std::vector<long long> first;
  for (int round = 0; round < 2; ++round) {
    Pool pool(auth, 4, 77);
    draw_checkouts(pool, auth, 1000);
    if (round == 0)
      first = pool.draw_counts();
    else
      EXPECT_EQ(pool.draw_counts(), first);
  }
}

// ---------------------------------------- per-instance pace steering

TEST(InstancePool, PerInstanceCoordinatorsStampCheckinHints) {
  net::AuthRegistry auth(rng::Engine(2));
  Pool pool(auth, 3, 9, "", /*steering=*/true);
  for (std::size_t i = 0; i < pool.instances(); ++i)
    ASSERT_NE(pool.coordinator(i), nullptr);

  // Each applier stamps its own clock's consuming hint on the acks it
  // produced — every ok ack must carry next_checkin_hint_ms > 0.
  constexpr int kFrames = 30;
  std::vector<net::Bytes> frames;
  rng::Engine eng(91);
  for (int i = 0; i < kFrames; ++i)
    frames.push_back(make_checkin(auth.enroll(), eng));
  const std::vector<net::Bytes> responses = send_all(pool, frames);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kFrames));
  pool.shutdown();

  for (const net::Bytes& response : responses) {
    const net::Frame f = net::decode_frame(response);
    ASSERT_EQ(f.type, net::MessageType::kAck);
    const net::AckMessage ack = net::AckMessage::deserialize(f.payload);
    EXPECT_TRUE(ack.ok) << ack.reason;
    EXPECT_GT(ack.next_checkin_hint_ms, 0u);
  }
}

TEST(InstancePool, NoCoordinatorFactoryLeavesAckBytesHintFree) {
  net::AuthRegistry auth(rng::Engine(2));
  Pool pool(auth, 3, 9);
  for (std::size_t i = 0; i < pool.instances(); ++i)
    EXPECT_EQ(pool.coordinator(i), nullptr);

  std::vector<net::Bytes> frames;
  rng::Engine eng(91);
  for (int i = 0; i < 10; ++i) frames.push_back(make_checkin(auth.enroll(), eng));
  const std::vector<net::Bytes> responses = send_all(pool, frames);
  ASSERT_EQ(responses.size(), 10u);
  pool.shutdown();

  // Steering off must not perturb the wire: the ack payload ends at the
  // error string and the optional hint field decodes as absent.
  for (const net::Bytes& response : responses) {
    const net::Frame f = net::decode_frame(response);
    ASSERT_EQ(f.type, net::MessageType::kAck);
    const net::AckMessage ack = net::AckMessage::deserialize(f.payload);
    EXPECT_TRUE(ack.ok) << ack.reason;
    EXPECT_EQ(ack.next_checkin_hint_ms, 0u);
    EXPECT_EQ(response,
              net::encode_frame(net::MessageType::kAck, ack.serialize()));
  }
}
