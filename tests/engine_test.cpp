// Serving-engine tests: snapshot board publication, checkin queue
// ordering and shedding, end-to-end crowd learning through the epoll
// engine, connection cap and retry_after admission-control hints,
// group-commit durability, and byte-identical parity with an in-process
// core::ProtocolServer on a deterministic (sequential) workload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/tcp_runtime.hpp"
#include "data/mixture.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "opt/schedule.hpp"
#include "store/durable_store.hpp"

using namespace crowdml;

namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "crowdml_engine_XXXXXX")
            .string();
    if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

core::ServerConfig server_config(std::size_t param_dim, std::size_t classes) {
  core::ServerConfig c;
  c.param_dim = param_dim;
  c.num_classes = classes;
  return c;
}

std::unique_ptr<opt::Updater> sgd(double c = 30.0) {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(c), 500.0);
}

data::Dataset small_dataset(std::size_t train = 900, std::size_t test = 300) {
  rng::Engine data_eng(77);
  data::MixtureSpec spec;
  spec.num_classes = 3;
  spec.raw_dim = 30;
  spec.latent_dim = 12;
  spec.pca_dim = 8;
  spec.separation = 3.5;
  spec.train_size = train;
  spec.test_size = test;
  return data::generate_mixture(spec, data_eng);
}

/// A signed checkin the server accepts (any gradient of the right shape).
net::Bytes checkin_frame(const net::DeviceCredentials& creds,
                         std::size_t dim, std::size_t classes) {
  net::CheckinMessage m;
  m.device_id = creds.device_id;
  m.g_hat.assign(dim, 0.1);
  m.ns = 5;
  m.ny_hat.assign(classes, 1);
  m.auth_tag = creds.sign(m.body());
  return net::encode_frame(net::MessageType::kCheckin, m.serialize());
}

bool ok_ack(const std::optional<net::Bytes>& frame) {
  if (!frame) return false;
  const net::Frame f = net::decode_frame(*frame);
  return f.type == net::MessageType::kAck &&
         net::AckMessage::deserialize(f.payload).ok;
}

template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Holds the group-commit calls that enter it until release().
struct CommitGate {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool open = false;

  void pass() {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  bool wait_entered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return entered >= n; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

/// One client connection whose reply is read on its own thread, so a
/// test can watch whether it has arrived yet.
struct PendingReply {
  net::TcpConnection conn;
  std::atomic<bool> arrived{false};
  std::optional<net::Bytes> reply;
  std::thread reader;

  PendingReply(std::uint16_t port, const net::Bytes& request)
      : conn(*net::TcpConnection::connect("127.0.0.1", port)) {
    conn.set_deadline_ms(10'000);
    EXPECT_TRUE(conn.send_frame(request));
    reader = std::thread([this] {
      reply = conn.recv_frame();
      arrived.store(true);
    });
  }
  std::optional<net::Bytes> get() {
    if (reader.joinable()) reader.join();
    return reply;
  }
  ~PendingReply() {
    if (reader.joinable()) reader.join();
  }
};

}  // namespace

// ---------------------------------------------------------------- board

TEST(SnapshotBoard, PublishedFrameMatchesServerCheckout) {
  core::Server server(server_config(4, 2), sgd(1.0), rng::Engine(1));
  obs::MetricsRegistry reg;
  engine::ModelSnapshotBoard board(&reg);
  board.publish(server);

  const auto snap = board.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_TRUE(snap->accepted);

  // The pre-encoded frame decodes to exactly what handle_checkout says.
  const net::Frame f = net::decode_frame(snap->params_frame);
  ASSERT_EQ(f.type, net::MessageType::kParams);
  const auto msg = net::ParamsMessage::deserialize(f.payload);
  const auto direct = server.handle_checkout(1);
  EXPECT_EQ(msg.version, direct.version);
  EXPECT_EQ(msg.accepted, direct.accepted);
  EXPECT_EQ(msg.w, direct.w);
  EXPECT_EQ(board.publishes(), 1);
}

TEST(SnapshotBoard, RepublishTracksAppliedUpdates) {
  core::Server server(server_config(4, 3), sgd(1.0), rng::Engine(1));
  obs::MetricsRegistry reg;
  engine::ModelSnapshotBoard board(&reg);
  board.publish(server);

  net::CheckinMessage msg;
  msg.device_id = 1;
  msg.g_hat = {0.1, -0.2, 0.3, -0.4};
  msg.ns = 5;
  msg.ne_hat = 1;
  msg.ny_hat = {2, 2, 1};
  ASSERT_TRUE(server.handle_checkin(msg).ok);

  EXPECT_EQ(board.version(), 0u);  // stale until republished
  board.publish(server);
  EXPECT_EQ(board.version(), 1u);
  const auto snap = board.current();
  const auto body = net::ParamsMessage::deserialize(
      net::decode_frame(snap->params_frame).payload);
  EXPECT_EQ(body.w, server.parameters());
  EXPECT_GE(board.age_seconds(), 0.0);
}

TEST(SnapshotBoard, StoppedServerPublishesRefusal) {
  auto cfg = server_config(4, 2);
  cfg.max_iterations = 0;  // stopped before it starts
  core::Server server(cfg, sgd(1.0), rng::Engine(1));
  obs::MetricsRegistry reg;
  engine::ModelSnapshotBoard board(&reg);
  board.publish(server);
  const auto msg = net::ParamsMessage::deserialize(
      net::decode_frame(board.current()->params_frame).payload);
  EXPECT_FALSE(msg.accepted);
  EXPECT_TRUE(msg.w.empty());
}

// ---------------------------------------------------------------- queue

TEST(CheckinQueue, DrainsInArrivalOrder) {
  obs::MetricsRegistry reg;
  engine::CheckinQueue q(16, &reg);
  for (std::uint8_t i = 0; i < 5; ++i) {
    engine::CheckinWork w;
    w.frame = {i};
    EXPECT_TRUE(q.try_push(std::move(w)));
  }
  EXPECT_EQ(q.depth(), 5u);
  std::vector<engine::CheckinWork> batch;
  EXPECT_EQ(q.drain(batch, 16, 0), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(batch[i].frame[0], i);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(CheckinQueue, BoundsBatchSize) {
  obs::MetricsRegistry reg;
  engine::CheckinQueue q(16, &reg);
  for (int i = 0; i < 10; ++i) q.try_push({});
  std::vector<engine::CheckinWork> batch;
  EXPECT_EQ(q.drain(batch, 4, 0), 4u);
  EXPECT_EQ(q.depth(), 6u);
}

TEST(CheckinQueue, ShedsWhenFull) {
  obs::MetricsRegistry reg;
  engine::CheckinQueue q(2, &reg);
  EXPECT_TRUE(q.try_push({}));
  EXPECT_TRUE(q.try_push({}));
  EXPECT_FALSE(q.try_push({}));
  EXPECT_EQ(q.shed(), 1);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(CheckinQueue, CloseDrainsRemainderThenReturnsZero) {
  obs::MetricsRegistry reg;
  engine::CheckinQueue q(8, &reg);
  q.try_push({});
  q.try_push({});
  q.close();
  EXPECT_FALSE(q.try_push({}));  // closed sheds
  std::vector<engine::CheckinWork> batch;
  EXPECT_EQ(q.drain(batch, 8, 0), 2u);  // admitted items still drain
  EXPECT_EQ(q.drain(batch, 8, 0), 0u);
  EXPECT_TRUE(q.closed());
}

TEST(CheckinQueue, DrainTimesOutOnEmptyQueue) {
  obs::MetricsRegistry reg;
  engine::CheckinQueue q(8, &reg);
  std::vector<engine::CheckinWork> batch;
  EXPECT_EQ(q.drain(batch, 8, 10), 0u);
  EXPECT_FALSE(q.closed());
}

// ------------------------------------------------------------ end-to-end

TEST(Engine, CrowdLearnsOverLocalhost) {
  const data::Dataset ds = small_dataset();
  models::MulticlassLogisticRegression model(3, 8, 0.0);
  core::Server server(server_config(model.param_dim(), 3), sgd(),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));

  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.io_threads = 2;  // exercise round-robin across loops
  engine::EpollCrowdServer eng(server, registry, ecfg);
  const std::uint16_t port = eng.port();

  constexpr std::size_t kDevices = 6;
  rng::Engine shard_eng(3);
  const auto shards = data::shard_across_devices(ds.train, kDevices, shard_eng);
  const double initial_error = model.error_rate(server.parameters(), ds.test);

  std::atomic<long long> cycles{0};
  std::vector<std::thread> device_threads;
  for (std::size_t d = 0; d < kDevices; ++d) {
    device_threads.emplace_back([&, d] {
      core::DeviceConfig dc;
      dc.minibatch_size = 5;
      dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
      core::Device dev(dc, model, rng::Engine(100 + d));
      dev.set_credentials(registry.enroll());
      core::TcpDeviceSession session("127.0.0.1", port);
      core::DeviceClient client(dev, session.as_exchange());
      for (int pass = 0; pass < 3; ++pass)
        for (const auto& s : shards[d])
          if (client.offer_sample(s)) ++cycles;
    });
  }
  for (auto& t : device_threads) t.join();

  EXPECT_GT(cycles.load(), 100);
  EXPECT_EQ(server.version(), static_cast<std::uint64_t>(cycles.load()));
  EXPECT_EQ(server.devices_seen(), kDevices);
  EXPECT_EQ(server.rejected_checkins(), 0);
  EXPECT_GT(eng.checkouts_served(), 0);
  EXPECT_EQ(eng.board().version(), server.version());
  EXPECT_EQ(eng.queue().shed(), 0);  // never overloaded here

  const double final_error = model.error_rate(server.parameters(), ds.test);
  EXPECT_LT(final_error, 0.2);
  EXPECT_LT(final_error, initial_error);

  eng.shutdown();
}

TEST(Engine, UnauthenticatedClientRejected) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(0.1),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  engine::EpollCrowdServer eng(server, registry, ecfg);

  core::TcpDeviceSession session("127.0.0.1", eng.port());
  net::CheckoutRequest req;
  req.device_id = 42;  // not enrolled, zero tag
  const auto reply = session.exchange(
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize()));
  ASSERT_TRUE(reply.has_value());
  const net::Frame f = net::decode_frame(*reply);
  ASSERT_EQ(f.type, net::MessageType::kParams);
  EXPECT_FALSE(net::ParamsMessage::deserialize(f.payload).accepted);
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(eng.checkouts_served(), 0);  // refusals take the applier path

  eng.shutdown();
}

TEST(Engine, GarbageBytesDoNotCrashServer) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(0.1),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  engine::EpollCrowdServer eng(server, registry, engine::EngineConfig{});

  core::TcpDeviceSession session("127.0.0.1", eng.port());
  const auto reply = session.exchange(
      net::encode_frame(net::MessageType::kCheckin, {1, 2, 3}));
  ASSERT_TRUE(reply.has_value());
  const net::Frame f = net::decode_frame(*reply);
  EXPECT_EQ(f.type, net::MessageType::kAck);
  EXPECT_FALSE(net::AckMessage::deserialize(f.payload).ok);

  // Server is still alive and serving on the same connection.
  const auto creds = registry.enroll();
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  const auto reply2 = session.exchange(
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize()));
  ASSERT_TRUE(reply2.has_value());
  EXPECT_TRUE(net::ParamsMessage::deserialize(net::decode_frame(*reply2).payload)
                  .accepted);

  eng.shutdown();
}

TEST(Engine, ShutdownIsIdempotentAndUnblocksClients) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(0.1),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  auto eng = std::make_unique<engine::EpollCrowdServer>(
      server, registry, engine::EngineConfig{});
  core::TcpDeviceSession idle("127.0.0.1", eng->port());  // never sends
  eng->shutdown();
  eng->shutdown();  // idempotent
  eng.reset();
  SUCCEED();
}

TEST(Engine, IdleConnectionsAreSwept) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(0.1),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.idle_timeout_ms = 100;
  engine::EpollCrowdServer eng(server, registry, ecfg);

  core::TcpDeviceSession idle("127.0.0.1", eng.port());
  for (int i = 0; i < 100 && eng.net_snapshot().idle_closed == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(eng.net_snapshot().idle_closed, 1);
  EXPECT_EQ(eng.connections(), 0u);
  eng.shutdown();
}

// --------------------------------------------------- admission control

TEST(Engine, CapacityNackCarriesRetryHintAndSessionHonorsIt) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(0.1),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.max_connections = 0;  // every connection refused
  ecfg.capacity_retry_after_ms = 5;
  engine::EpollCrowdServer eng(server, registry, ecfg);

  // Raw exchange: the refusal is a nack with a machine-readable hint.
  {
    core::TcpDeviceSession session("127.0.0.1", eng.port());
    const auto reply = session.exchange(net::encode_frame(
        net::MessageType::kCheckoutRequest, net::CheckoutRequest{}.serialize()));
    ASSERT_TRUE(reply.has_value());
    const net::Frame f = net::decode_frame(*reply);
    ASSERT_EQ(f.type, net::MessageType::kAck);
    const auto nack = net::AckMessage::deserialize(f.payload);
    EXPECT_FALSE(nack.ok);
    const auto hint = net::parse_retry_after(nack.reason);
    ASSERT_TRUE(hint.has_value());
    EXPECT_EQ(*hint, 5);
  }

  // ReconnectingDeviceSession honors the hint instead of guessing.
  core::ReconnectPolicy policy;
  policy.max_attempts = 2;
  policy.io_deadline_ms = 2000;
  core::NetCounters counters;
  core::ReconnectingDeviceSession session("127.0.0.1", eng.port(), policy,
                                          rng::Engine(9), &counters);
  const auto reply = session.exchange(net::encode_frame(
      net::MessageType::kCheckoutRequest, net::CheckoutRequest{}.serialize()));
  EXPECT_FALSE(reply.has_value());  // all attempts refused
  EXPECT_GE(session.retry_after_honored(), 1);
  EXPECT_EQ(counters.retry_after_honored.value(),
            session.retry_after_honored());
  EXPECT_GE(eng.net_snapshot().refused_connections, 2);

  eng.shutdown();
}

// The cap is enforced at the acceptor: a burst of connects accepted
// before any event loop has registered them must not get in past it.
TEST(Engine, ConnectionCapHoldsUnderConnectBurst) {
  models::MulticlassLogisticRegression model(2, 4, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(0.1),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.max_connections = 2;
  engine::EpollCrowdServer eng(server, registry, ecfg);

  const auto creds = registry.enroll();
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  const net::Bytes checkout =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());

  // Eight connects back to back, no traffic until all are open.
  std::vector<std::unique_ptr<core::TcpDeviceSession>> sockets;
  for (int i = 0; i < 8; ++i)
    sockets.push_back(std::make_unique<core::TcpDeviceSession>(
        "127.0.0.1", eng.port(), 5000, 2000));

  int params = 0, capacity_nacks = 0;
  for (auto& socket : sockets) {
    const auto reply = socket->exchange(checkout);
    ASSERT_TRUE(reply.has_value());
    const net::Frame f = net::decode_frame(*reply);
    if (f.type == net::MessageType::kParams) {
      EXPECT_TRUE(net::ParamsMessage::deserialize(f.payload).accepted);
      ++params;
      continue;
    }
    ASSERT_EQ(f.type, net::MessageType::kAck);
    const auto nack = net::AckMessage::deserialize(f.payload);
    EXPECT_FALSE(nack.ok);
    EXPECT_EQ(nack.reason.rfind("server at capacity", 0), 0u) << nack.reason;
    EXPECT_TRUE(net::parse_retry_after(nack.reason).has_value());
    ++capacity_nacks;
  }
  EXPECT_LE(params, 2);
  EXPECT_EQ(params + capacity_nacks, 8);
  EXPECT_EQ(eng.net_snapshot().refused_connections, capacity_nacks);
  eng.shutdown();
}

// ------------------------------------------------------- group commit

TEST(Engine, AckedCheckinsAreDurableAfterRecovery) {
  const data::Dataset ds = small_dataset(300, 100);
  models::MulticlassLogisticRegression model(3, 8, 0.0);
  net::AuthRegistry registry(rng::Engine(2));
  TempDir dir;

  constexpr std::size_t kDevices = 4;
  long long acked = 0;
  std::uint64_t final_version = 0;
  {
    core::Server server(server_config(model.param_dim(), 3), sgd(),
                        rng::Engine(1));
    store::DurableStoreOptions sopts;
    sopts.wal.fsync = store::FsyncPolicy::kAlways;
    store::DurableStore store(dir.path, sopts);
    store.recover(server);
    store.attach(server);
    store.set_group_commit(true);

    obs::MetricsRegistry reg;
    engine::EngineConfig ecfg;
    ecfg.metrics = &reg;
    ecfg.group_commit = [&store] { return store.commit_group(); };
    engine::EpollCrowdServer eng(server, registry, ecfg);

    rng::Engine shard_eng(3);
    const auto shards =
        data::shard_across_devices(ds.train, kDevices, shard_eng);
    std::atomic<long long> cycles{0};
    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < kDevices; ++d) {
      threads.emplace_back([&, d] {
        core::DeviceConfig dc;
        dc.minibatch_size = 5;
        dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
        core::Device dev(dc, model, rng::Engine(100 + d));
        dev.set_credentials(registry.enroll());
        core::TcpDeviceSession session("127.0.0.1", eng.port());
        core::DeviceClient client(dev, session.as_exchange());
        for (const auto& s : shards[d])
          if (client.offer_sample(s)) ++cycles;
      });
    }
    for (auto& t : threads) t.join();
    eng.shutdown();
    acked = cycles.load();
    final_version = server.version();
    ASSERT_GT(acked, 0);
    // Group commit actually grouped: fewer fsyncs than appended records
    // is only guaranteed when batches formed, so assert the weak
    // direction that must always hold.
    EXPECT_LE(store.wal().fsyncs(), store.wal().appended_records());
    // No clean shutdown for the store: destructor only, like a crash
    // after the last commit. fsync=always means every ack is on disk.
  }

  core::Server recovered(server_config(model.param_dim(), 3), sgd(),
                         rng::Engine(42));
  store::DurableStore store(dir.path, {});
  const auto info = store.recover(recovered);
  EXPECT_EQ(recovered.version(), final_version);
  EXPECT_GE(static_cast<long long>(info.recovered_version), acked);
}

TEST(Engine, GroupCommitFailureNacksWholeBatch) {
  models::MulticlassLogisticRegression model(3, 8, 0.0);  // small_dataset's
  core::Server server(server_config(model.param_dim(), 3), sgd(0.1),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  TempDir dir;
  store::DurableStoreOptions sopts;
  sopts.wal.fsync = store::FsyncPolicy::kAlways;
  store::DurableStore store(dir.path, sopts);
  store.recover(server);
  store.attach(server);
  store.set_group_commit(true);

  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.group_commit = [&store] { return store.commit_group(); };
  engine::EpollCrowdServer eng(server, registry, ecfg);

  // Sabotage the log exactly as the store tests do: a foreign high seq
  // makes every later append non-monotonic — a dead disk stand-in.
  store.wal().append(1000, {1, 2, 3});

  core::DeviceConfig dc;
  dc.minibatch_size = 5;
  dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
  core::Device dev(dc, model, rng::Engine(100));
  dev.set_credentials(registry.enroll());
  core::TcpDeviceSession session("127.0.0.1", eng.port());
  core::DeviceClient client(dev, session.as_exchange());

  const data::Dataset ds = small_dataset(60, 20);
  long long acked = 0;
  for (const auto& s : ds.train)
    if (client.offer_sample(s)) ++acked;

  // Updates applied in memory, but no ack ever claimed durability.
  EXPECT_EQ(acked, 0);
  EXPECT_GT(client.cycles_failed(), 0);
  EXPECT_GT(server.version(), 0u);
  EXPECT_GE(eng.commit_failures(), 1);
  EXPECT_GE(store.append_failures(), 1);

  eng.shutdown();
}

// ---------------------------------------------------- pipelined commit

// While the committer holds batch N, the applier goes on applying batch
// N+1: the server's version counts both, but N's ack stays on the server
// and the board still shows the state before N.
TEST(Engine, AckWaitsForItsCommitWhileTheNextBatchApplies) {
  constexpr std::size_t kDim = 24, kClasses = 3;
  core::Server server(server_config(kDim, kClasses), sgd(0.1), rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  const auto a = registry.enroll();
  const auto b = registry.enroll();
  CommitGate gate;
  std::atomic<int> commits{0};
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.group_commit = [&] {
    if (commits.fetch_add(1) == 0) gate.pass();
    return true;
  };
  engine::EpollCrowdServer eng(server, registry, ecfg);

  PendingReply first(eng.port(), checkin_frame(a, kDim, kClasses));
  ASSERT_TRUE(gate.wait_entered(1));  // batch N is committing
  PendingReply second(eng.port(), checkin_frame(b, kDim, kClasses));
  ASSERT_TRUE(eventually([&] { return server.version() == 2; }))
      << "batch N+1 was not applied while N committed";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(first.arrived.load());
  EXPECT_FALSE(second.arrived.load());
  EXPECT_EQ(eng.board().version(), 0u);  // committed state only

  gate.release();
  EXPECT_TRUE(ok_ack(first.get()));
  EXPECT_TRUE(ok_ack(second.get()));
  EXPECT_EQ(commits.load(), 2);
  EXPECT_EQ(eng.board().version(), 2u);

  // The applier sat idle for the committer at least once; the histogram
  // is a timing instrument and says so in its HELP line.
  eng.shutdown();
  const std::string text = reg.render_prometheus();
  const std::size_t help = text.find("# HELP crowdml_engine_commit_wait_seconds");
  ASSERT_NE(help, std::string::npos);
  const std::string help_line = text.substr(help, text.find('\n', help) - help);
  EXPECT_NE(help_line.find(obs::provenance_note(obs::Provenance::kTiming)),
            std::string::npos);
  EXPECT_NE(text.find("crowdml_engine_commit_wait_seconds_count 2"),
            std::string::npos);
}

// A commit of batch N fails while batch N+1 is applied: N alone is
// nacked, N+1 is acked once its own commit succeeds, and the log the
// store wrote (N's records re-queued ahead of N+1's) recovers to exactly
// the live server's state.
TEST(Engine, FailedCommitNacksOnlyItsBatchAndTheLogStaysContiguous) {
  constexpr std::size_t kDim = 24, kClasses = 3;
  TempDir dir;
  core::Server server(server_config(kDim, kClasses), sgd(0.1), rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  const auto a = registry.enroll();
  const auto b = registry.enroll();
  store::DurableStoreOptions sopts;
  sopts.wal.fsync = store::FsyncPolicy::kAlways;
  sopts.wal.segment_max_bytes = 1;  // every record opens its own segment
  store::DurableStore store(dir.path, sopts);
  store.recover(server);
  store.attach(server);
  store.set_group_commit(true);
  // A directory squatting on record 1's segment name: creating that
  // segment fails until it is removed (a transient disk fault).
  const std::string squatter = dir.path + "/wal-00000000000000000001.log";
  std::filesystem::create_directory(squatter);

  std::atomic<int> commits{0};
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.group_commit = [&] {
    if (commits.fetch_add(1) == 0) {
      // Batch N commits once batch N+1 has been applied behind it.
      EXPECT_TRUE(eventually([&] { return server.version() == 2; }));
      const bool ok = store.commit_group();
      std::filesystem::remove(squatter);
      return ok;
    }
    return store.commit_group();
  };
  engine::EpollCrowdServer eng(server, registry, ecfg);

  PendingReply first(eng.port(), checkin_frame(a, kDim, kClasses));
  ASSERT_TRUE(eventually([&] { return commits.load() == 1; }));
  PendingReply second(eng.port(), checkin_frame(b, kDim, kClasses));
  const auto nack = first.get();
  ASSERT_TRUE(nack.has_value());
  const auto nack_msg =
      net::AckMessage::deserialize(net::decode_frame(*nack).payload);
  EXPECT_FALSE(nack_msg.ok);
  EXPECT_EQ(nack_msg.reason, "durability failure");
  EXPECT_TRUE(ok_ack(second.get()));
  eng.shutdown();
  EXPECT_EQ(eng.commit_failures(), 1);
  EXPECT_EQ(store.wal().last_seq(), 2u);

  core::Server recovered(server_config(kDim, kClasses), sgd(0.1),
                         rng::Engine(9));
  store::DurableStore reopened(dir.path, sopts);
  reopened.recover(recovered);
  EXPECT_EQ(recovered.version(), server.version());
  EXPECT_EQ(recovered.parameters(), server.parameters());
  for (const auto& creds : {a, b}) {
    const auto live = server.device_stats(creds.device_id);
    const auto back = recovered.device_stats(creds.device_id);
    EXPECT_EQ(back.samples, live.samples);
    EXPECT_EQ(back.checkins, live.checkins);
    EXPECT_EQ(back.label_counts_hat, live.label_counts_hat);
  }
}

// Shutdown while a commit is in flight: the applier waits for it,
// releases that batch and the one behind it, and only then returns —
// every applied record is committed and acked, none left behind.
TEST(Engine, ShutdownReleasesTheBatchInFlight) {
  constexpr std::size_t kDim = 24, kClasses = 3;
  TempDir dir;
  core::Server server(server_config(kDim, kClasses), sgd(0.1), rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  std::vector<net::DeviceCredentials> creds;
  for (int i = 0; i < 4; ++i) creds.push_back(registry.enroll());
  store::DurableStoreOptions sopts;
  sopts.wal.fsync = store::FsyncPolicy::kAlways;
  store::DurableStore store(dir.path, sopts);
  store.recover(server);
  store.attach(server);
  store.set_group_commit(true);
  // History: records committed before the engine starts.
  for (int i = 0; i < 3; ++i) {
    net::CheckinMessage m;
    m.device_id = 1000 + i;
    m.g_hat.assign(kDim, 0.2);
    m.ns = 5;
    m.ny_hat.assign(kClasses, 1);
    ASSERT_TRUE(server.handle_checkin(m).ok);
  }
  ASSERT_TRUE(store.commit_group());
  const std::uint64_t history = server.version();

  CommitGate gate;
  std::atomic<int> commits{0};
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.group_commit = [&] {
    if (commits.fetch_add(1) == 0) gate.pass();
    return store.commit_group();
  };
  auto eng = std::make_unique<engine::EpollCrowdServer>(server, registry, ecfg);

  std::vector<std::unique_ptr<PendingReply>> replies;
  replies.push_back(std::make_unique<PendingReply>(
      eng->port(), checkin_frame(creds[0], kDim, kClasses)));
  ASSERT_TRUE(gate.wait_entered(1));
  for (std::size_t i = 1; i < creds.size(); ++i)
    replies.push_back(std::make_unique<PendingReply>(
        eng->port(), checkin_frame(creds[i], kDim, kClasses)));
  ASSERT_TRUE(eventually([&] { return server.version() == history + 4; }));

  std::thread stopper([&] { eng->shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();
  stopper.join();

  long long acked = 0;
  for (auto& r : replies) acked += ok_ack(r->get()) ? 1 : 0;
  EXPECT_EQ(acked, 4);
  EXPECT_EQ(static_cast<long long>(server.version() - history), acked);
  EXPECT_EQ(store.wal().last_seq(), server.version());
}

// Pace steering is fed the applier's own work per batch, not the time
// it sat waiting for arrivals or for the committer. With a 50 ms commit
// and checkins arriving throughout it, each batch spans a whole commit
// but takes well under a millisecond to apply, so the service-rate
// estimate stays near batch_max / commit (1280/s). Counting the wait as
// apply time would put it near what one commit's arrivals fill (~80/s).
TEST(Engine, PaceSteeringMeasuresApplyWorkNotCommitWait) {
  constexpr std::size_t kDim = 24, kClasses = 3, kBatchMax = 64;
  constexpr int kClients = 4, kCheckinsEach = 8;
  static constexpr double kCommitSeconds = 0.050;
  core::Server server(server_config(kDim, kClasses), sgd(0.1), rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  obs::MetricsRegistry reg;
  coord::CoordConfig ccfg;
  ccfg.steering.batch_max = kBatchMax;
  ccfg.metrics = &reg;
  coord::Coordinator coordinator(ccfg, coord::DeviceClassTable());
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.coordinator = &coordinator;
  ecfg.checkin_batch_max = kBatchMax;
  ecfg.group_commit = [] {
    std::this_thread::sleep_for(std::chrono::duration<double>(kCommitSeconds));
    return true;
  };
  engine::EpollCrowdServer eng(server, registry, ecfg);

  std::atomic<int> acked{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, creds = registry.enroll()] {
      core::TcpDeviceSession session("127.0.0.1", eng.port());
      for (int i = 0; i < kCheckinsEach; ++i)
        if (ok_ack(session.exchange(checkin_frame(creds, kDim, kClasses))))
          ++acked;
    });
  for (auto& t : clients) t.join();
  eng.shutdown();
  EXPECT_EQ(acked.load(), kClients * kCheckinsEach);
  EXPECT_GT(coordinator.steering().service_rate_per_s(),
            0.5 * static_cast<double>(kBatchMax) / kCommitSeconds);
}

// With no commit hook there is nothing to wait for: every batch is
// released on the applier thread and none goes through a committer.
TEST(Engine, WithoutACommitHookNoBatchWaitsForACommitter) {
  constexpr std::size_t kDim = 24, kClasses = 3;
  core::Server server(server_config(kDim, kClasses), sgd(0.1), rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));
  const auto creds = registry.enroll();
  obs::MetricsRegistry reg;
  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  engine::EpollCrowdServer eng(server, registry, ecfg);
  core::TcpDeviceSession session("127.0.0.1", eng.port());
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(ok_ack(session.exchange(checkin_frame(creds, kDim, kClasses))));
  eng.shutdown();
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("crowdml_engine_batch_size_count 3"), std::string::npos);
  EXPECT_NE(text.find("crowdml_engine_commit_wait_seconds_count 0"),
            std::string::npos);
}

// ----------------------------------------------------------- parity

// The engine answers exactly as core::ProtocolServer would: for one
// connection sending frames in order — honest cycles plus a malformed
// frame, an unauthenticated checkout and a forged checkin — every
// response byte, the final version and the final parameters equal an
// identically seeded server handling the same frames in-process. Board
// checkouts, queued checkins and the applier's batching are all
// invisible on the wire.
TEST(EngineParity, BitIdenticalWithThreadsEngine) {
  const data::Dataset ds = small_dataset(250, 50);
  models::MulticlassLogisticRegression model(3, 8, 0.0);
  net::AuthRegistry registry(rng::Engine(2));
  core::DeviceConfig dc;
  dc.minibatch_size = 5;
  dc.budget = privacy::PrivacyBudget::gradient_dominated(20.0);
  core::Device dev(dc, model, rng::Engine(100));
  dev.set_credentials(registry.enroll());

  net::CheckoutRequest stranger;
  stranger.device_id = 42;  // not enrolled, zero tag
  net::CheckinMessage forged;
  forged.device_id = dev.id();
  forged.g_hat.assign(model.param_dim(), 0.5);
  forged.ns = 5;
  forged.ny_hat.assign(3, 1);  // zero tag: fails authentication
  const std::vector<net::Bytes> hostile = {
      net::encode_frame(net::MessageType::kCheckin, {1, 2, 3}),
      net::encode_frame(net::MessageType::kCheckoutRequest,
                        stranger.serialize()),
      net::encode_frame(net::MessageType::kCheckin, forged.serialize())};

  std::vector<net::Bytes> requests, responses;
  core::Server served(server_config(model.param_dim(), 3), sgd(),
                      rng::Engine(1));
  {
    engine::EpollCrowdServer eng(served, registry, engine::EngineConfig{});
    core::TcpDeviceSession session("127.0.0.1", eng.port());
    const auto exchange = [&](const net::Bytes& request) {
      auto reply = session.exchange(request);
      requests.push_back(request);
      responses.push_back(reply.value_or(net::Bytes{}));
      return reply;
    };
    core::DeviceClient client(dev, exchange);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& s : ds.train) client.offer_sample(s);
      for (const net::Bytes& frame : hostile) exchange(frame);
    }
    eng.shutdown();
  }
  ASSERT_GT(served.version(), 0u);

  core::Server witness(server_config(model.param_dim(), 3), sgd(),
                       rng::Engine(1));
  core::ProtocolServer protocol(witness, registry, nullptr);
  for (std::size_t i = 0; i < requests.size(); ++i)
    ASSERT_EQ(protocol.handle(requests[i]), responses[i]) << "frame " << i;
  EXPECT_EQ(witness.version(), served.version());
  EXPECT_EQ(witness.parameters(), served.parameters());
}

// ----------------------------------------------------- retry_after codec

TEST(RetryAfterHint, ReasonRoundTrip) {
  const std::string reason = net::retry_after_reason("server at capacity", 250);
  EXPECT_EQ(reason, "server at capacity; retry_after_ms=250");
  const auto hint = net::parse_retry_after(reason);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, 250);
}

TEST(RetryAfterHint, ParseRejectsMissingOrMalformed) {
  EXPECT_FALSE(net::parse_retry_after("server at capacity"));
  EXPECT_FALSE(net::parse_retry_after(""));
  EXPECT_FALSE(net::parse_retry_after("retry_after_ms="));
  EXPECT_FALSE(net::parse_retry_after("retry_after_ms=abc"));
  // An hour-plus hint is garbage, not a hint to obey.
  EXPECT_FALSE(net::parse_retry_after("x; retry_after_ms=999999999"));
}
