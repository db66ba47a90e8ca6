// Serving-engine tests: snapshot board publication, checkin queue
// ordering and shedding, end-to-end crowd learning through the epoll
// engine, connection cap and retry_after admission-control hints,
// group-commit durability, and byte-identical parity with an in-process
// core::ProtocolServer on a deterministic (sequential) workload.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
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
