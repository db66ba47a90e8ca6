// Coordinator-tier tests (src/coord/): the version-tolerant hint codec,
// device-class tables, the pace-steering policy, hints on the wire
// through the epoll engine, the steering-disabled passthrough guarantee
// (ack/params bytes bit-identical to the pre-coordinator path), the
// device session's no-budget hint handling, and an open-loop load-gen
// smoke run with steering on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "coord/coordinator.hpp"
#include "coord/device_class.hpp"
#include "coord/load_gen.hpp"
#include "coord/steering.hpp"
#include "core/protocol.hpp"
#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "models/logistic_regression.hpp"
#include "net/codec.hpp"
#include "net/messages.hpp"
#include "opt/schedule.hpp"

using namespace crowdml;

namespace {

core::ServerConfig server_config(std::size_t param_dim, std::size_t classes) {
  core::ServerConfig c;
  c.param_dim = param_dim;
  c.num_classes = classes;
  return c;
}

std::unique_ptr<opt::Updater> sgd(double c = 1.0) {
  return std::make_unique<opt::SgdUpdater>(
      std::make_unique<opt::SqrtDecaySchedule>(c), 500.0);
}

/// A well-formed signed checkin for a 4-dim / 2-class server.
net::Bytes signed_checkin_frame(const net::DeviceCredentials& creds,
                                std::uint8_t device_class = 0) {
  net::CheckinMessage m;
  m.device_id = creds.device_id;
  m.param_version = 0;
  m.g_hat = {0.1, -0.2, 0.3, -0.4};
  m.ns = 5;
  m.ne_hat = 1;
  m.ny_hat = {3, 2};
  m.device_class = device_class;
  m.auth_tag = creds.sign(m.body());
  return net::encode_frame(net::MessageType::kCheckin, m.serialize());
}

net::Bytes checkout_frame(const net::DeviceCredentials& creds,
                          std::uint8_t device_class = 0) {
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.device_class = device_class;
  req.auth_tag = creds.sign(req.body());
  return net::encode_frame(net::MessageType::kCheckoutRequest,
                           req.serialize());
}

}  // namespace

// ----------------------------------------------------------- hint codec

TEST(CoordHint, AckHintRoundTrip) {
  net::AckMessage ack;
  ack.ok = true;
  ack.reason = "applied";
  ack.next_checkin_hint_ms = 1234;
  const auto back = net::AckMessage::deserialize(ack.serialize());
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.reason, "applied");
  EXPECT_EQ(back.next_checkin_hint_ms, 1234u);
}

TEST(CoordHint, ParamsHintRoundTrip) {
  net::ParamsMessage p;
  p.version = 7;
  p.w = {1.0, 2.0};
  p.next_checkin_hint_ms = 99;
  const auto back = net::ParamsMessage::deserialize(p.serialize());
  EXPECT_EQ(back.version, 7u);
  EXPECT_EQ(back.w, p.w);
  EXPECT_EQ(back.next_checkin_hint_ms, 99u);
}

// The version-tolerance contract: hint 0 is *omitted*, so a hint-free
// message is byte-identical to the pre-coordinator encoding — which is
// exactly what an old-format payload is. Decoding it yields hint 0.
TEST(CoordHint, HintZeroIsOmittedAndOldFormatDecodes) {
  net::AckMessage ack;
  ack.ok = true;
  ack.reason = "applied";
  const net::Bytes legacy = ack.serialize();
  ack.next_checkin_hint_ms = 50;
  const net::Bytes hinted = ack.serialize();
  EXPECT_EQ(hinted.size(), legacy.size() + sizeof(std::uint32_t));
  // The hinted payload is the legacy payload plus the trailing field.
  EXPECT_TRUE(std::equal(legacy.begin(), legacy.end(), hinted.begin()));
  EXPECT_EQ(net::AckMessage::deserialize(legacy).next_checkin_hint_ms, 0u);

  net::ParamsMessage p;
  p.version = 3;
  p.w = {0.5};
  const net::Bytes plegacy = p.serialize();
  p.next_checkin_hint_ms = 50;
  EXPECT_EQ(p.serialize().size(), plegacy.size() + sizeof(std::uint32_t));
  EXPECT_EQ(net::ParamsMessage::deserialize(plegacy).next_checkin_hint_ms,
            0u);
}

// frame_with_checkin_hint splices the hint into a pre-encoded frame; the
// result must be exactly what re-serializing the decoded message with the
// hint set would have produced.
TEST(CoordHint, FrameSpliceMatchesReserialization) {
  net::AckMessage ack;
  ack.ok = true;
  ack.reason = "applied; durable";
  const net::Bytes frame =
      net::encode_frame(net::MessageType::kAck, ack.serialize());
  ack.next_checkin_hint_ms = 777;
  const net::Bytes expect =
      net::encode_frame(net::MessageType::kAck, ack.serialize());
  EXPECT_EQ(net::frame_with_checkin_hint(frame, 777), expect);

  net::ParamsMessage p;
  p.version = 9;
  p.accepted = true;
  p.w = {1.0, -2.5, 3.25};
  const net::Bytes pframe =
      net::encode_frame(net::MessageType::kParams, p.serialize());
  p.next_checkin_hint_ms = 31;
  const net::Bytes pexpect =
      net::encode_frame(net::MessageType::kParams, p.serialize());
  EXPECT_EQ(net::frame_with_checkin_hint(pframe, 31), pexpect);
}

TEST(CoordHint, FrameSpliceHintZeroReturnsFrameUnchanged) {
  net::AckMessage ack;
  ack.ok = true;
  const net::Bytes frame =
      net::encode_frame(net::MessageType::kAck, ack.serialize());
  EXPECT_EQ(net::frame_with_checkin_hint(frame, 0), frame);
}

TEST(CoordHint, DeviceClassRidesCheckoutAndCheckin) {
  net::CheckoutRequest req;
  req.device_id = 42;
  req.device_class = 3;
  const auto rback = net::CheckoutRequest::deserialize(req.serialize());
  EXPECT_EQ(rback.device_class, 3);

  net::CheckinMessage m;
  m.device_id = 42;
  m.g_hat = {0.0};
  m.ns = 1;
  m.ny_hat = {0, 0};
  m.device_class = 2;
  const auto mback = net::CheckinMessage::deserialize(m.serialize());
  EXPECT_EQ(mback.device_class, 2);

  // Class 0 is never encoded: the default-class frame is byte-identical
  // to the pre-device-class format.
  req.device_class = 0;
  net::CheckoutRequest legacy_req;
  legacy_req.device_id = 42;
  EXPECT_EQ(req.serialize(), legacy_req.serialize());
}

// An explicit 0 class byte is malformed — the body a tag was computed
// over must never be ambiguous between the two encodings.
TEST(CoordHint, ExplicitDefaultClassRejected) {
  net::Writer w;
  w.put_u64(42);                                      // device_id
  w.put_u8(0);                                        // explicit class 0
  for (std::size_t i = 0; i < sizeof(net::Digest); ++i) w.put_u8(0);
  EXPECT_THROW(net::CheckoutRequest::deserialize(w.take()),
               net::CodecError);
}

// ---------------------------------------------------------- class table

TEST(CoordClassTable, DefaultTableHasOnlyDefaultClass) {
  coord::DeviceClassTable t;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.at(0).name, "default");
  EXPECT_DOUBLE_EQ(t.share(0), 1.0);
  EXPECT_EQ(t.describe(), "default:1");
}

TEST(CoordClassTable, ParseSharesRanksAndClamp) {
  std::string err;
  const auto t = coord::DeviceClassTable::parse("fast:4,slow:2,flaky:1", &err);
  ASSERT_TRUE(t.has_value()) << err;
  ASSERT_EQ(t->size(), 4u);  // + implicit default
  EXPECT_EQ(t->at(1).name, "fast");
  EXPECT_EQ(t->at(3).name, "flaky");
  // Weights normalize over the whole table, default (weight 1) included.
  EXPECT_NEAR(t->share(1), 4.0 / 8.0, 1e-12);
  EXPECT_NEAR(t->share(0), 1.0 / 8.0, 1e-12);
  // First listed = highest priority; default ranks below every declared.
  EXPECT_EQ(t->rank(1), 0u);
  EXPECT_LT(t->rank(3), t->rank(0));
  // Unknown wire ids collapse to default rather than faulting.
  EXPECT_EQ(t->clamp(200), 0);
  EXPECT_EQ(t->at(200).name, "default");
}

TEST(CoordClassTable, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "fast",            // no weight
      "fast:",           // empty weight
      "fast:0",          // zero weight
      "fast:-2",         // negative weight
      "fast:abc",        // non-numeric weight
      "fast:nan",        // non-finite weight
      ":3",              // empty name
      "fa st:1",         // bad name chars
      "default:2",       // reserved name
      "a:1,a:2",         // duplicate name
      "a:1,,b:2",        // empty entry
      "a:1,",            // trailing comma
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(coord::DeviceClassTable::parse(spec, &err).has_value())
        << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

TEST(CoordClassTable, ParseRejectsTooManyClasses) {
  std::string spec;
  for (std::size_t i = 0; i <= coord::kMaxDeviceClasses; ++i) {
    if (!spec.empty()) spec += ',';
    spec += "c" + std::to_string(i) + ":1";
  }
  std::string err;
  EXPECT_FALSE(coord::DeviceClassTable::parse(spec, &err).has_value());
}

// ------------------------------------------------------------- steering

namespace {

coord::SteeringConfig steering_config() {
  coord::SteeringConfig cfg;
  cfg.target_utilization = 1.0;
  cfg.init_rate_per_s = 100.0;  // 10ms pacing interval before measurement
  cfg.min_hint_ms = 1;
  cfg.max_hint_ms = 60'000;
  cfg.queue_max = 100;
  cfg.batch_max = 64;
  return cfg;
}

}  // namespace

TEST(CoordSteering, InitRateGovernsUntilFirstCommit) {
  coord::PaceSteering s(steering_config(), coord::DeviceClassTable());
  EXPECT_DOUBLE_EQ(s.service_rate_per_s(), 0.0);
  EXPECT_NEAR(s.target_rate_per_s(), 100.0, 1e-9);
}

// Capacity is projected from per-record apply cost and per-batch commit
// latency — NOT achieved throughput. A starved batch (1 record) must
// yield the same capacity estimate as a full one with the same costs.
TEST(CoordSteering, CapacityProjectionIgnoresBatchFill) {
  auto cfg = steering_config();
  coord::PaceSteering full(cfg, coord::DeviceClassTable());
  coord::PaceSteering starved(cfg, coord::DeviceClassTable());
  // 1ms/record apply, 10ms commit, applied while the previous batch
  // commits => 64 / max(64*0.001, 0.010) = 1000/s.
  full.observe_commit(64, 0.064, 0.010);
  starved.observe_commit(1, 0.001, 0.010);
  const double expect = 64.0 / std::max(64.0 * 0.001, 0.010);
  EXPECT_NEAR(full.service_rate_per_s(), expect, 1.0);
  EXPECT_NEAR(starved.service_rate_per_s(), expect, 1.0);
}

TEST(CoordSteering, ConsumingHintsReserveSpacedSlots) {
  coord::PaceSteering s(steering_config(), coord::DeviceClassTable());
  // 100/s => consecutive slots 10ms apart. The first few hints climb the
  // virtual clock; the Nth is ~N*10ms out (minus elapsed wall time).
  std::uint32_t last = 0;
  for (int i = 0; i < 10; ++i) last = s.next_hint_ms(0);
  EXPECT_GE(last, 50u);   // well past the min clamp: slots accumulated
  EXPECT_LE(last, 200u);  // and nowhere near runaway
}

TEST(CoordSteering, PeekDoesNotConsumeSlots) {
  coord::PaceSteering s(steering_config(), coord::DeviceClassTable());
  const std::uint32_t a = s.peek_hint_ms(0);
  const std::uint32_t b = s.peek_hint_ms(0);
  EXPECT_EQ(a, b);  // advisory: the interval, not a reserved slot
  EXPECT_NEAR(static_cast<double>(a), 10.0, 2.0);
}

TEST(CoordSteering, ClassSharesSplitTheRate) {
  std::string err;
  const auto table = coord::DeviceClassTable::parse("fast:3,slow:1", &err);
  ASSERT_TRUE(table.has_value()) << err;
  coord::PaceSteering s(steering_config(), *table);
  // shares: fast 3/5, slow 1/5 => intervals 1/(100*0.6) vs 1/(100*0.2).
  EXPECT_NEAR(static_cast<double>(s.peek_hint_ms(1)), 1000.0 / 60.0, 3.0);
  EXPECT_NEAR(static_cast<double>(s.peek_hint_ms(2)), 1000.0 / 20.0, 5.0);
}

TEST(CoordSteering, OverloadThrottlesAndStretchesLowPriority) {
  std::string err;
  const auto table = coord::DeviceClassTable::parse("fast:1,slow:1", &err);
  ASSERT_TRUE(table.has_value()) << err;
  auto cfg = steering_config();
  coord::PaceSteering s(cfg, *table);
  EXPECT_DOUBLE_EQ(s.pressure(), 0.0);
  s.observe_depth(cfg.queue_max);  // fill 1.0
  EXPECT_DOUBLE_EQ(s.pressure(), 1.0);
  // Same weight => same share; under pressure the lower-priority class's
  // interval is stretched strictly harder.
  EXPECT_GT(s.peek_hint_ms(2), s.peek_hint_ms(1));
  // And the throttle trims the global rate (mildly — the floor is 0.5).
  EXPECT_NEAR(s.target_rate_per_s(), 100.0 * cfg.throttle_floor, 1e-6);
}

TEST(CoordSteering, SaturatedQueueFloorsHintsAtDrainHorizon) {
  auto cfg = steering_config();
  coord::PaceSteering s(cfg, coord::DeviceClassTable());
  // service ~111/s measured, 100-deep backlog => ~0.9s to drain.
  s.observe_commit(64, 0.576, 0.064);  // 64/max(64*0.009, 0.064) ~= 111/s
  s.observe_depth(cfg.queue_max);
  EXPECT_GE(s.next_hint_ms(0), 800u);
}

TEST(CoordSteering, HintsClampToConfiguredBounds) {
  auto cfg = steering_config();
  cfg.min_hint_ms = 20;
  cfg.max_hint_ms = 50;
  coord::PaceSteering s(cfg, coord::DeviceClassTable());
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t h = s.next_hint_ms(0);
    EXPECT_GE(h, 20u);
    EXPECT_LE(h, 50u);
  }
}

// ------------------------------------------------- hints on the wire

TEST(CoordEngine, HintsRideCheckoutAndCheckinFrames) {
  models::MulticlassLogisticRegression model(2, 2, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));

  coord::CoordConfig ccfg;
  ccfg.steering.init_rate_per_s = 50.0;  // 20ms interval: clearly nonzero
  obs::MetricsRegistry reg;
  ccfg.metrics = &reg;
  coord::Coordinator coordinator(ccfg, coord::DeviceClassTable());

  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.coordinator = &coordinator;
  engine::EpollCrowdServer eng(server, registry, ecfg);

  const auto creds = registry.enroll();
  core::TcpDeviceSession session("127.0.0.1", eng.port());

  const auto params_reply = session.exchange(checkout_frame(creds));
  ASSERT_TRUE(params_reply.has_value());
  const auto params = net::ParamsMessage::deserialize(
      net::decode_frame(*params_reply).payload);
  ASSERT_TRUE(params.accepted);
  EXPECT_GT(params.next_checkin_hint_ms, 0u);

  const auto ack_reply = session.exchange(signed_checkin_frame(creds));
  ASSERT_TRUE(ack_reply.has_value());
  const auto ack =
      net::AckMessage::deserialize(net::decode_frame(*ack_reply).payload);
  ASSERT_TRUE(ack.ok) << ack.reason;
  EXPECT_GT(ack.next_checkin_hint_ms, 0u);

  eng.shutdown();
}

// The passthrough regression: with no coordinator attached, every reply
// byte the engine produces must be bit-identical to what a bare
// ProtocolServer would have answered — a steering-disabled deployment is
// indistinguishable on the wire from the pre-coordinator build.
TEST(CoordEngine, SteeringDisabledRepliesAreByteIdenticalToProtocol) {
  models::MulticlassLogisticRegression model(2, 2, 0.0);
  net::AuthRegistry registry(rng::Engine(2));

  core::Server engine_srv(server_config(model.param_dim(), 2), sgd(),
                          rng::Engine(1));
  core::Server mirror_srv(server_config(model.param_dim(), 2), sgd(),
                          rng::Engine(1));
  core::ProtocolServer mirror(mirror_srv, registry);

  engine::EpollCrowdServer eng(engine_srv, registry, engine::EngineConfig{});
  const auto creds = registry.enroll();
  core::TcpDeviceSession session("127.0.0.1", eng.port());

  // checkout, checkin, checkout again (version moved), one more checkin.
  const net::Bytes requests[] = {
      checkout_frame(creds), signed_checkin_frame(creds),
      checkout_frame(creds), signed_checkin_frame(creds)};
  for (const net::Bytes& req : requests) {
    const auto reply = session.exchange(req);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, mirror.handle(req));
  }
  EXPECT_EQ(engine_srv.version(), mirror_srv.version());
  EXPECT_EQ(engine_srv.parameters(), mirror_srv.parameters());

  eng.shutdown();
}

// ------------------------------------------------------ device session

// A pace hint on a successful ack is not a failure: the session honors
// it as the delay before the next exchange without consuming retry
// budget or counting a retry_after (shed) event.
TEST(CoordSession, PaceHintConsumesNoRetryBudget) {
  models::MulticlassLogisticRegression model(2, 2, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(2));

  coord::CoordConfig ccfg;
  ccfg.steering.init_rate_per_s = 1000.0;  // small hints: fast test
  ccfg.steering.min_hint_ms = 1;
  obs::MetricsRegistry reg;
  ccfg.metrics = &reg;
  coord::Coordinator coordinator(ccfg, coord::DeviceClassTable());

  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.coordinator = &coordinator;
  engine::EpollCrowdServer eng(server, registry, ecfg);

  const auto creds = registry.enroll();
  core::ReconnectPolicy policy;
  policy.io_deadline_ms = 5000;
  core::NetCounters counters;
  core::ReconnectingDeviceSession session("127.0.0.1", eng.port(), policy,
                                          rng::Engine(9), &counters);

  const auto params_reply = session.exchange(checkout_frame(creds));
  ASSERT_TRUE(params_reply.has_value());
  // Params hints are recorded but never slept on (the checkin ack's hint
  // is the binding one) — and they are not "honored" events.
  EXPECT_EQ(session.pace_hints_honored(), 0);
  EXPECT_GT(session.last_pace_hint_ms(), 0);

  const auto ack_reply = session.exchange(signed_checkin_frame(creds));
  ASSERT_TRUE(ack_reply.has_value());
  ASSERT_TRUE(net::AckMessage::deserialize(
                  net::decode_frame(*ack_reply).payload)
                  .ok);
  EXPECT_EQ(session.pace_hints_honored(), 1);
  EXPECT_EQ(counters.pace_hints_honored.value(), 1);

  // The load-shed path stayed untouched: no retries, no backoff events.
  EXPECT_EQ(session.retries(), 0);
  EXPECT_EQ(session.retry_after_honored(), 0);
  EXPECT_EQ(session.timeouts(), 0);
  EXPECT_EQ(counters.retry_after_honored.value(), 0);

  eng.shutdown();
}

// ----------------------------------------------------- open-loop smoke

// The CI smoke for the coordinator: a short open-loop run with steering
// on must end with ~zero shed and hints flowing. Small fleet, seconds of
// wall time — shaped to stay fast under ASan/TSan on one core.
TEST(CoordSmoke, SteeredOpenLoopRunShedsNothing) {
  models::MulticlassLogisticRegression model(8, 2, 0.0);
  core::Server server(server_config(model.param_dim(), 2), sgd(),
                      rng::Engine(1));
  net::AuthRegistry registry(rng::Engine(7));

  coord::CoordConfig ccfg;
  ccfg.steering.queue_max = 64;
  ccfg.steering.batch_max = 16;
  ccfg.steering.max_hint_ms = 10'000;
  obs::MetricsRegistry reg;
  ccfg.metrics = &reg;
  coord::Coordinator coordinator(ccfg, coord::DeviceClassTable());

  engine::EngineConfig ecfg;
  ecfg.metrics = &reg;
  ecfg.coordinator = &coordinator;
  ecfg.checkin_queue_max = 64;
  ecfg.checkin_batch_max = 16;
  engine::EpollCrowdServer eng(server, registry, ecfg);

  coord::LoadGenConfig lcfg;
  lcfg.host = "127.0.0.1";
  lcfg.port = eng.port();
  lcfg.devices = 40;
  lcfg.think_mean_s = 0.25;
  lcfg.warmup_s = 0.5;
  lcfg.duration_s = 1.5;
  lcfg.workers = 2;
  lcfg.param_dim = model.param_dim();
  lcfg.num_classes = 2;
  lcfg.session_mean_cycles = 1e9;  // no dropout churn in the smoke
  lcfg.seed = 5;
  const coord::LoadGenStats stats = coord::run_load_gen(lcfg, registry);

  EXPECT_GT(stats.checkins_sent, 0);
  EXPECT_GT(stats.ok_acks, 0);
  EXPECT_GT(stats.hints_seen, 0);
  EXPECT_EQ(stats.rejected, 0);
  // Steady-state shed ~ 0 with steering on.
  EXPECT_LT(stats.shed_rate, 0.01);
  EXPECT_GT(server.version(), 0u);

  eng.shutdown();
}
