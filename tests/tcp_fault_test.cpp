// Socket-layer fault tolerance: deadlines against stalled and hostile
// peers, connect taxonomy/resolution, the fault-injection proxy, and the
// reconnecting device session, and the server's connection management
// (cap, idle deadline) as a device socket sees it. The engine's internals
// for the same (acceptor-side cap, sweep counters) are covered in
// tests/engine_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/tcp_runtime.hpp"
#include "engine/epoll_server.hpp"
#include "net/fault_proxy.hpp"
#include "net/tcp.hpp"
#include "opt/schedule.hpp"

using namespace crowdml;
using net::NetError;
using net::TcpConnection;
using net::TcpListener;

namespace {

using Clock = std::chrono::steady_clock;

long long elapsed_ms(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// A peer that accepts one connection and runs `script` on it.
class ScriptedPeer {
 public:
  template <typename Fn>
  explicit ScriptedPeer(Fn script) {
    auto listener = TcpListener::bind(0);
    EXPECT_TRUE(listener.has_value());
    listener_ = std::move(*listener);
    thread_ = std::thread([this, script = std::move(script)] {
      auto conn = listener_.accept();
      if (conn) script(*conn);
    });
  }
  ~ScriptedPeer() {
    listener_.close();
    if (thread_.joinable()) thread_.join();
  }
  std::uint16_t port() const { return listener_.port(); }

 private:
  TcpListener listener_;
  std::thread thread_;
};

core::Server make_learning_server(std::size_t param_dim, std::size_t classes) {
  core::ServerConfig cfg;
  cfg.param_dim = param_dim;
  cfg.num_classes = classes;
  return core::Server(cfg,
                      std::make_unique<opt::SgdUpdater>(
                          std::make_unique<opt::ConstantSchedule>(0.1), 100.0),
                      rng::Engine(1));
}

}  // namespace

// --- deadlines against stalled / hostile peers -------------------------

TEST(TcpDeadline, RecvFrameTimesOutAgainstSilentPeer) {
  ScriptedPeer peer([](TcpConnection& c) {
    std::uint8_t b;
    c.read_some(&b, 1);  // hold the connection open, never reply
  });
  auto client = TcpConnection::connect("127.0.0.1", peer.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(150);

  const auto start = Clock::now();
  EXPECT_FALSE(client->recv_frame().has_value());
  EXPECT_EQ(client->last_error(), NetError::kTimeout);
  EXPECT_LT(elapsed_ms(start), 2000);
}

TEST(TcpDeadline, SlowLorisPeerIsBoundedByTotalDeadline) {
  // One header byte every 80 ms: each poll sees progress, but the total
  // frame deadline still fires.
  ScriptedPeer peer([](TcpConnection& c) {
    const std::uint8_t drip[4] = {'C', 'R', 'M', 'L'};
    for (std::uint8_t b : drip) {
      if (!c.write_some(&b, 1)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    std::uint8_t sink;
    c.read_some(&sink, 1);  // keep the socket open
  });
  auto client = TcpConnection::connect("127.0.0.1", peer.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(200);

  const auto start = Clock::now();
  EXPECT_FALSE(client->recv_frame().has_value());
  EXPECT_EQ(client->last_error(), NetError::kTimeout);
  EXPECT_LT(elapsed_ms(start), 2000);
}

TEST(TcpDeadline, DeviceSessionExchangeIsBounded) {
  // Acceptance: TcpDeviceSession::exchange never blocks past the
  // configured deadline against a peer that accepts but never replies.
  ScriptedPeer peer([](TcpConnection& c) {
    std::uint8_t sink[64];
    while (c.read_some(sink, sizeof(sink)) > 0) {
    }  // swallow the request, send nothing back
  });
  core::TcpDeviceSession session("127.0.0.1", peer.port(), 200, 2000);

  const auto start = Clock::now();
  const auto reply = session.exchange(net::encode_frame(
      net::MessageType::kCheckoutRequest, net::CheckoutRequest{}.serialize()));
  EXPECT_FALSE(reply.has_value());
  EXPECT_LT(elapsed_ms(start), 2000);
  EXPECT_FALSE(session.connected());  // failed exchanges close the socket
}

// --- truncated / hostile frames ----------------------------------------

TEST(TcpHostileFrames, PartialHeaderThenCloseReturnsNullopt) {
  ScriptedPeer peer([](TcpConnection& c) {
    const std::uint8_t partial[3] = {'C', 'R', 'M'};
    c.write_some(partial, sizeof(partial));
    // destructor closes mid-header
  });
  auto client = TcpConnection::connect("127.0.0.1", peer.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(2000);
  EXPECT_FALSE(client->recv_frame().has_value());
  EXPECT_EQ(client->last_error(), NetError::kClosed);
}

TEST(TcpHostileFrames, OversizedLengthRejectedWithoutAllocating) {
  // Header advertises a payload over kMaxFieldLength; recv_frame must
  // refuse before allocating or reading further.
  ScriptedPeer peer([](TcpConnection& c) {
    net::Bytes header = {'C', 'R', 'M', 'L', 1};
    const std::uint32_t huge = net::kMaxFieldLength + 1;
    for (int i = 0; i < 4; ++i)
      header.push_back(static_cast<std::uint8_t>((huge >> (8 * i)) & 0xFF));
    c.write_some(header.data(), header.size());
    std::uint8_t sink;
    c.read_some(&sink, 1);  // stay open: rejection must not need EOF
  });
  auto client = TcpConnection::connect("127.0.0.1", peer.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(500);
  const auto start = Clock::now();
  EXPECT_FALSE(client->recv_frame().has_value());
  EXPECT_EQ(client->last_error(), NetError::kIoError);
  EXPECT_LT(elapsed_ms(start), 400);  // rejected from the header alone
}

TEST(TcpHostileFrames, TrailerCutShortReturnsNullopt) {
  ScriptedPeer peer([](TcpConnection& c) {
    const net::Bytes frame =
        net::encode_frame(net::MessageType::kAck, net::Bytes{1, 2, 3});
    c.write_some(frame.data(), frame.size() - 2);  // lose half the CRC
  });
  auto client = TcpConnection::connect("127.0.0.1", peer.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(2000);
  EXPECT_FALSE(client->recv_frame().has_value());
  EXPECT_EQ(client->last_error(), NetError::kClosed);
}

// --- connect: resolution and error taxonomy ----------------------------

TEST(TcpConnect, HostnameResolvesViaGetaddrinfo) {
  ScriptedPeer peer([](TcpConnection& c) {
    const auto frame = c.recv_frame();
    if (frame) c.send_frame(*frame);  // echo
  });
  auto client = TcpConnection::connect("localhost", peer.port(), 2000);
  ASSERT_TRUE(client.has_value());
  const net::Bytes frame =
      net::encode_frame(net::MessageType::kAck, net::Bytes{9});
  ASSERT_TRUE(client->send_frame(frame));
  client->set_deadline_ms(2000);
  const auto echoed = client->recv_frame();
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(*echoed, frame);
}

TEST(TcpConnect, RefusedPortClassifiedAsRefused) {
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::bind(0);
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
  }  // closed: nothing listens here now
  NetError err = NetError::kNone;
  EXPECT_FALSE(
      TcpConnection::connect("127.0.0.1", dead_port, 2000, &err).has_value());
  EXPECT_EQ(err, NetError::kRefused);
}

TEST(TcpConnect, UnresolvableHostFailsCleanly) {
  NetError err = NetError::kNone;
  EXPECT_FALSE(
      TcpConnection::connect("256.256.256.256", 1, 500, &err).has_value());
  EXPECT_EQ(err, NetError::kIoError);
}

TEST(TcpListener, BindsCallerChosenAddress) {
  auto listener = TcpListener::bind("0.0.0.0", 0);
  ASSERT_TRUE(listener.has_value());
  auto client = TcpConnection::connect("127.0.0.1", listener->port(), 2000);
  EXPECT_TRUE(client.has_value());
}

// --- fault proxy --------------------------------------------------------

TEST(FaultProxy, TransparentWhenPolicyIsZero) {
  ScriptedPeer peer([](TcpConnection& c) {
    c.set_deadline_ms(5000);
    const auto frame = c.recv_frame();
    if (frame) c.send_frame(*frame);
  });
  net::FaultProxy proxy("127.0.0.1", peer.port(), net::FaultPolicy{},
                        rng::Engine(5));

  auto client = TcpConnection::connect("127.0.0.1", proxy.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(5000);
  const net::Bytes frame =
      net::encode_frame(net::MessageType::kAck, net::Bytes{1, 2, 3});
  ASSERT_TRUE(client->send_frame(frame));
  const auto echoed = client->recv_frame();
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(*echoed, frame);

  proxy.shutdown();
  const auto counts = proxy.counts();
  EXPECT_EQ(counts.connections, 1);
  EXPECT_EQ(counts.killed_connections(), 0);
  EXPECT_EQ(counts.corrupted, 0);
}

TEST(FaultProxy, DropPolicyKillsConnections) {
  ScriptedPeer peer([](TcpConnection& c) {
    c.set_deadline_ms(5000);
    const auto frame = c.recv_frame();
    if (frame) c.send_frame(*frame);
  });
  net::FaultPolicy policy;
  policy.drop_conn_prob = 1.0;
  net::FaultProxy proxy("127.0.0.1", peer.port(), policy, rng::Engine(5));

  auto client = TcpConnection::connect("127.0.0.1", proxy.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(5000);
  client->send_frame(net::encode_frame(net::MessageType::kAck, net::Bytes{1}));
  EXPECT_FALSE(client->recv_frame().has_value());

  proxy.shutdown();
  EXPECT_GE(proxy.counts().dropped, 1);
}

TEST(FaultProxy, CorruptionIsCaughtByFrameCrc) {
  ScriptedPeer peer([](TcpConnection& c) {
    c.set_deadline_ms(5000);
    const auto frame = c.recv_frame();
    if (frame) c.send_frame(*frame);
  });
  net::FaultPolicy policy;
  policy.corrupt_prob = 1.0;
  net::FaultProxy proxy("127.0.0.1", peer.port(), policy, rng::Engine(5));

  auto client = TcpConnection::connect("127.0.0.1", proxy.port(), 2000);
  ASSERT_TRUE(client.has_value());
  client->set_deadline_ms(5000);
  const net::Bytes frame =
      net::encode_frame(net::MessageType::kAck, net::Bytes{1, 2, 3, 4});
  ASSERT_TRUE(client->send_frame(frame));
  const auto reply = client->recv_frame();
  proxy.shutdown();
  EXPECT_GE(proxy.counts().corrupted, 1);
  if (reply) {
    // Byte flips that survive framing must be caught by decode_frame's CRC
    // (a flip in the length field may instead desync framing entirely —
    // then recv_frame already failed above).
    EXPECT_THROW(net::decode_frame(*reply), net::CodecError);
  }
}

// --- server connection management, as a device socket sees it ----------

TEST(TcpServer, RefusesBeyondMaxConnections) {
  auto server = make_learning_server(4, 2);
  net::AuthRegistry registry(rng::Engine(2));
  engine::EngineConfig cfg;
  cfg.max_connections = 2;
  engine::EpollCrowdServer tcp(server, registry, cfg);

  core::TcpDeviceSession a("127.0.0.1", tcp.port(), 5000, 2000);
  core::TcpDeviceSession b("127.0.0.1", tcp.port(), 5000, 2000);
  // Two served connections stay open and keep their slots.
  net::CheckoutRequest req;
  ASSERT_TRUE(a.exchange(net::encode_frame(net::MessageType::kCheckoutRequest,
                                           req.serialize()))
                  .has_value());
  ASSERT_TRUE(b.exchange(net::encode_frame(net::MessageType::kCheckoutRequest,
                                           req.serialize()))
                  .has_value());

  // The third connection gets a "server at capacity" nack, then EOF.
  core::TcpDeviceSession c("127.0.0.1", tcp.port(), 5000, 2000);
  const auto reply = c.exchange(net::encode_frame(
      net::MessageType::kCheckoutRequest, req.serialize()));
  if (reply.has_value()) {
    const net::Frame f = net::decode_frame(*reply);
    ASSERT_EQ(f.type, net::MessageType::kAck);
    EXPECT_FALSE(net::AckMessage::deserialize(f.payload).ok);
  }
  EXPECT_GE(tcp.net_snapshot().refused_connections, 1);

  tcp.shutdown();
}

TEST(TcpServer, IdleConnectionsAreClosedAndWorkersReaped) {
  auto server = make_learning_server(4, 2);
  net::AuthRegistry registry(rng::Engine(2));
  engine::EngineConfig cfg;
  cfg.idle_timeout_ms = 100;
  engine::EpollCrowdServer tcp(server, registry, cfg);

  // An idle device is disconnected by the server's deadline...
  auto idle = TcpConnection::connect("127.0.0.1", tcp.port(), 2000);
  ASSERT_TRUE(idle.has_value());
  idle->set_deadline_ms(3000);
  EXPECT_FALSE(idle->recv_frame().has_value());  // server closes; EOF here
  EXPECT_EQ(idle->last_error(), NetError::kClosed);

  // ...and its connection slot is released (the engine has no per-connection
  // worker; the slot is what a reaped worker used to hold).
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline && tcp.connections() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(tcp.connections(), 0u);
  EXPECT_GE(tcp.net_snapshot().idle_closed, 1);

  tcp.shutdown();
}

// --- reconnecting session ----------------------------------------------

TEST(ReconnectingSession, SurvivesServerSideDisconnects) {
  auto server = make_learning_server(4, 2);
  net::AuthRegistry registry(rng::Engine(2));
  engine::EngineConfig cfg;
  cfg.idle_timeout_ms = 80;  // aggressively hang up on idle devices
  engine::EpollCrowdServer tcp(server, registry, cfg);

  const auto creds = registry.enroll();
  net::CheckoutRequest req;
  req.device_id = creds.device_id;
  req.auth_tag = creds.sign(req.body());
  const net::Bytes checkout =
      net::encode_frame(net::MessageType::kCheckoutRequest, req.serialize());

  core::ReconnectPolicy policy;
  policy.io_deadline_ms = 2000;
  policy.backoff_base_ms = 5;
  policy.backoff_max_ms = 50;
  core::NetCounters counters;
  core::ReconnectingDeviceSession session("127.0.0.1", tcp.port(), policy,
                                          rng::Engine(9), &counters);

  int successes = 0;
  for (int round = 0; round < 4; ++round) {
    const auto reply = session.exchange(checkout);
    if (reply &&
        net::decode_frame(*reply).type == net::MessageType::kParams)
      ++successes;
    // Outlive the server's idle deadline so the connection is dropped
    // between rounds and the session must reconnect.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  EXPECT_EQ(successes, 4);
  EXPECT_GE(session.reconnects(), 1);
  EXPECT_EQ(counters.snapshot().reconnects, session.reconnects());

  tcp.shutdown();
}

TEST(ReconnectingSession, GivesUpAfterMaxAttemptsWhenServerIsGone) {
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::bind(0);
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
  }
  core::ReconnectPolicy policy;
  policy.max_attempts = 3;
  policy.connect_timeout_ms = 500;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 5;
  core::ReconnectingDeviceSession session("127.0.0.1", dead_port, policy,
                                          rng::Engine(9));
  const auto reply = session.exchange(net::encode_frame(
      net::MessageType::kCheckoutRequest, net::CheckoutRequest{}.serialize()));
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(session.retries(), 2);  // attempts beyond the first
}

TEST(ReconnectingSession, NeverReplaysACheckin) {
  // A peer that accepts the checkin bytes and then goes silent: the
  // session must abandon the checkin (one send, no replay), not retry it.
  ScriptedPeer peer([](TcpConnection& c) {
    std::uint8_t sink[256];
    while (c.read_some(sink, sizeof(sink)) > 0) {
    }
  });
  core::ReconnectPolicy policy;
  policy.io_deadline_ms = 150;
  policy.max_attempts = 5;
  policy.backoff_base_ms = 1;
  core::ReconnectingDeviceSession session("127.0.0.1", peer.port(), policy,
                                          rng::Engine(9));

  net::CheckinMessage msg;
  msg.device_id = 1;
  msg.g_hat = {0.0, 0.0};
  msg.ns = 1;
  msg.ny_hat = {1, 0};
  const auto reply = session.exchange(
      net::encode_frame(net::MessageType::kCheckin, msg.serialize()));
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(session.checkin_frames_sent(), 1);   // exactly one send
  EXPECT_EQ(session.checkins_abandoned(), 1);
  EXPECT_GE(session.timeouts(), 1);
}
