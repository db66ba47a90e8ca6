// Device-side TCP sessions for the Crowd-ML protocol.
//
// TcpDeviceSession is a device's persistent connection implementing
// DeviceClient's Exchange; the server side is engine::EpollCrowdServer.
//
// Fault tolerance (Remark 1: devices ride a lossy public network and
// "retry later" when a leg is lost): ReconnectingDeviceSession wraps
// TcpDeviceSession with capped exponential backoff + jitter,
// transparently re-establishing the connection across drops. A checkout
// may be retried freely; a checkin whose send already started is
// abandoned, never replayed — the server may have applied it before the
// ack was lost, and a replay would double-spend the minibatch's privacy
// budget.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/monitor.hpp"
#include "core/protocol.hpp"
#include "net/tcp.hpp"
#include "obs/trace.hpp"
#include "rng/engine.hpp"

namespace crowdml::core {

/// A device's persistent TCP session; usable as DeviceClient::Exchange.
class TcpDeviceSession {
 public:
  /// Connects to the server; throws std::runtime_error on failure.
  /// The two-argument form keeps the legacy behavior: OS-default connect
  /// timeout, no I/O deadline.
  TcpDeviceSession(const std::string& host, std::uint16_t port);
  TcpDeviceSession(const std::string& host, std::uint16_t port,
                   int io_deadline_ms, int connect_timeout_ms);

  /// One request/response round trip, bounded by the I/O deadline when one
  /// was configured. nullopt on failure; the connection is closed so the
  /// caller can tell it needs to reconnect.
  std::optional<net::Bytes> exchange(const net::Bytes& request);

  DeviceClient::Exchange as_exchange();

  bool connected() const { return conn_.valid(); }
  net::NetError last_error() const { return conn_.last_error(); }
  void close() { conn_.close(); }

 private:
  net::TcpConnection conn_;
};

/// Backoff/retry policy for ReconnectingDeviceSession.
struct ReconnectPolicy {
  int connect_timeout_ms = 2000;
  int io_deadline_ms = 5000;
  /// Attempts per exchange() call (connects and replays combined).
  int max_attempts = 8;
  /// Backoff before attempt k is min(base << (k-1), max), jittered by
  /// a uniform factor in [1 - jitter, 1 + jitter].
  int backoff_base_ms = 10;
  int backoff_max_ms = 2000;
  double jitter = 0.5;
  /// "not leader" redirects followed within one exchange() before the
  /// nack is surfaced as-is (a loop of confused replicas must not trap
  /// the device). 0 disables following entirely.
  int max_redirect_hops = 4;
};

/// TcpDeviceSession wrapper that survives connection loss: it connects
/// lazily, re-establishes dropped connections with capped exponential
/// backoff + jitter, and replays failed requests — except checkins, which
/// are abandoned once their send has begun (see the header comment).
///
/// Failover: a "not leader; leader=<addr>" nack retargets the session at
/// the advertised leader and replays the request there — checkins
/// included, because the replica refuses them *before* application, so
/// the nacked frame was provably never applied (the one exception to
/// never-replay-a-checkin). If the redirect target cannot be reached the
/// session falls back to its home address (where a future leader's
/// redirect will point it again).
class ReconnectingDeviceSession {
 public:
  /// `counters`, when non-null, receives timeout/retry/reconnect events
  /// (shared across sessions; must outlive the session). `trace`, when
  /// non-null, receives the same events as structured JSONL lines tagged
  /// with `device_id` (use the enrolled id so traces join with the
  /// server's checkout/checkin events).
  ReconnectingDeviceSession(std::string host, std::uint16_t port,
                            ReconnectPolicy policy, rng::Engine eng,
                            NetCounters* counters = nullptr,
                            obs::TraceSink* trace = nullptr,
                            std::uint64_t device_id = 0);

  std::optional<net::Bytes> exchange(const net::Bytes& request);
  DeviceClient::Exchange as_exchange();

  long long reconnects() const { return reconnects_; }
  long long retries() const { return retries_; }
  long long timeouts() const { return timeouts_; }
  long long checkins_abandoned() const { return checkins_abandoned_; }
  /// Server retry_after hints honored (load-shed nacks; see
  /// net::parse_retry_after). A hinted checkout is retried after the
  /// hinted delay; a hinted checkin is still never replayed — the hint
  /// delays the *next* exchange instead.
  long long retry_after_honored() const { return retry_after_honored_; }
  /// Checkin frames handed to the socket at least once (each at most once
  /// — never replayed), for double-apply audits in chaos tests. A checkin
  /// replayed after a pre-application "not leader" nack counts again.
  long long checkin_frames_sent() const { return checkin_sends_; }
  /// Not-leader redirects followed to the advertised leader.
  long long redirects_followed() const { return redirects_followed_; }
  /// Pace-steering hints on *successful acks* honored as the delay
  /// before the next exchange (docs/SCALING.md, "Pace steering").
  /// Distinct from retry_after_honored: these are not failures — they
  /// consume no retry budget and trigger no backoff jitter. Params-frame
  /// hints are recorded in last_pace_hint_ms() but never slept on (the
  /// same cycle's checkin ack carries the binding hint).
  long long pace_hints_honored() const { return pace_hints_honored_; }
  /// Most recent pace hint seen on any success frame (ack or params);
  /// 0 until one arrives.
  int last_pace_hint_ms() const { return last_pace_hint_ms_; }
  /// Record that this device abandoned a secure-aggregation round for
  /// the classic LDP checkin (round aborted / no cohort). Called by the
  /// device driver, not exchange() — the fallback decision lives above
  /// the transport, but its count belongs with the session's transport
  /// health (crowdml_net_secagg_fallbacks_total).
  void note_secagg_fallback();
  long long secagg_fallbacks() const { return secagg_fallbacks_; }
  /// The address currently targeted (the home address until a redirect).
  const std::string& current_host() const { return host_; }
  std::uint16_t current_port() const { return port_; }

 private:
  bool try_connect();
  void backoff(int attempt);

  std::string host_;
  std::uint16_t port_;
  std::string home_host_;
  std::uint16_t home_port_;
  ReconnectPolicy policy_;
  rng::Engine eng_;
  NetCounters* counters_;
  obs::TraceSink* trace_;
  std::uint64_t device_id_;
  std::optional<TcpDeviceSession> session_;
  bool ever_connected_ = false;
  long long reconnects_ = 0;
  long long retries_ = 0;
  long long timeouts_ = 0;
  long long checkins_abandoned_ = 0;
  long long checkin_sends_ = 0;
  long long retry_after_honored_ = 0;
  long long redirects_followed_ = 0;
  long long pace_hints_honored_ = 0;
  long long secagg_fallbacks_ = 0;
  int last_pace_hint_ms_ = 0;
  /// Delay owed before the next exchange begins: a shed checkin's nack
  /// hint, or a pace-steering hint from a successful ack (the shed or
  /// acked request itself is not replayed).
  int deferred_backoff_ms_ = 0;
};

}  // namespace crowdml::core
