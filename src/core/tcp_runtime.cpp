#include "core/tcp_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "rng/distributions.hpp"

namespace crowdml::core {

namespace {

/// retry_after hint carried by a load-shed nack frame; -1 when the frame
/// is anything else (params, ok-ack, nack without a hint, garbage).
int shed_hint(const net::Bytes& frame) {
  if (frame.size() <= net::kFrameTypeOffset ||
      frame[net::kFrameTypeOffset] !=
          static_cast<std::uint8_t>(net::MessageType::kAck))
    return -1;
  try {
    const net::Frame f = net::decode_frame(frame);
    const net::AckMessage ack = net::AckMessage::deserialize(f.payload);
    if (ack.ok) return -1;
    const auto hint = net::parse_retry_after(ack.reason);
    return hint ? *hint : -1;
  } catch (const net::CodecError&) {
    return -1;
  }
}

/// Pace-steering hint carried by a *success* frame (docs/SCALING.md,
/// "Pace steering"): next_checkin_hint_ms from an ok-ack or a params
/// frame. 0 when absent, malformed, or a nack (shed nacks carry their
/// hint in the reason string and take the retry_after path instead).
/// Capped to int range defensively; the steering policy's own clamp is
/// far below that.
int pace_hint(const net::Bytes& frame) {
  if (frame.size() <= net::kFrameTypeOffset) return 0;
  const std::uint8_t type = frame[net::kFrameTypeOffset];
  try {
    std::uint32_t hint = 0;
    if (type == static_cast<std::uint8_t>(net::MessageType::kAck)) {
      const net::Frame f = net::decode_frame(frame);
      const net::AckMessage ack = net::AckMessage::deserialize(f.payload);
      if (!ack.ok) return 0;
      hint = ack.next_checkin_hint_ms;
    } else if (type == static_cast<std::uint8_t>(net::MessageType::kParams)) {
      const net::Frame f = net::decode_frame(frame);
      const net::ParamsMessage params = net::ParamsMessage::deserialize(f.payload);
      hint = params.next_checkin_hint_ms;
    }
    return static_cast<int>(std::min<std::uint32_t>(
        hint, static_cast<std::uint32_t>(std::numeric_limits<int>::max())));
  } catch (const net::CodecError&) {
    return 0;
  }
}

/// Redirect address carried by a "not leader" or "wrong shard" nack
/// frame; nullopt when the frame is anything else. Both reasons make
/// the same guarantee — the nack was issued before application — so the
/// session follows both through the one hop-capped path.
std::optional<std::string> redirect_target(const net::Bytes& frame) {
  if (frame.size() <= net::kFrameTypeOffset ||
      frame[net::kFrameTypeOffset] !=
          static_cast<std::uint8_t>(net::MessageType::kAck))
    return std::nullopt;
  try {
    const net::Frame f = net::decode_frame(frame);
    const net::AckMessage ack = net::AckMessage::deserialize(f.payload);
    if (ack.ok) return std::nullopt;
    if (auto leader = net::parse_leader_redirect(ack.reason)) return leader;
    return net::parse_shard_redirect(ack.reason);
  } catch (const net::CodecError&) {
    return std::nullopt;
  }
}

}  // namespace

TcpDeviceSession::TcpDeviceSession(const std::string& host, std::uint16_t port)
    : TcpDeviceSession(host, port, net::TcpConnection::kNoDeadline,
                       net::TcpConnection::kNoDeadline) {}

TcpDeviceSession::TcpDeviceSession(const std::string& host, std::uint16_t port,
                                   int io_deadline_ms, int connect_timeout_ms) {
  net::NetError err = net::NetError::kNone;
  auto conn = net::TcpConnection::connect(host, port, connect_timeout_ms, &err);
  if (!conn)
    throw std::runtime_error(std::string("TcpDeviceSession: connect failed (") +
                             net::net_error_name(err) + ")");
  conn_ = std::move(*conn);
  conn_.set_deadline_ms(io_deadline_ms);
}

std::optional<net::Bytes> TcpDeviceSession::exchange(const net::Bytes& request) {
  if (!conn_.send_frame(request)) {
    conn_.close();
    return std::nullopt;
  }
  auto reply = conn_.recv_frame();
  if (!reply) conn_.close();
  return reply;
}

DeviceClient::Exchange TcpDeviceSession::as_exchange() {
  return [this](const net::Bytes& req) { return exchange(req); };
}

ReconnectingDeviceSession::ReconnectingDeviceSession(
    std::string host, std::uint16_t port, ReconnectPolicy policy,
    rng::Engine eng, NetCounters* counters, obs::TraceSink* trace,
    std::uint64_t device_id)
    : host_(std::move(host)),
      port_(port),
      home_host_(host_),
      home_port_(port_),
      policy_(policy),
      eng_(eng),
      counters_(counters),
      trace_(trace),
      device_id_(device_id) {}

bool ReconnectingDeviceSession::try_connect() {
  try {
    session_.emplace(host_, port_, policy_.io_deadline_ms,
                     policy_.connect_timeout_ms);
  } catch (const std::runtime_error&) {
    session_.reset();
    return false;
  }
  if (ever_connected_) {
    ++reconnects_;
    if (counters_) ++counters_->reconnects;
    if (trace_) trace_->event("reconnect", {{"device", device_id_}});
  }
  ever_connected_ = true;
  return true;
}

void ReconnectingDeviceSession::note_secagg_fallback() {
  ++secagg_fallbacks_;
  if (counters_) ++counters_->secagg_fallbacks;
  if (trace_) trace_->event("secagg_fallback", {{"device", device_id_}});
}

void ReconnectingDeviceSession::backoff(int attempt) {
  const int shift = std::min(attempt - 1, 20);
  const long long base =
      std::min<long long>(static_cast<long long>(policy_.backoff_base_ms)
                              << shift,
                          policy_.backoff_max_ms);
  const double factor =
      rng::uniform(eng_, 1.0 - policy_.jitter, 1.0 + policy_.jitter);
  const auto delay = static_cast<long long>(static_cast<double>(base) * factor);
  if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

std::optional<net::Bytes> ReconnectingDeviceSession::exchange(
    const net::Bytes& request) {
  // A shed checkin's hint delays the next exchange (the shed request
  // itself is never replayed — see below).
  if (deferred_backoff_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(deferred_backoff_ms_));
    deferred_backoff_ms_ = 0;
  }
  // A checkout (or any non-checkin frame) is idempotent and may be
  // replayed; a checkin must hit the wire at most once (Remark 1 — the
  // server may already have applied it, and the device's privacy
  // accountant already charged the minibatch).
  const bool replayable =
      request.size() <= net::kFrameTypeOffset ||
      request[net::kFrameTypeOffset] !=
          static_cast<std::uint8_t>(net::MessageType::kCheckin);

  int hinted_ms = -1;   // server-supplied backoff for the next attempt
  int redirect_hops = 0;  // not-leader hops followed this exchange
  bool skip_backoff = false;  // a redirect replays immediately
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++retries_;
      if (counters_) ++counters_->retries;
      if (trace_)
        trace_->event("retry", {{"device", device_id_}, {"attempt", attempt}});
      if (skip_backoff) {
        skip_backoff = false;
      } else if (hinted_ms >= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(hinted_ms));
        hinted_ms = -1;
      } else {
        backoff(attempt);
      }
    }
    if (!session_ || !session_->connected()) {
      if (!try_connect()) {
        // A redirect target that never answers must not strand the
        // device: fall back to home, whose next leader will redirect us
        // correctly again.
        if (host_ != home_host_ || port_ != home_port_) {
          host_ = home_host_;
          port_ = home_port_;
          if (trace_)
            trace_->event("redirect_fallback_home", {{"device", device_id_}});
        }
        continue;
      }
    }
    if (!replayable) ++checkin_sends_;
    auto reply = session_->exchange(request);
    if (reply) {
      // Follow "not leader" before anything else: the nack was issued
      // before application, so replaying there is safe for every frame
      // type, checkins included.
      if (const auto leader = redirect_target(*reply)) {
        const auto hp = net::split_host_port(*leader);
        if (hp && redirect_hops < policy_.max_redirect_hops) {
          ++redirect_hops;
          ++redirects_followed_;
          if (counters_) ++counters_->redirects_followed;
          if (trace_)
            trace_->event("redirect_followed",
                          {{"device", device_id_}, {"leader", *leader}});
          host_ = hp->first;
          port_ = hp->second;
          session_->close();
          session_.reset();
          skip_backoff = true;
          continue;
        }
        return reply;  // hop cap hit or unparseable: surface the nack
      }
      const int hint = shed_hint(*reply);
      if (hint < 0) {
        // Success (or a nack with no shed hint). A pace-steering hint on
        // a success frame is NOT a failure: it never consumes an attempt
        // and never triggers backoff jitter — the server is scheduling
        // our *next* exchange, not rejecting this one. An ok-ack's hint
        // is the slot the coordinator reserved for us, so honor it as
        // the pre-exchange delay; a params frame's hint is advisory only
        // (the same cycle's checkin ack carries the binding one —
        // sleeping on both would pace one cycle twice).
        const int pace = pace_hint(*reply);
        if (pace > 0) {
          last_pace_hint_ms_ = pace;
          if ((*reply)[net::kFrameTypeOffset] ==
              static_cast<std::uint8_t>(net::MessageType::kAck)) {
            deferred_backoff_ms_ = std::max(deferred_backoff_ms_, pace);
            ++pace_hints_honored_;
            if (counters_) ++counters_->pace_hints_honored;
            if (trace_)
              trace_->event("pace_hint",
                            {{"device", device_id_}, {"delay_ms", pace}});
          }
        }
        return reply;
      }
      // The server shed this request and told us when to come back.
      ++retry_after_honored_;
      if (counters_) ++counters_->retry_after_honored;
      if (trace_)
        trace_->event("retry_after",
                      {{"device", device_id_}, {"delay_ms", hint}});
      if (!replayable) {
        // Never replay a checkin — honor the hint before the next cycle.
        deferred_backoff_ms_ = hint;
        return reply;
      }
      hinted_ms = hint;
      continue;
    }
    if (session_->last_error() == net::NetError::kTimeout) {
      ++timeouts_;
      if (counters_) ++counters_->timeouts;
      if (trace_) trace_->event("timeout", {{"device", device_id_}});
    }
    session_->close();
    if (!replayable) {
      ++checkins_abandoned_;
      if (counters_) ++counters_->checkins_abandoned;
      if (trace_) trace_->event("checkin_abandoned", {{"device", device_id_}});
      return std::nullopt;  // abandoned, never replayed
    }
  }
  return std::nullopt;
}

DeviceClient::Exchange ReconnectingDeviceSession::as_exchange() {
  return [this](const net::Bytes& req) { return exchange(req); };
}

}  // namespace crowdml::core
