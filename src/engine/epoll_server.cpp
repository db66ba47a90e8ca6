#include "engine/epoll_server.hpp"

#include <stdexcept>
#include <utility>

#include "engine/applier.hpp"

namespace crowdml::engine {

namespace {

obs::MetricsRegistry& registry_of(const EngineConfig& config) {
  return config.metrics ? *config.metrics : obs::default_registry();
}

net::Bytes make_auth_refused_frame() {
  net::ParamsMessage refuse;
  refuse.accepted = false;
  return net::encode_frame(net::MessageType::kParams, refuse.serialize());
}

net::Bytes make_redirect_frame(const std::string& leader_addr) {
  if (leader_addr.empty()) return {};
  const net::AckMessage nack{false, net::not_leader_reason(leader_addr)};
  return net::encode_frame(net::MessageType::kAck, nack.serialize());
}

}  // namespace

EpollCrowdServer::EpollCrowdServer(core::Server& server,
                                   net::AuthRegistry& auth,
                                   EngineConfig config)
    : config_(std::move(config)),
      server_(server),
      auth_(auth),
      protocol_(server, auth, config_.trace),
      counters_(config_.metrics),
      board_(config_.metrics),
      queue_(config_.checkin_queue_max, config_.metrics),
      auth_refused_frame_(make_auth_refused_frame()),
      checkouts_served_(registry_of(config_).counter(
          "crowdml_engine_checkouts_served_total",
          "Checkouts answered from the snapshot board on an I/O thread",
          obs::Provenance::kTransportEvent)),
      commit_failures_(commit_failures_counter(registry_of(config_))),
      checkins_redirected_(registry_of(config_).counter(
          "crowdml_engine_checkins_redirected_total",
          "Checkins refused with a not-leader redirect (follower mode)",
          obs::Provenance::kTransportEvent)),
      checkins_wrong_shard_(registry_of(config_).counter(
          "crowdml_engine_checkins_wrong_shard_total",
          "Checkins refused with a wrong-shard redirect (the device's "
          "hash range belongs to another shard leader)",
          obs::Provenance::kTransportEvent)),
      stale_checkouts_refused_(registry_of(config_).counter(
          "crowdml_engine_stale_checkouts_refused_total",
          "Checkouts nacked because the replica's applied position lagged "
          "the leader's committed watermark past --max-read-lag",
          obs::Provenance::kTransportEvent)) {
  if (config_.io_threads == 0) config_.io_threads = 1;
  if (config_.checkin_batch_max == 0) config_.checkin_batch_max = 1;
  group_commit_ = std::move(config_.group_commit);
  set_checkin_redirect(config_.checkin_redirect);
  protocol_.set_secagg(config_.secagg);
  protocol_.set_shard(config_.shard);

  // The board must hold a snapshot before any I/O thread can serve a
  // checkout from it.
  board_.publish(server_);

  EventLoop::Options loop_opts;
  loop_opts.idle_timeout_ms = config_.idle_timeout_ms;
  loop_opts.metrics = config_.metrics;
  loop_opts.idle_closed = &counters_.idle_closed;
  loop_opts.trace = config_.trace;
  loops_.reserve(config_.io_threads);
  for (std::size_t i = 0; i < config_.io_threads; ++i) {
    // With secagg, the applier holds requests per connection and must
    // hear when one closes.
    if (config_.secagg)
      loop_opts.on_close = [this, i](std::uint64_t conn_id) {
        closed_.add(loops_[i].get(), conn_id);
      };
    loops_.push_back(std::make_unique<EventLoop>(
        loop_opts, [this, i](std::uint64_t conn_id, net::Bytes&& frame) {
          on_frame(loops_[i].get(), conn_id, std::move(frame));
        }));
  }

  auto listener = net::TcpListener::bind(config_.bind_address, config_.port);
  if (!listener) throw std::runtime_error("EpollCrowdServer: bind failed");
  listener_ = std::move(*listener);
  port_ = listener_.port();
  acceptor_ = std::thread([this] { accept_loop(); });
  applier_ = std::thread([this] {
    run_applier({.queue = queue_,
                 .server = server_,
                 .protocol = protocol_,
                 .board = board_,
                 .batch_max = config_.checkin_batch_max,
                 .commit = [this] { return group_commit(); },
                 .coordinator = config_.coordinator,
                 .publish_paused = &redirect_active_,
                 .secagg = config_.secagg,
                 .closed = config_.secagg ? &closed_ : nullptr,
                 .metrics = config_.metrics,
                 .trace = config_.trace});
  });
}

EpollCrowdServer::~EpollCrowdServer() { shutdown(); }

std::size_t EpollCrowdServer::connections() const {
  std::size_t total = 0;
  for (const auto& loop : loops_) total += loop->connections();
  return total;
}

void EpollCrowdServer::accept_loop() {
  while (!stopping_.load()) {
    auto conn = listener_.accept();
    if (!conn) break;  // listener closed
    if (stopping_.load()) break;
    // connections() counts every fd handed to adopt() and not yet
    // closed, so a burst of connects accepted before the loops register
    // them still meets the cap.
    if (connections() >= config_.max_connections) {
      // Graceful refusal: say why, with a retry hint, before hanging up.
      ++counters_.refused_connections;
      if (config_.trace)
        config_.trace->event("refusal", {{"reason", "server at capacity"}});
      const net::AckMessage nack{
          false, net::retry_after_reason("server at capacity",
                                         config_.capacity_retry_after_ms)};
      conn->set_deadline_ms(1000);
      conn->send_frame(
          net::encode_frame(net::MessageType::kAck, nack.serialize()));
      continue;  // conn destructs -> closed
    }
    ++counters_.accepted_connections;
    if (config_.trace) config_.trace->event("accept");
    const int fd = conn->release_fd();
    loops_[next_loop_++ % loops_.size()]->adopt(fd);
  }
}

void EpollCrowdServer::on_frame(EventLoop* loop, std::uint64_t conn_id,
                                net::Bytes&& frame) {
  // Fast path: an authenticated checkout never touches the server — the
  // response is the board's pre-encoded frame. Anything that is not a
  // well-formed, auth-valid checkout (checkins, malformed frames, bad
  // tags) takes the applier path, where ProtocolServer keeps all
  // failure accounting in one place.
  if (frame.size() > net::kFrameTypeOffset &&
      frame[net::kFrameTypeOffset] ==
          static_cast<std::uint8_t>(net::MessageType::kCheckoutRequest)) {
    try {
      const net::Frame f = net::decode_frame(frame);
      const auto req = net::CheckoutRequest::deserialize(f.payload);
      if (auth_.verify(req.device_id, req.body(), req.auth_tag)) {
        // Bounded-staleness replica reads: refuse (with a machine-
        // readable retry hint) rather than serve parameters that lag the
        // leader's committed watermark past the configured bound.
        if (config_.read_lag && config_.max_read_lag > 0) {
          const std::uint64_t lag = config_.read_lag();
          if (lag > config_.max_read_lag) {
            ++stale_checkouts_refused_;
            if (config_.trace)
              config_.trace->event("stale_checkout_refused",
                                   {{"device", req.device_id},
                                    {"lag_records", lag},
                                    {"max_read_lag", config_.max_read_lag}});
            const net::AckMessage nack{
                false, net::retry_after_reason(
                           "replica lagging " + std::to_string(lag) +
                               " records",
                           config_.stale_retry_after_ms)};
            loop->send(conn_id, net::encode_frame(net::MessageType::kAck,
                                                  nack.serialize()));
            return;
          }
        }
        const auto snap =
            config_.draw_snapshot ? config_.draw_snapshot() : board_.current();
        ++checkouts_served_;
        if (config_.trace)
          config_.trace->event("checkout", {{"device", req.device_id},
                                            {"round", snap->version},
                                            {"accepted", snap->accepted}});
        // Pace steering: append the class's advisory hint to the board's
        // pre-encoded frame (a payload slice + re-CRC, never a
        // ParamsMessage round trip). Without a coordinator the frame is
        // passed through byte-identically.
        if (config_.coordinator) {
          loop->send(conn_id,
                     net::frame_with_checkin_hint(
                         snap->params_frame, config_.coordinator->checkout_hint_ms(
                                                 req.device_class)));
        } else {
          loop->send(conn_id, net::Bytes(snap->params_frame));
        }
        return;
      }
    } catch (const net::CodecError&) {
      // fall through to the applier path
    }
  }

  // Follower mode: only the leader mutates the model. Checkins are
  // refused right here on the I/O thread with a machine-readable
  // redirect — they must never reach the applier, so a replica's state
  // stays byte-identical to the leader's replication stream. The nack is
  // issued *before* any application, which is what makes it safe for the
  // device to replay the same checkin at the redirect target.
  if (redirect_active_.load(std::memory_order_acquire) &&
      frame.size() > net::kFrameTypeOffset &&
      frame[net::kFrameTypeOffset] ==
          static_cast<std::uint8_t>(net::MessageType::kCheckin)) {
    net::Bytes redirect;
    std::string leader;
    {
      std::lock_guard<std::mutex> lock(redirect_mu_);
      redirect = checkin_redirect_frame_;
      leader = checkin_redirect_;
    }
    if (!redirect.empty()) {
      ++checkins_redirected_;
      if (config_.trace) config_.trace->event("redirect", {{"leader", leader}});
      loop->send(conn_id, std::move(redirect));
      return;
    }
  }

  // Sharded mode: a checkin whose device id hashes to another shard is
  // refused here on the I/O thread — before any application, same
  // replay-safety argument as the follower redirect above — with a
  // parseable "wrong shard; shard=<addr>" nack the device follows.
  if (config_.shard_route && frame.size() > net::kFrameTypeOffset &&
      frame[net::kFrameTypeOffset] ==
          static_cast<std::uint8_t>(net::MessageType::kCheckin)) {
    if (const auto id = net::peek_checkin_device_id(frame)) {
      if (const auto target = config_.shard_route(*id)) {
        ++checkins_wrong_shard_;
        if (config_.trace)
          config_.trace->event("wrong_shard", {{"device", *id},
                                               {"shard", *target}});
        const net::AckMessage nack{false, net::wrong_shard_reason(*target)};
        loop->send(conn_id, net::encode_frame(net::MessageType::kAck,
                                              nack.serialize()));
        return;
      }
    }
  }

  CheckinWork work;
  work.conn_id = conn_id;
  work.loop = loop;
  work.frame = std::move(frame);
  const bool admitted = config_.route_checkin
                            ? config_.route_checkin(std::move(work))
                            : queue_.try_push(std::move(work));
  if (!admitted) {
    // Last-resort shed. With a coordinator the retry hint reserves the
    // (default-class; the frame is not decoded on this path) next paced
    // slot, so turned-away devices rejoin spread out instead of
    // re-colliding after a fixed delay.
    int retry_ms = config_.queue_retry_after_ms;
    if (config_.coordinator) {
      config_.coordinator->observe_queue_depth(queue_.depth());
      retry_ms = config_.coordinator->shed_retry_after_ms(
          net::kDefaultDeviceClass, retry_ms);
    }
    if (config_.trace)
      config_.trace->event("shed", {{"reason", "checkin queue full"}});
    const net::AckMessage nack{
        false, net::retry_after_reason("checkin queue full", retry_ms)};
    loop->send(conn_id,
               net::encode_frame(net::MessageType::kAck, nack.serialize()));
  }
}

void EpollCrowdServer::republish() { board_.publish(server_); }

void EpollCrowdServer::set_checkin_redirect(const std::string& leader_addr) {
  {
    std::lock_guard<std::mutex> lock(redirect_mu_);
    checkin_redirect_ = leader_addr;
    checkin_redirect_frame_ = make_redirect_frame(leader_addr);
  }
  // Release so an I/O thread that sees the flag also sees the frame it
  // guards (and, on promotion, a publisher handoff already completed).
  redirect_active_.store(!leader_addr.empty(), std::memory_order_release);
}

void EpollCrowdServer::set_group_commit(std::function<bool()> hook) {
  std::lock_guard<std::mutex> lock(gc_mu_);
  group_commit_ = std::move(hook);
}

bool EpollCrowdServer::group_commit() {
  // Copied under its lock each batch so promotion can swap the hook in
  // between commits.
  std::function<bool()> commit;
  {
    std::lock_guard<std::mutex> lock(gc_mu_);
    commit = group_commit_;
  }
  return !commit || commit();
}

void EpollCrowdServer::shutdown() {
  if (stopping_.exchange(true)) return;
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  // Drain before stopping the loops: every admitted request still gets
  // its response, and the applier's completions post to live loops.
  queue_.close();
  if (applier_.joinable()) applier_.join();
  // Multimodel: the pool's per-instance appliers drain here, while the
  // loops are still alive to carry their responses.
  if (config_.shutdown_drain) config_.shutdown_drain();
  for (auto& loop : loops_) loop->stop();
}

}  // namespace crowdml::engine
