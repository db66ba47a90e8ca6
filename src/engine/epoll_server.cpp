#include "engine/epoll_server.hpp"

#include <stdexcept>
#include <utility>

#include "engine/applier.hpp"
#include "rng/engine.hpp"

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

EpollCrowdServer::Lane::Lane(LaneConfig lane, net::AuthRegistry& auth,
                             const EngineConfig& config)
    : server(lane.server),
      protocol(lane.server, auth, config.trace),
      board(config.metrics),
      queue(config.checkin_queue_max, config.metrics),
      coordinator(lane.coordinator),
      records(lane.records),
      group_commit(std::move(lane.group_commit)) {
  protocol.set_secagg(config.secagg);
  protocol.set_shard(config.shard);
  // The board must hold a snapshot before any I/O thread can serve a
  // checkout from it.
  board.publish(server);
}

EpollCrowdServer::EpollCrowdServer(core::Server& server,
                                   net::AuthRegistry& auth,
                                   EngineConfig config)
    : EpollCrowdServer(
          {LaneConfig{server, config.group_commit, config.coordinator}}, auth,
          config, 1) {}

EpollCrowdServer::EpollCrowdServer(std::vector<LaneConfig> lanes,
                                   net::AuthRegistry& auth,
                                   EngineConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      auth_(auth),
      counters_(config_.metrics),
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
  if (lanes.empty())
    throw std::invalid_argument("EpollCrowdServer: no lanes");
  if (config_.io_threads == 0) config_.io_threads = 1;
  if (config_.checkin_batch_max == 0) config_.checkin_batch_max = 1;
  set_checkin_redirect(config_.checkin_redirect);
  // Independent draw and route streams, both derived from the seed.
  std::uint64_t seed_state = seed;
  for (Draws* draws : {&checkout_draws_, &route_draws_}) {
    draws->state.store(rng::splitmix64(seed_state));
    draws->counts = std::vector<std::atomic<long long>>(lanes.size());
  }
  for (LaneConfig& lane : lanes) {
    lanes_.push_back(std::make_unique<Lane>(std::move(lane), auth, config_));
    queues_.push_back(&lanes_.back()->queue);
  }

  EventLoop::Options loop_opts;
  loop_opts.idle_timeout_ms = config_.idle_timeout_ms;
  loop_opts.metrics = config_.metrics;
  loop_opts.idle_closed = &counters_.idle_closed;
  loop_opts.trace = config_.trace;
  loops_.reserve(config_.io_threads);
  for (std::size_t i = 0; i < config_.io_threads; ++i) {
    // With secagg, the appliers hold requests per connection and must
    // hear when one closes.
    if (config_.secagg)
      loop_opts.on_close = [this, i](std::uint64_t conn_id) {
        for (auto& lane : lanes_) lane->closed.add(loops_[i].get(), conn_id);
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
  for (auto& lane : lanes_) {
    Lane* l = lane.get();
    l->applier = std::thread([this, l] {
      run_applier({.queue = l->queue,
                   .server = l->server,
                   .protocol = l->protocol,
                   .board = l->board,
                   .batch_max = config_.checkin_batch_max,
                   // Copied under its lock each batch so promotion can
                   // swap the hook in between commits.
                   .commit =
                       [l] {
                         std::lock_guard<std::mutex> lock(l->gc_mu);
                         return l->group_commit;
                       },
                   .coordinator = l->coordinator,
                   .publish_paused = &redirect_active_,
                   .records = l->records,
                   .lanes = &queues_,
                   .secagg = config_.secagg,
                   .closed = config_.secagg ? &l->closed : nullptr,
                   .metrics = config_.metrics,
                   .trace = config_.trace});
    });
  }
}

EpollCrowdServer::~EpollCrowdServer() { shutdown(); }

namespace {

std::vector<long long> load_all(
    const std::vector<std::atomic<long long>>& counts) {
  std::vector<long long> out;
  for (const auto& c : counts) out.push_back(c.load());
  return out;
}

}  // namespace

std::vector<long long> EpollCrowdServer::draw_counts() const {
  return load_all(checkout_draws_.counts);
}

std::vector<long long> EpollCrowdServer::route_counts() const {
  return load_all(route_draws_.counts);
}

EpollCrowdServer::Lane& EpollCrowdServer::pick(Draws& draws) {
  if (lanes_.size() == 1) return *lanes_[0];
  // The atomic step is the SplitMix64 state step, so concurrent I/O
  // threads each get a distinct, well-mixed draw.
  std::uint64_t state =
      draws.state.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed);
  const std::size_t i = rng::splitmix64(state) % lanes_.size();
  draws.counts[i].fetch_add(1, std::memory_order_relaxed);
  return *lanes_[i];
}

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
        Lane& lane = pick(checkout_draws_);
        const auto snap = lane.board.current();
        ++checkouts_served_;
        if (config_.trace)
          config_.trace->event("checkout", {{"device", req.device_id},
                                            {"round", snap->version},
                                            {"accepted", snap->accepted}});
        // Pace steering: append the class's advisory hint to the board's
        // pre-encoded frame (a payload slice + re-CRC, never a
        // ParamsMessage round trip). Without a coordinator the frame is
        // passed through byte-identically.
        if (lane.coordinator) {
          loop->send(conn_id,
                     net::frame_with_checkin_hint(
                         snap->params_frame,
                         lane.coordinator->checkout_hint_ms(req.device_class)));
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
  Lane& lane = pick(route_draws_);
  if (!lane.queue.try_push(std::move(work))) {
    // Last-resort shed. With a coordinator the retry hint reserves the
    // (default-class; the frame is not decoded on this path) next paced
    // slot, so turned-away devices rejoin spread out instead of
    // re-colliding after a fixed delay.
    int retry_ms = config_.queue_retry_after_ms;
    if (lane.coordinator) {
      lane.coordinator->observe_queue_depth(lane.queue.depth());
      retry_ms = lane.coordinator->shed_retry_after_ms(
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

void EpollCrowdServer::republish() {
  for (auto& lane : lanes_) lane->board.publish(lane->server);
}

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
  std::lock_guard<std::mutex> lock(lanes_[0]->gc_mu);
  lanes_[0]->group_commit = std::move(hook);
}

void EpollCrowdServer::shutdown() {
  if (stopping_.exchange(true)) return;
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  // Drain before stopping the loops: every admitted request still gets
  // its response, and the appliers' completions post to live loops. All
  // queues close first; a record pushed to a closed lane is dropped.
  for (auto& lane : lanes_) lane->queue.close();
  for (auto& lane : lanes_)
    if (lane->applier.joinable()) lane->applier.join();
  for (auto& loop : loops_) loop->stop();
}

}  // namespace crowdml::engine
