#include "engine/applier.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "engine/event_loop.hpp"
#include "obs/profile.hpp"

namespace crowdml::engine {

namespace {

bool is_checkin(const net::Bytes& frame) {
  return frame.size() > net::kFrameTypeOffset &&
         frame[net::kFrameTypeOffset] ==
             static_cast<std::uint8_t>(net::MessageType::kCheckin);
}

bool is_ok_ack(const net::Bytes& response) {
  try {
    const net::Frame f = net::decode_frame(response);
    return f.type == net::MessageType::kAck &&
           net::AckMessage::deserialize(f.payload).ok;
  } catch (const net::CodecError&) {
    return false;  // responses the protocol server encoded always decode
  }
}

}  // namespace

obs::Counter& commit_failures_counter(obs::MetricsRegistry& registry) {
  return registry.counter(
      "crowdml_engine_commit_failures_total",
      "Applier batches whose group commit failed (all acks nacked)",
      obs::Provenance::kTransportEvent);
}

void run_applier(const ApplierParts& p) {
  using Clock = std::chrono::steady_clock;
  obs::MetricsRegistry& reg = p.metrics ? *p.metrics : obs::default_registry();
  obs::Counter& commit_failures = commit_failures_counter(reg);
  obs::Histogram& batch_size = reg.histogram(
      "crowdml_engine_batch_size",
      "Checkins applied per applier wakeup (group-commit batch)",
      obs::Provenance::kTransportEvent, obs::exponential_bounds(1.0, 2.0, 10));
  obs::Histogram& handle_seconds = reg.histogram(
      "crowdml_server_handle_seconds",
      "Whole request dispatch: decode, authenticate, apply, encode",
      obs::Provenance::kTiming);

  std::vector<CheckinWork> batch;
  std::vector<net::Bytes> responses;
  std::vector<std::uint8_t> classes;
  using Outbox = std::vector<std::pair<std::uint64_t, net::Bytes>>;
  std::vector<std::pair<EventLoop*, Outbox>> by_loop;
  for (;;) {
    batch.clear();
    responses.clear();
    classes.clear();
    const std::size_t n = p.queue.drain(batch, p.batch_max, 100);
    p.board.refresh_age_gauge();
    if (n == 0) {
      // Idle flush (see InternalRecords). A failed flush leaves the
      // records pending for the next pass.
      if (p.records && p.records->uncommitted() > 0) p.commit();
      if (p.queue.closed()) break;
      continue;
    }
    // Steering inputs: the backlog left behind by this drain, then the
    // batch's apply/commit wall time (fsync stalls discount capacity).
    if (p.coordinator) p.coordinator->observe_queue_depth(p.queue.depth());
    const Clock::time_point apply_start = Clock::now();

    responses.reserve(n);
    classes.reserve(n);
    std::size_t client_frames = 0;
    for (const CheckinWork& work : batch) {
      std::uint8_t cls = net::kDefaultDeviceClass;
      if (p.records && p.records->apply(work.frame)) {
        responses.emplace_back();
      } else {
        ++client_frames;
        obs::TimedScope timer(handle_seconds);
        responses.push_back(p.protocol.handle(work.frame, &cls));
      }
      classes.push_back(cls);
    }

    const Clock::time_point commit_start = Clock::now();
    const bool commit_due =
        client_frames > 0 ||
        (p.records && p.records->uncommitted() >= kRecordFlush);
    const bool committed = !commit_due || p.commit();
    if (p.coordinator)
      p.coordinator->observe_commit(
          client_frames,
          std::chrono::duration<double>(commit_start - apply_start).count(),
          std::chrono::duration<double>(Clock::now() - commit_start).count());
    if (!committed) {
      ++commit_failures;
      if (p.trace) p.trace->event("group_commit_failed", {{"batch", n}});
      const net::AckMessage nack{false, "durability failure"};
      const net::Bytes nack_frame =
          net::encode_frame(net::MessageType::kAck, nack.serialize());
      for (std::size_t i = 0; i < n; ++i)
        if (is_checkin(batch[i].frame) && is_ok_ack(responses[i]))
          responses[i] = nack_frame;
    }

    // Every checkin ack (ok, rejection, or durability nack — the device
    // is coming back either way) reserves its class's next arrival slot.
    if (p.coordinator)
      for (std::size_t i = 0; i < n; ++i)
        if (is_checkin(batch[i].frame))
          responses[i] = net::frame_with_checkin_hint(
              responses[i], p.coordinator->checkin_hint_ms(classes[i]));

    if (p.records) p.records->end_batch();
    if (!p.publish_paused || !p.publish_paused->load(std::memory_order_acquire))
      p.board.publish(p.server);
    batch_size.observe(static_cast<double>(n));

    // Internal records have no destination and fall through.
    by_loop.clear();
    for (std::size_t i = 0; i < n; ++i) {
      CheckinWork& work = batch[i];
      if (work.complete) {
        work.complete(std::move(responses[i]));
        continue;
      }
      if (!work.loop) continue;
      auto it = by_loop.begin();
      while (it != by_loop.end() && it->first != work.loop) ++it;
      if (it == by_loop.end())
        it = by_loop.insert(by_loop.end(), {work.loop, Outbox{}});
      it->second.emplace_back(work.conn_id, std::move(responses[i]));
    }
    for (auto& [loop, items] : by_loop) loop->send_many(std::move(items));
  }
}

}  // namespace crowdml::engine
