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

bool is_secagg_request(const net::Bytes& frame) {
  return frame.size() > net::kFrameTypeOffset &&
         (frame[net::kFrameTypeOffset] ==
              static_cast<std::uint8_t>(net::MessageType::kSecAggAssign) ||
          frame[net::kFrameTypeOffset] ==
              static_cast<std::uint8_t>(net::MessageType::kSecAggReveal));
}

/// The secagg status a reply carries: an assign reply's or a status
/// reply's, -1 for any other frame.
int secagg_status(const net::Bytes& response, net::MessageType type) {
  try {
    const net::Frame f = net::decode_frame(response);
    if (f.type != type) return -1;
    if (type == net::MessageType::kSecAggAssign)
      return net::SecAggAssignMessage::deserialize(f.payload).status;
    return net::SecAggRevealMessage::deserialize(f.payload).status;
  } catch (const net::CodecError&) {
    return -1;
  }
}

/// A pending assign or a collecting status poll: a reply that only says
/// "ask again later".
bool not_ready(const net::Bytes& request, const net::Bytes& response) {
  if (!is_secagg_request(request)) return false;
  const auto type = static_cast<net::MessageType>(request[net::kFrameTypeOffset]);
  const int status = secagg_status(response, type);
  return type == net::MessageType::kSecAggAssign
             ? status == net::kSecAggAssignPending
             : status == net::kSecAggRoundCollecting;
}

/// A status reply telling the device its round was applied.
bool says_complete(const net::Bytes& response) {
  return secagg_status(response, net::MessageType::kSecAggReveal) ==
         net::kSecAggRoundComplete;
}

}  // namespace

void ClosedConnections::add(EventLoop* loop, std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace_back(loop, conn_id);
}

void ClosedConnections::take(std::vector<Entry>& out) {
  out.clear();
  std::lock_guard<std::mutex> lock(mu_);
  out.swap(entries_);
}

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
  obs::Counter* parked_total = nullptr;
  obs::Gauge* parked_gauge = nullptr;
  if (p.secagg) {
    parked_total = &reg.counter(
        "crowdml_engine_secagg_parked_total",
        "Secagg assign/status requests held until their answer was ready",
        obs::Provenance::kTransportEvent);
    parked_gauge = &reg.gauge(
        "crowdml_engine_secagg_parked",
        "Secagg assign/status requests currently held by the applier",
        obs::Provenance::kTransportEvent);
  }

  std::vector<CheckinWork> batch;
  std::vector<net::Bytes> responses;
  std::vector<std::uint8_t> classes;
  using Outbox = std::vector<std::pair<std::uint64_t, net::Bytes>>;
  std::vector<std::pair<EventLoop*, Outbox>> by_loop;
  // The park step's state (applier thread only; empty without secagg):
  // requests whose answer is not ready, and answers decided in a batch
  // whose commit failed, owed once a later commit succeeds.
  std::vector<CheckinWork> parked, still_parked;
  std::vector<std::pair<CheckinWork, net::Bytes>> held;
  std::vector<ClosedConnections::Entry> closed;
  std::uint64_t seen_changes = 0;
  const std::size_t park_cap = p.queue.capacity();
  const auto gone = [&](const CheckinWork& w) {
    for (const auto& [loop, conn_id] : closed)
      if (w.loop == loop && w.conn_id == conn_id) return true;
    return false;
  };

  for (;;) {
    batch.clear();
    responses.clear();
    classes.clear();
    int wait_ms = 100;
    if (!parked.empty()) {
      const std::int64_t due = p.secagg->ms_until_next_deadline();
      if (due >= 0 && due < wait_ms) wait_ms = static_cast<int>(due);
    }
    const std::size_t n = p.queue.drain(batch, p.batch_max, wait_ms);
    p.board.refresh_age_gauge();
    const bool closing = n == 0 && p.queue.closed();
    if (p.closed) {
      // Requests held for connections that have gone away are dropped.
      p.closed->take(closed);
      std::erase_if(parked, gone);
      std::erase_if(held, [&](const auto& h) { return gone(h.first); });
      parked_gauge->set(static_cast<double>(parked.size() + held.size()));
    }
    const auto rehandle_due = [&] {
      return !parked.empty() &&
             (n == 0 || p.secagg->changes() != seen_changes ||
              p.secagg->ms_until_next_deadline() == 0);
    };
    if (n == 0 && held.empty() && !rehandle_due()) {
      // Idle flush (see InternalRecords). A failed flush leaves the
      // records pending for the next pass.
      if (p.records && p.records->uncommitted() > 0) p.commit();
      if (closing) break;
      continue;
    }
    // Steering inputs: the backlog left behind by this drain, then the
    // batch's apply/commit wall time (fsync stalls discount capacity).
    if (p.coordinator && n > 0)
      p.coordinator->observe_queue_depth(p.queue.depth());
    const Clock::time_point apply_start = Clock::now();

    responses.reserve(n);
    classes.reserve(n);
    std::size_t client_frames = 0;
    for (CheckinWork& work : batch) {
      std::uint8_t cls = net::kDefaultDeviceClass;
      if (p.records && p.records->apply(work.frame)) {
        responses.emplace_back();
      } else {
        ++client_frames;
        {
          obs::TimedScope timer(handle_seconds);
          responses.push_back(p.protocol.handle(work.frame, &cls));
        }
        if (p.secagg && parked.size() + held.size() < park_cap &&
            not_ready(work.frame, responses.back())) {
          parked.push_back(std::move(work));
          work.loop = nullptr;  // the slot left behind releases nothing
          work.complete = nullptr;
          ++*parked_total;
        }
      }
      classes.push_back(cls);
    }

    // Owed replies join the batch after `n`: first the answers a failed
    // commit held back, then parked requests asked again and now
    // answered. Asking may itself move the manager (a deadline acted
    // on), so repeat until a pass changes nothing. When closing, every
    // parked request is answered, ready or not.
    const bool rehandle = rehandle_due();
    const bool owed = rehandle || !held.empty();
    for (auto& [work, response] : held) {
      batch.push_back(std::move(work));
      responses.push_back(std::move(response));
    }
    held.clear();
    if (rehandle) {
      std::uint64_t before;
      do {
        before = p.secagg->changes();
        still_parked.clear();
        for (CheckinWork& work : parked) {
          net::Bytes response = p.protocol.handle(work.frame);
          if (!closing && not_ready(work.frame, response)) {
            still_parked.push_back(std::move(work));
            continue;
          }
          batch.push_back(std::move(work));
          responses.push_back(std::move(response));
        }
        parked.swap(still_parked);
      } while (!parked.empty() && p.secagg->changes() != before);
      seen_changes = p.secagg->changes();
    }
    classes.resize(batch.size(), net::kDefaultDeviceClass);

    const Clock::time_point commit_start = Clock::now();
    const bool commit_due =
        client_frames > 0 || owed ||
        (p.records && p.records->uncommitted() >= kRecordFlush);
    const bool committed = !commit_due || p.commit();
    if (p.coordinator && n > 0)
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
      // Owed replies, and a new "round complete" reply — the round's ack
      // — wait for a commit that succeeds (past the cap, or when closing,
      // "complete" becomes the nack instead).
      for (std::size_t i = 0; p.secagg && i < batch.size(); ++i) {
        const bool owed_reply = i >= n;
        const bool complete = is_secagg_request(batch[i].frame) &&
                              says_complete(responses[i]);
        if (!owed_reply && !complete) continue;
        if (!closing &&
            (owed_reply || parked.size() + held.size() < park_cap)) {
          held.emplace_back(std::move(batch[i]), std::move(responses[i]));
          batch[i].loop = nullptr;
          batch[i].complete = nullptr;
        } else if (complete) {
          responses[i] = nack_frame;
        }
      }
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
    if (n > 0) batch_size.observe(static_cast<double>(n));
    if (parked_gauge)
      parked_gauge->set(static_cast<double>(parked.size() + held.size()));

    // Internal records and parked requests have no destination here.
    by_loop.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
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
    if (closing) break;
  }
}

}  // namespace crowdml::engine
