#include "engine/applier.hpp"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <optional>
#include <thread>
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

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The applier's committer: one thread that runs the group-commit hook
/// for the batch in flight, then wakes the applier's queue so the batch
/// is released at once. It sleeps on a condition variable between
/// commits and never wakes on a timer.
class Committer {
 public:
  explicit Committer(CheckinQueue& queue)
      : queue_(queue), thread_([this] { run(); }) {}
  ~Committer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Committer(const Committer&) = delete;
  Committer& operator=(const Committer&) = delete;

  /// Start committing through `hook`; only while no commit is in flight.
  void start(std::function<bool()> hook) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook_ = std::move(hook);
      state_ = State::kRunning;
    }
    cv_.notify_all();
  }
  /// True once the commit in flight has returned.
  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == State::kDone;
  }
  /// Block until the commit in flight has returned.
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return state_ == State::kDone; });
  }
  /// The returned commit's result and its duration in seconds; the
  /// committer is free again.
  bool take(double* seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = State::kIdle;
    *seconds = seconds_;
    return ok_;
  }

 private:
  enum class State { kIdle, kRunning, kDone };

  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || state_ == State::kRunning; });
      if (state_ != State::kRunning) return;
      lock.unlock();
      const Clock::time_point start = Clock::now();
      const bool ok = hook_();
      const double seconds = seconds_between(start, Clock::now());
      lock.lock();
      ok_ = ok;
      seconds_ = seconds;
      state_ = State::kDone;
      cv_.notify_all();
      lock.unlock();
      queue_.wake();
      lock.lock();
    }
  }

  CheckinQueue& queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  State state_ = State::kIdle;
  std::function<bool()> hook_;  // the hook of the commit in flight
  bool ok_ = false;
  double seconds_ = 0.0;
  bool stop_ = false;
  std::thread thread_;  // last: starts once every member above exists
};

/// One group-commit unit: the requests applied together, their replies,
/// and the board snapshot taken right after they were applied.
struct Batch {
  std::vector<CheckinWork> work;
  std::vector<net::Bytes> responses;
  std::vector<std::uint8_t> classes;
  /// work[0, arrived) came off the queue; later entries are owed replies.
  std::size_t arrived = 0;
  std::size_t client_frames = 0;
  /// Internal records applied up to the seal; a successful commit of this
  /// batch covers them.
  std::size_t records_covered = 0;
  /// Time spent applying this batch's requests, not waiting for them.
  double apply_seconds = 0.0;
  std::shared_ptr<ModelSnapshot> snapshot;

  void clear() {
    work.clear();
    responses.clear();
    classes.clear();
    arrived = 0;
    client_frames = 0;
    records_covered = 0;
    apply_seconds = 0.0;
    snapshot.reset();
  }
};

}  // namespace

void run_applier(const ApplierParts& p) {
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
  obs::Histogram& commit_wait_seconds = reg.histogram(
      "crowdml_engine_commit_wait_seconds",
      "Time the applier sat idle waiting for the committer before "
      "releasing a batch (0 when the next batch was still being applied)",
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

  // `cur` is being applied; `flight` is committing while `in_flight`.
  Batch cur, flight;
  bool in_flight = false;
  // Started on the first batch that has a hook to run: an applier whose
  // commit is a no-op never hands a batch to another thread.
  std::optional<Committer> committer;
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
  // Internal records applied and not yet covered by a successful commit.
  std::size_t uncommitted_records = 0;
  // Set once the queue is closed and drained; the flush that follows an
  // idle close is tried once.
  bool closing = false;
  bool close_flushed = false;
  // When the applier last ran out of work with a batch in flight.
  bool idle = false;
  Clock::time_point idle_since;
  // Held requests: parked, owed after a failed commit, and owed replies
  // riding the batch in flight (still unanswered until it is released).
  const auto set_parked_gauge = [&] {
    if (!parked_gauge) return;
    std::size_t n = parked.size() + held.size();
    if (in_flight) n += flight.work.size() - flight.arrived;
    parked_gauge->set(static_cast<double>(n));
  };

  // The release step: everything that waits for `b`'s commit to return.
  const auto release = [&](Batch& b, bool committed, double commit_seconds) {
    if (p.coordinator && b.arrived > 0)
      p.coordinator->observe_commit(b.client_frames, b.apply_seconds,
                                    commit_seconds);
    if (!committed) {
      ++commit_failures;
      if (p.trace) p.trace->event("group_commit_failed", {{"batch", b.arrived}});
      const net::AckMessage nack{false, "durability failure"};
      const net::Bytes nack_frame =
          net::encode_frame(net::MessageType::kAck, nack.serialize());
      for (std::size_t i = 0; i < b.arrived; ++i)
        if (is_checkin(b.work[i].frame) && is_ok_ack(b.responses[i]))
          b.responses[i] = nack_frame;
      // Owed replies, and a new "round complete" reply — the round's ack
      // — wait for a commit that succeeds (past the cap, or when closing,
      // "complete" becomes the nack instead).
      for (std::size_t i = 0; p.secagg && i < b.work.size(); ++i) {
        const bool owed_reply = i >= b.arrived;
        const bool complete = is_secagg_request(b.work[i].frame) &&
                              says_complete(b.responses[i]);
        if (!owed_reply && !complete) continue;
        if (!closing &&
            (owed_reply || parked.size() + held.size() < park_cap)) {
          held.emplace_back(std::move(b.work[i]), std::move(b.responses[i]));
          b.work[i].loop = nullptr;
          b.work[i].complete = nullptr;
        } else if (complete) {
          b.responses[i] = nack_frame;
        }
      }
    }

    // Every checkin ack (ok, rejection, or durability nack — the device
    // is coming back either way) reserves its class's next arrival slot.
    if (p.coordinator)
      for (std::size_t i = 0; i < b.arrived; ++i)
        if (is_checkin(b.work[i].frame))
          b.responses[i] = net::frame_with_checkin_hint(
              b.responses[i], p.coordinator->checkin_hint_ms(b.classes[i]));

    if (b.snapshot &&
        (!p.publish_paused || !p.publish_paused->load(std::memory_order_acquire)))
      p.board.install(std::move(b.snapshot));
    set_parked_gauge();

    // Internal records and parked requests have no destination here.
    by_loop.clear();
    for (std::size_t i = 0; i < b.work.size(); ++i) {
      CheckinWork& work = b.work[i];
      if (work.complete) {
        work.complete(std::move(b.responses[i]));
        continue;
      }
      if (!work.loop) continue;
      auto it = by_loop.begin();
      while (it != by_loop.end() && it->first != work.loop) ++it;
      if (it == by_loop.end())
        it = by_loop.insert(by_loop.end(), {work.loop, Outbox{}});
      it->second.emplace_back(work.conn_id, std::move(b.responses[i]));
    }
    for (auto& [loop, items] : by_loop) loop->send_many(std::move(items));
    b.clear();
  };

  // Hand `cur` to the committer, or release it now when it owes no
  // commit or there is no hook to commit it with; either way `cur` is
  // empty afterwards.
  const auto seal = [&](bool commit_due) {
    cur.records_covered = uncommitted_records;
    std::function<bool()> hook;
    if (commit_due) hook = p.commit();
    if (!hook) {
      if (commit_due) uncommitted_records -= cur.records_covered;
      release(cur, true, 0.0);
      return;
    }
    std::swap(cur, flight);
    in_flight = true;
    if (!committer) committer.emplace(p.queue);
    committer->start(std::move(hook));
  };

  for (;;) {
    // Drain: while a batch commits, keep filling the next one, up to
    // batch_max; the committer's wake ends the wait when it returns.
    const Clock::time_point pass_start = Clock::now();
    const bool drained_in_flight = in_flight;
    std::size_t n = 0;
    if (in_flight && (closing || cur.arrived >= p.batch_max)) {
      committer->wait();
    } else {
      int wait_ms = 100;
      if (!parked.empty()) {
        const std::int64_t due = p.secagg->ms_until_next_deadline();
        if (due >= 0 && due < wait_ms) wait_ms = static_cast<int>(due);
      }
      n = p.queue.drain(cur.work, p.batch_max - cur.arrived, wait_ms);
      closing = n == 0 && p.queue.closed();
    }
    p.board.refresh_age_gauge();
    if (p.closed) {
      // Requests held for connections that have gone away are dropped.
      p.closed->take(closed);
      std::erase_if(parked, gone);
      std::erase_if(held, [&](const auto& h) { return gone(h.first); });
      set_parked_gauge();
    }

    // Apply what this pass drained, in arrival order.
    if (n > 0) {
      idle = false;
      // Steering input: the backlog left behind by this drain.
      if (p.coordinator) p.coordinator->observe_queue_depth(p.queue.depth());
      const Clock::time_point apply_start = Clock::now();
      cur.responses.reserve(cur.arrived + n);
      cur.classes.reserve(cur.arrived + n);
      for (std::size_t k = cur.arrived; k < cur.arrived + n; ++k) {
        CheckinWork& work = cur.work[k];
        std::uint8_t cls = net::kDefaultDeviceClass;
        if (p.records && p.records->apply(work.frame)) {
          cur.responses.emplace_back();
          ++uncommitted_records;
        } else {
          ++cur.client_frames;
          {
            obs::TimedScope timer(handle_seconds);
            cur.responses.push_back(p.protocol.handle(work.frame, &cls));
          }
          if (p.secagg && parked.size() + held.size() < park_cap &&
              not_ready(work.frame, cur.responses.back())) {
            parked.push_back(std::move(work));
            work.loop = nullptr;  // the slot left behind releases nothing
            work.complete = nullptr;
            ++*parked_total;
          }
        }
        cur.classes.push_back(cls);
      }
      cur.arrived += n;
      cur.apply_seconds += seconds_between(apply_start, Clock::now());
    } else if (in_flight && !idle) {
      idle = true;
      idle_since = pass_start;
    }

    // Release: batch N's acks leave only once its commit has returned.
    if (in_flight) {
      if (!committer->done()) continue;
      double commit_seconds = 0.0;
      const bool committed = committer->take(&commit_seconds);
      in_flight = false;
      commit_wait_seconds.observe(
          idle ? seconds_between(idle_since, Clock::now()) : 0.0);
      idle = false;
      if (committed) uncommitted_records -= flight.records_covered;
      release(flight, committed, commit_seconds);
    }

    // Seal: nothing is in flight, so the batch applied so far goes next.
    // An idle pass is a drain that waited with nothing in flight and got
    // nothing; it re-asks parked requests and flushes internal records.
    const bool idle_pass = n == 0 && !drained_in_flight;
    const bool rehandle =
        !parked.empty() &&
        (idle_pass || p.secagg->changes() != seen_changes ||
         p.secagg->ms_until_next_deadline() == 0);
    if (cur.arrived == 0 && held.empty() && !rehandle) {
      // Idle flush (see InternalRecords). A failed flush leaves the
      // records pending for the next idle pass; on close it is tried once.
      if (uncommitted_records > 0 && (closing ? !close_flushed : idle_pass)) {
        close_flushed = closing;
        seal(true);
        continue;
      }
      if (closing) break;
      continue;
    }

    // Owed replies join the batch after `arrived`: first the answers a
    // failed commit held back, then parked requests asked again and now
    // answered. Asking may itself move the manager (a deadline acted
    // on), so repeat until a pass changes nothing. When closing, every
    // parked request is answered, ready or not.
    const Clock::time_point owed_start = Clock::now();
    const bool owed = rehandle || !held.empty();
    for (auto& [work, response] : held) {
      cur.work.push_back(std::move(work));
      cur.responses.push_back(std::move(response));
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
          cur.work.push_back(std::move(work));
          cur.responses.push_back(std::move(response));
        }
        parked.swap(still_parked);
      } while (!parked.empty() && p.secagg->changes() != before);
      seen_changes = p.secagg->changes();
    }
    cur.classes.resize(cur.work.size(), net::kDefaultDeviceClass);
    cur.apply_seconds += seconds_between(owed_start, Clock::now());

    if (p.records) p.records->end_batch(*p.lanes);
    // The snapshot is taken now, while nothing else is applied, and
    // installed at release: the board never shows uncommitted state.
    if (!p.publish_paused || !p.publish_paused->load(std::memory_order_acquire))
      cur.snapshot = ModelSnapshotBoard::snapshot(p.server);
    if (cur.arrived > 0) batch_size.observe(static_cast<double>(cur.arrived));
    seal(cur.client_frames > 0 || owed ||
         (p.records && uncommitted_records >= kRecordFlush));
  }
}

}  // namespace crowdml::engine
