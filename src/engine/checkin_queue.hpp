// Bounded MPSC checkin queue with load shedding.
//
// I/O threads (producers) enqueue every non-checkout frame; the single
// applier thread (consumer) drains them in arrival order and applies the
// SGD updates, so the server's update sequence is the order the requests
// were admitted in (engine/applier.hpp). The bound is the
// admission-control valve: when the applier falls behind, try_push fails
// and the I/O thread sheds the request with a retry_after nack instead
// of letting the backlog (and every device's latency) grow without
// bound. Shedding a checkin is safe by the same argument as a lost one
// (Remark 1): the device treats the cycle as failed and never replays.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"

namespace crowdml::engine {

class EventLoop;

/// One queued request: the raw frame plus where the response goes. The
/// applier answers every dequeued item exactly once — batching all
/// responses bound for the same `loop` into a single send_many post (one
/// wakeup per loop per batch, not per response). `complete`, when set,
/// overrides the loop route (tests, custom sinks); it must be cheap and
/// must not block.
struct CheckinWork {
  net::Bytes frame;
  std::uint64_t conn_id = 0;   ///< connection to answer on `loop`
  EventLoop* loop = nullptr;   ///< owning event loop for the response
  std::function<void(net::Bytes&&)> complete;
};

class CheckinQueue {
 public:
  /// `max` items may wait; further pushes shed. `metrics` (null =
  /// obs::default_registry()) receives depth/shed/enqueue instruments.
  explicit CheckinQueue(std::size_t max,
                        obs::MetricsRegistry* metrics = nullptr);

  /// Enqueue, waking the applier. False (and the item untouched) when
  /// the queue is full or closed — the caller sheds with a nack.
  bool try_push(CheckinWork work);

  /// Pop up to `max_batch` items into `out` (appended), waiting up to
  /// `timeout_ms` for the first one. Returns the number popped; 0 on
  /// timeout or when the queue is closed and drained. The timeout bounds
  /// how stale the applier's housekeeping (snapshot-age gauge, stop
  /// checks) can get when traffic pauses.
  std::size_t drain(std::vector<CheckinWork>& out, std::size_t max_batch,
                    int timeout_ms);

  /// End the current drain wait now, or the next one at once if none is
  /// waiting, even with nothing queued (the applier's committer uses it
  /// to say a commit returned). One wake ends one wait.
  void wake();

  /// Stop accepting pushes and wake the applier. Items already queued
  /// remain drainable so every accepted request still gets a response.
  void close();

  bool closed() const;
  std::size_t depth() const;
  std::size_t capacity() const { return max_; }
  long long shed() const { return shed_total_.value(); }

 private:
  const std::size_t max_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<CheckinWork> items_;
  bool closed_ = false;
  bool woken_ = false;

  obs::Gauge& depth_gauge_;
  obs::Counter& enqueued_total_;
  obs::Counter& shed_total_;
};

}  // namespace crowdml::engine
