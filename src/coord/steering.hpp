// Pace steering: turn reactive shedding into proactive admission.
//
// The serving engine's only overload tool used to be the retry_after_ms
// nack — devices arrive whenever they like, and the checkin queue's
// high-water mark decides who gets turned away. PaceSteering inverts
// that ("Towards Federated Learning at Scale", Bonawitz et al.): the
// server computes a target checkin arrival rate from what the applier is
// actually absorbing, and every ack tells its device when the next
// checkin should arrive. In steady state arrivals match capacity and the
// shed path becomes the last resort it was always meant to be.
//
// The policy is a per-class virtual-time token bucket:
//
//   target rate R = service_rate × target_utilization × fill_throttle
//
//   - service_rate: projected applier *capacity*, batch_max /
//     max(batch_max·apply_per_record, commit_latency) — the applier
//     applies one batch while the previous one commits — from EWMAs of
//     the per-record apply cost and the per-batch group-commit latency
//     (fsync stalls included) — NOT achieved throughput, which collapses
//     with arrivals once steering works and would spiral the fleet down
//     (see observe_commit);
//   - fill_throttle: the --checkin-queue-max headroom term. Queue fill
//     below `fill_low` steers at the full target; between `fill_low`
//     and `fill_high` the rate ramps linearly down to `throttle_floor`
//     (mild by design — backlog *recovery* belongs to the drain-horizon
//     floor below, not the rate term; see SteeringConfig);
//   - each device class owns a share R·wᵢ/Σw of that rate and its own
//     virtual clock: a consuming hint reserves the class's next arrival
//     slot (clock += 1/rateᵢ) and answers "slot − now". Devices obeying
//     their hints therefore arrive ~1/rateᵢ apart, per class, with no
//     per-device state on the server;
//   - under overload (fill past `fill_low`) low-priority classes are
//     additionally stretched: interval ×= 1 + spread·pressure·rank, so
//     the first-listed class keeps its slots while `flaky` waits.
//
// Two further commit-latency guards: the virtual clock is never pulled
// earlier than now + the EWMA commit latency (a hint can't beat one
// commit cycle), and while fill ≥ fill_high every hint is floored by the
// measured backlog drain horizon (depth / service_rate).
//
// Thread-safety: next_hint_ms races only on atomics (fetch_add reserves
// slots; concurrent callers get distinct slots); the observe_* feeds are
// relaxed stores from the applier thread. No locks anywhere near an ack.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "coord/device_class.hpp"

namespace crowdml::coord {

struct SteeringConfig {
  /// Fraction of the measured applier service rate to steer toward.
  /// < 1 leaves headroom for arrival jitter and un-steered devices.
  double target_utilization = 0.7;
  /// Assumed capacity (checkins/s) until the first commit is observed.
  double init_rate_per_s = 2000.0;
  std::uint32_t min_hint_ms = 5;
  std::uint32_t max_hint_ms = 30'000;
  /// --checkin-queue-max: the headroom reference for fill_throttle.
  std::size_t queue_max = 1024;
  /// --checkin-batch-max: the applier's group-commit batch bound, used to
  /// project capacity from the measured per-record apply cost and
  /// per-batch commit latency (see observe_commit).
  std::size_t batch_max = 256;
  /// Queue-fill fractions bounding the throttle ramp.
  double fill_low = 0.25;
  double fill_high = 0.75;
  /// Throttle floor at/above fill_high (fraction of the base rate).
  /// Deliberately mild: every consuming ack reserves a future slot at
  /// the *throttled* interval, so a tiny floor makes a transient burst
  /// reserve famine-spaced slots that outlive the backlog by minutes —
  /// the drain-horizon floor in next_hint_ms owns backlog recovery, the
  /// throttle only trims the steady rate while the queue runs warm.
  double throttle_floor = 0.5;
  /// Per-priority-rank interval stretch under overload.
  double overload_spread = 0.5;
  /// Hard ceiling on every hint, in ms (0 = off). Set when secure
  /// aggregation is on: a steered device told to come back later than
  /// the cohort round deadline would miss its round and drag the whole
  /// cohort into recovery, so the server caps hints at a fraction of
  /// --secagg-round-timeout-ms (crowdml_server wires round_timeout / 2).
  std::uint32_t deadline_ceiling_ms = 0;
};

class PaceSteering {
 public:
  PaceSteering(SteeringConfig cfg, DeviceClassTable classes);

  /// Applier feed: one batch of `records` checkins took `apply_seconds`
  /// of applier work (time spent waiting for arrivals or for the
  /// committer excluded) and `commit_seconds` to group-commit.
  void observe_commit(std::size_t records, double apply_seconds,
                      double commit_seconds);

  /// Queue depth at observation time (applier wakeups and shed events).
  void observe_depth(std::size_t depth);

  /// Consume the class's next arrival slot; returns ms until it
  /// (clamped to [min_hint_ms, max_hint_ms], always > 0).
  std::uint32_t next_hint_ms(std::uint8_t class_id);

  /// Advisory, non-consuming: the class's current pacing interval. Rides
  /// checkout responses, where reserving a slot would double-charge the
  /// cycle (the checkin ack is the consuming one).
  std::uint32_t peek_hint_ms(std::uint8_t class_id) const;

  // Introspection (tests, metrics, the bench's JSON).
  double service_rate_per_s() const {
    return service_rate_.load(std::memory_order_relaxed);
  }
  double commit_latency_s() const {
    return commit_seconds_.load(std::memory_order_relaxed);
  }
  double fill() const { return fill_.load(std::memory_order_relaxed); }
  /// 0 = relaxed, 1 = fully throttled; the overload signal.
  double pressure() const;
  /// The throttled global target arrival rate (per second).
  double target_rate_per_s() const;

  const DeviceClassTable& classes() const { return classes_; }

 private:
  double interval_us(std::uint8_t class_id) const;
  static std::int64_t now_us();
  std::uint32_t clamp_hint(double ms) const;

  SteeringConfig cfg_;
  DeviceClassTable classes_;
  std::atomic<double> apply_per_record_{0.0};  ///< EWMA seconds/record
  std::atomic<double> service_rate_{0.0};   ///< capacity estimate/s; 0 = unmeasured
  std::atomic<double> commit_seconds_{0.0}; ///< EWMA group-commit latency
  std::atomic<double> fill_{0.0};           ///< last depth / queue_max
  std::atomic<std::size_t> depth_{0};
  /// Per-class virtual clocks (µs on the steady clock), index = class id.
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> next_slot_us_;
};

}  // namespace crowdml::coord
