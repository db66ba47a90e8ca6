#include "coord/steering.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace crowdml::coord {

namespace {
/// EWMA smoothing for the applier feeds. One batch is noisy (a single
/// fsync outlier shouldn't halve the fleet's rate); ~5 batches of memory
/// tracks a regime change within a second at serving batch cadence.
constexpr double kAlpha = 0.2;
}  // namespace

PaceSteering::PaceSteering(SteeringConfig cfg, DeviceClassTable classes)
    : cfg_(cfg), classes_(std::move(classes)) {
  if (cfg_.min_hint_ms == 0) cfg_.min_hint_ms = 1;
  if (cfg_.max_hint_ms < cfg_.min_hint_ms) cfg_.max_hint_ms = cfg_.min_hint_ms;
  if (cfg_.queue_max == 0) cfg_.queue_max = 1;
  if (cfg_.batch_max == 0) cfg_.batch_max = 1;
  next_slot_us_.reserve(classes_.size());
  const std::int64_t now = now_us();
  for (std::size_t i = 0; i < classes_.size(); ++i)
    next_slot_us_.push_back(
        std::make_unique<std::atomic<std::int64_t>>(now));
}

std::int64_t PaceSteering::now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PaceSteering::observe_commit(std::size_t records, double apply_seconds,
                                  double commit_seconds) {
  if (records == 0) return;
  // Estimate *capacity*, not achieved throughput. Naively dividing
  // records by batch wall time measures whatever the fleet happened to
  // send: once steering pacifies arrivals, batches shrink toward one
  // record per commit and the naive estimate collapses to 1/commit — a
  // measurement-starvation spiral that locks the fleet at a trickle.
  // Instead track the per-record apply cost and the per-batch commit
  // latency separately; what a saturated applier could absorb is then
  //   batch_max / max(batch_max·apply_per_record, commit)
  // regardless of how full this particular batch was: the applier
  // applies batch N+1 while batch N commits, so a cycle lasts as long
  // as the slower of the two.
  const double apply_per =
      std::max(apply_seconds / static_cast<double>(records), 1e-9);
  const double prev_apply =
      apply_per_record_.load(std::memory_order_relaxed);
  const double apply_ewma =
      prev_apply <= 0 ? apply_per
                      : prev_apply + kAlpha * (apply_per - prev_apply);
  apply_per_record_.store(apply_ewma, std::memory_order_relaxed);
  const double prev_commit = commit_seconds_.load(std::memory_order_relaxed);
  const double commit_ewma =
      prev_commit <= 0 ? commit_seconds
                       : prev_commit + kAlpha * (commit_seconds - prev_commit);
  commit_seconds_.store(commit_ewma, std::memory_order_relaxed);
  const double batch = static_cast<double>(std::max<std::size_t>(
      1, cfg_.batch_max));
  service_rate_.store(
      batch / std::max({batch * apply_ewma, commit_ewma, 1e-9}),
      std::memory_order_relaxed);
}

void PaceSteering::observe_depth(std::size_t depth) {
  depth_.store(depth, std::memory_order_relaxed);
  fill_.store(std::min(1.0, static_cast<double>(depth) /
                                static_cast<double>(cfg_.queue_max)),
              std::memory_order_relaxed);
}

double PaceSteering::pressure() const {
  const double f = fill();
  if (f <= cfg_.fill_low) return 0.0;
  if (f >= cfg_.fill_high) return 1.0;
  return (f - cfg_.fill_low) / (cfg_.fill_high - cfg_.fill_low);
}

double PaceSteering::target_rate_per_s() const {
  const double measured = service_rate_per_s();
  const double base =
      (measured > 0 ? measured : cfg_.init_rate_per_s) *
      cfg_.target_utilization;
  // The --checkin-queue-max headroom term: full target while the queue is
  // comfortably empty, ramping down to a trickle as fill approaches the
  // shed threshold.
  const double throttle =
      std::max(cfg_.throttle_floor, 1.0 - (1.0 - cfg_.throttle_floor) *
                                              pressure());
  return std::max(base * throttle, 1e-3);
}

double PaceSteering::interval_us(std::uint8_t class_id) const {
  const std::uint8_t cls = classes_.clamp(class_id);
  const double rate = target_rate_per_s() * classes_.share(cls);
  double us = 1e6 / std::max(rate, 1e-3);
  // Priority under overload: every rank below the first-listed class is
  // stretched progressively harder as pressure rises.
  us *= 1.0 + cfg_.overload_spread * pressure() *
                  static_cast<double>(classes_.rank(cls));
  return std::min(us, 3.6e9);  // an hour; clamp_hint bounds the answer
}

std::uint32_t PaceSteering::clamp_hint(double ms) const {
  if (std::isnan(ms)) return cfg_.min_hint_ms;
  double max_ms = static_cast<double>(cfg_.max_hint_ms);
  // Secure-aggregation round-deadline awareness: never steer a device
  // past the cohort round deadline (it would force a recovery or abort).
  if (cfg_.deadline_ceiling_ms > 0)
    max_ms = std::min(max_ms, static_cast<double>(cfg_.deadline_ceiling_ms));
  return static_cast<std::uint32_t>(
      std::clamp(ms, std::min(static_cast<double>(cfg_.min_hint_ms), max_ms),
                 max_ms));
}

std::uint32_t PaceSteering::next_hint_ms(std::uint8_t class_id) {
  const std::uint8_t cls = classes_.clamp(class_id);
  std::atomic<std::int64_t>& clock = *next_slot_us_[cls];
  const std::int64_t now = now_us();
  // An idle class's clock may sit far in the past; pull it forward so the
  // first arrival after a lull doesn't inherit a stale burst allowance.
  // The floor is one commit cycle out — no hint ever asks a device to
  // come back faster than the WAL can absorb a batch.
  const std::int64_t floor_us =
      now + static_cast<std::int64_t>(
                commit_seconds_.load(std::memory_order_relaxed) * 1e6);
  std::int64_t seen = clock.load(std::memory_order_relaxed);
  while (seen < floor_us &&
         !clock.compare_exchange_weak(seen, floor_us,
                                      std::memory_order_relaxed)) {
  }
  const std::int64_t slot = clock.fetch_add(
      static_cast<std::int64_t>(interval_us(cls)),
      std::memory_order_relaxed);
  double hint_ms = static_cast<double>(slot - now) / 1e3;
  // Saturated queue: no slot may land before the current backlog can
  // drain at the measured service rate.
  if (fill() >= cfg_.fill_high) {
    const double srate = std::max(service_rate_per_s(), 1.0);
    const double drain_ms =
        1e3 * static_cast<double>(depth_.load(std::memory_order_relaxed)) /
        srate;
    hint_ms = std::max(hint_ms, drain_ms);
  }
  return clamp_hint(hint_ms);
}

std::uint32_t PaceSteering::peek_hint_ms(std::uint8_t class_id) const {
  return clamp_hint(interval_us(classes_.clamp(class_id)) / 1e3);
}

}  // namespace crowdml::coord
