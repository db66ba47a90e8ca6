#include "coord/coordinator.hpp"

#include <algorithm>

namespace crowdml::coord {

namespace {
obs::MetricsRegistry& registry_of(const CoordConfig& config) {
  return config.metrics ? *config.metrics : obs::default_registry();
}
}  // namespace

Coordinator::Coordinator(CoordConfig config, DeviceClassTable classes)
    : steering_(config.steering, std::move(classes)),
      checkout_hints_(registry_of(config).counter(
          "crowdml_coord_checkout_hints_total",
          "Advisory pace-steering hints attached to checkout responses",
          obs::Provenance::kTransportEvent)),
      checkin_hints_(registry_of(config).counter(
          "crowdml_coord_checkin_hints_total",
          "Consuming pace-steering hints attached to checkin acks (each "
          "reserves its class's next arrival slot)",
          obs::Provenance::kTransportEvent)),
      steered_sheds_(registry_of(config).counter(
          "crowdml_coord_steered_sheds_total",
          "Checkins shed despite steering; their retry hints reserved "
          "paced slots",
          obs::Provenance::kTransportEvent)),
      target_rate_(registry_of(config).gauge(
          "crowdml_coord_target_rate_per_s",
          "Steered checkin arrival-rate target (service rate x "
          "utilization x queue-headroom throttle)",
          obs::Provenance::kTransportEvent)),
      service_rate_(registry_of(config).gauge(
          "crowdml_coord_service_rate_per_s",
          "Projected applier capacity, batch_max / max(batch_max x "
          "apply seconds per record, commit seconds), from EWMAs",
          obs::Provenance::kTiming)),
      pressure_(registry_of(config).gauge(
          "crowdml_coord_pressure",
          "Queue-fill overload signal in [0, 1]; 1 = throttle floor",
          obs::Provenance::kTransportEvent)),
      hint_ms_(registry_of(config).histogram(
          "crowdml_coord_hint_ms", "Issued next_checkin_hint_ms values",
          obs::Provenance::kTransportEvent,
          obs::exponential_bounds(1.0, 2.0, 16))) {}

std::uint32_t Coordinator::checkout_hint_ms(std::uint8_t class_id) {
  const std::uint32_t hint = steering_.peek_hint_ms(class_id);
  ++checkout_hints_;
  hint_ms_.observe(static_cast<double>(hint));
  return hint;
}

std::uint32_t Coordinator::checkin_hint_ms(std::uint8_t class_id) {
  const std::uint32_t hint = steering_.next_hint_ms(class_id);
  ++checkin_hints_;
  hint_ms_.observe(static_cast<double>(hint));
  return hint;
}

int Coordinator::shed_retry_after_ms(std::uint8_t class_id, int fallback_ms) {
  const std::uint32_t slot = steering_.next_hint_ms(class_id);
  ++steered_sheds_;
  // parse_retry_after rejects hints past an hour; steering's max_hint_ms
  // is already far below that, so the max() below stays parseable.
  return std::max(fallback_ms, static_cast<int>(slot));
}

void Coordinator::observe_commit(std::size_t records, double apply_seconds,
                                 double commit_seconds) {
  steering_.observe_commit(records, apply_seconds, commit_seconds);
  target_rate_.set(steering_.target_rate_per_s());
  service_rate_.set(steering_.service_rate_per_s());
  pressure_.set(steering_.pressure());
}

void Coordinator::observe_queue_depth(std::size_t depth) {
  steering_.observe_depth(depth);
}

}  // namespace crowdml::coord
