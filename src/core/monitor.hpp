// Monitoring report — the text equivalent of the paper's web portal
// ("displays timely statistics about crowd-learning applications such as
// error rates and activity label distributions, which are differentially
// private", Section V-A).
//
// Everything in the report derives from the sanitized checkins the server
// already holds, so publishing it costs no additional privacy budget.
//
// NetCounters adds the transport-health side of the portal: timeouts,
// retries, reconnects and connection-management events from the live TCP
// runtime. These count network events, never sample data, so they are
// publishable for the same reason. The counters live in an
// obs::MetricsRegistry (each instance owns a private one unless attached
// to a shared registry), so the same numbers back the text report here
// and the Prometheus exposition (`--metrics-out`).
#pragma once

#include <memory>
#include <string>

#include "core/server.hpp"
#include "obs/metrics.hpp"

namespace crowdml::core {

/// Plain-value copy of NetCounters at one instant.
struct NetCountersSnapshot {
  long long timeouts = 0;
  long long retries = 0;
  long long reconnects = 0;
  long long checkins_abandoned = 0;
  long long accepted_connections = 0;
  long long refused_connections = 0;
  long long idle_closed = 0;
  long long retry_after_honored = 0;
  long long redirects_followed = 0;
  long long pace_hints_honored = 0;
  long long secagg_fallbacks = 0;
};

/// Shared transport-health counters. Device sessions record timeouts,
/// retries, reconnects and abandoned checkins; engine::EpollCrowdServer
/// records accept/refuse/idle-close events. Every field is a registry-backed
/// obs::Counter (names `crowdml_net_*_total`), so the runtime threads and
/// the portal reader never race, and an exporter sees the live values.
///
/// Registration uses get-or-create semantics: two NetCounters attached to
/// the same registry share the same underlying counters (one merged
/// transport-health view per registry).
class NetCounters {
 private:
  // Declared before the references: when no registry is supplied this
  // instance owns one, and the references below must bind into it.
  std::shared_ptr<obs::MetricsRegistry> owned_;
  obs::MetricsRegistry& registry_;

 public:
  /// Attach to `registry`, or own a private registry when null.
  explicit NetCounters(obs::MetricsRegistry* registry = nullptr);

  NetCounters(const NetCounters&) = delete;
  NetCounters& operator=(const NetCounters&) = delete;

  obs::Counter& timeouts;
  obs::Counter& retries;
  obs::Counter& reconnects;
  obs::Counter& checkins_abandoned;
  obs::Counter& accepted_connections;
  obs::Counter& refused_connections;
  obs::Counter& idle_closed;
  /// Nacks carrying a server retry_after hint that a device session
  /// honored as its next backoff delay (load shedding made visible).
  obs::Counter& retry_after_honored;
  /// "not leader" nacks a device session followed to the advertised
  /// leader (failover made visible from the client side).
  obs::Counter& redirects_followed;
  /// Pace-steering hints (next_checkin_hint_ms on successful acks) a
  /// device session honored as its next-exchange delay. Unlike
  /// retry_after_honored these are not failures: no retry budget is
  /// consumed and no backoff jitter applies (docs/SCALING.md).
  obs::Counter& pace_hints_honored;
  /// Secure-aggregation rounds a device session abandoned for the
  /// classic per-device LDP checkin (round aborted or no cohort formed
  /// — docs/PRIVACY.md "Secure aggregation"). Distinct from retries:
  /// the batch was still delivered, just without cohort masking.
  obs::Counter& secagg_fallbacks;

  /// The registry the counters live in (for rendering/exporting).
  obs::MetricsRegistry& registry() const { return registry_; }

  NetCountersSnapshot snapshot() const;
};

struct MonitorOptions {
  /// Show at most this many per-device rows (largest contributors first).
  std::size_t max_device_rows = 10;
  /// Optional class names for the label-prior section (size must match
  /// num_classes when provided).
  std::vector<std::string> class_names;
};

/// Render the portal report for the current server state.
std::string portal_report(const Server& server, const MonitorOptions& options);
std::string portal_report(const Server& server);

/// Portal report plus a transport-health section from the TCP runtime.
std::string portal_report(const Server& server, const MonitorOptions& options,
                          const NetCountersSnapshot& net);

/// Just the transport-health section (appended by the overload above).
std::string transport_report(const NetCountersSnapshot& net);

}  // namespace crowdml::core
