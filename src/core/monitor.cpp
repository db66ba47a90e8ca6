#include "core/monitor.hpp"

#include <algorithm>
#include <sstream>
#include <iomanip>

namespace crowdml::core {

NetCounters::NetCounters(obs::MetricsRegistry* registry)
    : owned_(registry ? nullptr : std::make_shared<obs::MetricsRegistry>()),
      registry_(registry ? *registry : *owned_),
      timeouts(registry_.counter(
          "crowdml_net_timeouts_total",
          "Socket operations that hit their deadline",
          obs::Provenance::kTransportEvent)),
      retries(registry_.counter(
          "crowdml_net_retries_total",
          "Exchange attempts beyond the first (reconnect backoff loop)",
          obs::Provenance::kTransportEvent)),
      reconnects(registry_.counter(
          "crowdml_net_reconnects_total",
          "Connections re-established after a drop",
          obs::Provenance::kTransportEvent)),
      checkins_abandoned(registry_.counter(
          "crowdml_net_checkins_abandoned_total",
          "Checkins whose send began but got no ack (never replayed)",
          obs::Provenance::kTransportEvent)),
      accepted_connections(registry_.counter(
          "crowdml_net_accepted_connections_total",
          "Device connections accepted by the server",
          obs::Provenance::kTransportEvent)),
      refused_connections(registry_.counter(
          "crowdml_net_refused_connections_total",
          "Connections refused at the concurrency cap",
          obs::Provenance::kTransportEvent)),
      idle_closed(registry_.counter(
          "crowdml_net_idle_closed_total",
          "Connections closed by the idle-timeout reaper",
          obs::Provenance::kTransportEvent)),
      retry_after_honored(registry_.counter(
          "crowdml_net_retry_after_honored_total",
          "Server retry_after hints honored as the next backoff delay",
          obs::Provenance::kTransportEvent)),
      redirects_followed(registry_.counter(
          "crowdml_net_redirects_followed_total",
          "Not-leader nacks followed to the advertised leader",
          obs::Provenance::kTransportEvent)),
      pace_hints_honored(registry_.counter(
          "crowdml_net_pace_hints_honored_total",
          "Pace-steering hints on successful acks honored as the next-"
          "exchange delay (no retry budget consumed)",
          obs::Provenance::kTransportEvent)),
      secagg_fallbacks(registry_.counter(
          "crowdml_net_secagg_fallbacks_total",
          "Secure-aggregation rounds abandoned for the classic per-device "
          "LDP checkin (aborted round or no cohort)",
          obs::Provenance::kTransportEvent)) {}

NetCountersSnapshot NetCounters::snapshot() const {
  NetCountersSnapshot s;
  s.timeouts = timeouts.value();
  s.retries = retries.value();
  s.reconnects = reconnects.value();
  s.checkins_abandoned = checkins_abandoned.value();
  s.accepted_connections = accepted_connections.value();
  s.refused_connections = refused_connections.value();
  s.idle_closed = idle_closed.value();
  s.retry_after_honored = retry_after_honored.value();
  s.redirects_followed = redirects_followed.value();
  s.pace_hints_honored = pace_hints_honored.value();
  s.secagg_fallbacks = secagg_fallbacks.value();
  return s;
}

std::string transport_report(const NetCountersSnapshot& net) {
  std::ostringstream out;
  out << "--- transport health ---\n";
  out << "timeouts:               " << net.timeouts << "\n";
  out << "retries:                " << net.retries << "\n";
  out << "reconnects:             " << net.reconnects << "\n";
  out << "checkins abandoned:     " << net.checkins_abandoned << "\n";
  out << "connections accepted:   " << net.accepted_connections << "\n";
  out << "connections refused:    " << net.refused_connections << "\n";
  out << "idle connections closed: " << net.idle_closed << "\n";
  out << "retry hints honored:    " << net.retry_after_honored << "\n";
  out << "redirects followed:     " << net.redirects_followed << "\n";
  out << "pace hints honored:     " << net.pace_hints_honored << "\n";
  out << "secagg fallbacks:       " << net.secagg_fallbacks << "\n";
  return out.str();
}

std::string portal_report(const Server& server) {
  return portal_report(server, MonitorOptions{});
}

std::string portal_report(const Server& server, const MonitorOptions& options,
                          const NetCountersSnapshot& net) {
  return portal_report(server, options) + "\n" + transport_report(net);
}

std::string portal_report(const Server& server, const MonitorOptions& options) {
  std::ostringstream out;
  out << std::fixed;

  out << "=== Crowd-ML portal ===\n";
  out << "iteration t:            " << server.version() << "\n";
  out << "devices seen:           " << server.devices_seen() << "\n";
  out << "samples reported:       " << server.total_samples() << "\n";
  out << "rejected checkins:      " << server.rejected_checkins() << "\n";
  out << std::setprecision(4);
  out << "crowd error estimate:   " << server.estimated_error()
      << "  (Eq. 14, from sanitized counts)\n";

  const linalg::Vector prior = server.estimated_prior();
  out << "label prior estimate:  ";
  for (std::size_t k = 0; k < prior.size(); ++k) {
    out << ' ';
    if (k < options.class_names.size())
      out << options.class_names[k] << '=';
    else
      out << 'c' << k << '=';
    out << std::setprecision(3) << prior[k];
  }
  out << "\n";

  // Per-device table, largest contributors first.
  auto stats = server.all_device_stats();
  std::vector<std::pair<std::uint64_t, DeviceStats>> rows(stats.begin(),
                                                          stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.samples > b.second.samples;
  });
  if (rows.size() > options.max_device_rows) rows.resize(options.max_device_rows);

  out << "\n" << std::setw(10) << "device" << std::setw(10) << "samples"
      << std::setw(10) << "checkins" << std::setw(14) << "err estimate\n";
  for (const auto& [id, st] : rows) {
    const double err =
        st.samples > 0
            ? std::clamp(static_cast<double>(st.errors_hat) /
                             static_cast<double>(st.samples),
                         0.0, 1.0)
            : 0.0;
    out << std::setw(10) << id << std::setw(10) << st.samples << std::setw(10)
        << st.checkins << std::setw(13) << std::setprecision(4) << err << "\n";
  }
  if (stats.size() > rows.size())
    out << "  ... and " << stats.size() - rows.size() << " more devices\n";
  return out.str();
}

}  // namespace crowdml::core
