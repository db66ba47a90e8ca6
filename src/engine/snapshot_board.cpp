#include "engine/snapshot_board.hpp"

#include <utility>

namespace crowdml::engine {

namespace {

obs::MetricsRegistry& registry_of(obs::MetricsRegistry* metrics) {
  return metrics ? *metrics : obs::default_registry();
}

}  // namespace

ModelSnapshotBoard::ModelSnapshotBoard(obs::MetricsRegistry* metrics)
    : publishes_(registry_of(metrics).counter(
          "crowdml_engine_snapshot_publishes_total",
          "Model snapshots published to the checkout board",
          obs::Provenance::kTransportEvent)),
      age_seconds_gauge_(registry_of(metrics).gauge(
          "crowdml_engine_snapshot_age_seconds",
          "Seconds since the serving snapshot was last republished",
          obs::Provenance::kTiming)) {}

void ModelSnapshotBoard::publish(const core::Server& server) {
  install(snapshot(server));
}

std::shared_ptr<ModelSnapshot> ModelSnapshotBoard::snapshot(
    const core::Server& server) {
  auto snap = std::make_shared<ModelSnapshot>();
  // version/stopped/parameters are separate locked reads; they form a
  // coherent snapshot because the caller guarantees no concurrent
  // checkin application (see header contract).
  net::ParamsMessage msg;
  msg.version = server.version();
  msg.accepted = !server.stopped();
  if (msg.accepted) msg.w = server.parameters();
  snap->version = msg.version;
  snap->accepted = msg.accepted;
  snap->params_frame =
      net::encode_frame(net::MessageType::kParams, msg.serialize());
  return snap;
}

void ModelSnapshotBoard::install(std::shared_ptr<ModelSnapshot> snap) {
  snap->published_at = std::chrono::steady_clock::now();
  std::shared_ptr<const ModelSnapshot> old;
  {
    std::lock_guard lock(mu_);
    old = std::exchange(current_, std::move(snap));
  }  // the previous snapshot, if last held here, is freed unlocked
  ++publishes_;
  age_seconds_gauge_.set(0.0);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshotBoard::current() const {
  std::lock_guard lock(mu_);
  return current_;
}

std::uint64_t ModelSnapshotBoard::version() const {
  const auto snap = current();
  return snap ? snap->version : 0;
}

double ModelSnapshotBoard::age_seconds() const {
  const auto snap = current();
  if (!snap) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       snap->published_at)
      .count();
}

void ModelSnapshotBoard::refresh_age_gauge() {
  age_seconds_gauge_.set(age_seconds());
}

}  // namespace crowdml::engine
