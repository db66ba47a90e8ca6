#include "engine/checkin_queue.hpp"

#include <chrono>

namespace crowdml::engine {

namespace {

obs::MetricsRegistry& registry_of(obs::MetricsRegistry* metrics) {
  return metrics ? *metrics : obs::default_registry();
}

}  // namespace

CheckinQueue::CheckinQueue(std::size_t max, obs::MetricsRegistry* metrics)
    : max_(max == 0 ? 1 : max),
      depth_gauge_(registry_of(metrics).gauge(
          "crowdml_engine_queue_depth",
          "Checkins waiting for the applier thread",
          obs::Provenance::kTransportEvent)),
      enqueued_total_(registry_of(metrics).counter(
          "crowdml_engine_checkins_enqueued_total",
          "Requests admitted to the checkin queue",
          obs::Provenance::kTransportEvent)),
      shed_total_(registry_of(metrics).counter(
          "crowdml_engine_checkins_shed_total",
          "Requests shed because the checkin queue was full",
          obs::Provenance::kTransportEvent)) {}

bool CheckinQueue::try_push(CheckinWork work) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= max_) {
      ++shed_total_;
      return false;
    }
    items_.push_back(std::move(work));
    ++enqueued_total_;
    depth_gauge_.set(static_cast<double>(items_.size()));
  }
  cv_.notify_one();
  return true;
}

std::size_t CheckinQueue::drain(std::vector<CheckinWork>& out,
                                std::size_t max_batch, int timeout_ms) {
  if (max_batch == 0) return 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (items_.empty() && !closed_ && !woken_) {
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms),
                 [this] { return !items_.empty() || closed_ || woken_; });
  }
  woken_ = false;
  std::size_t n = 0;
  while (n < max_batch && !items_.empty()) {
    out.push_back(std::move(items_.front()));
    items_.pop_front();
    ++n;
  }
  depth_gauge_.set(static_cast<double>(items_.size()));
  return n;
}

void CheckinQueue::wake() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    woken_ = true;
  }
  cv_.notify_all();
}

void CheckinQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool CheckinQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t CheckinQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

}  // namespace crowdml::engine
