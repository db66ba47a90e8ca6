#include "core/device.hpp"

#include <cassert>
#include <stdexcept>
#include <cmath>

#include "obs/profile.hpp"
#include "rng/distributions.hpp"

namespace crowdml::core {

namespace {

// Hot-path profiling scopes record into the process-wide registry
// (timings only — see docs/OBSERVABILITY.md "Always-on timings").
obs::Histogram& gradient_seconds() {
  static obs::Histogram& h = obs::default_registry().histogram(
      "crowdml_device_gradient_seconds",
      "Per-minibatch gradient compute (Device Routine 2)",
      obs::Provenance::kTiming);
  return h;
}

obs::Histogram& sanitize_seconds() {
  static obs::Histogram& h = obs::default_registry().histogram(
      "crowdml_device_sanitize_seconds",
      "Per-minibatch sanitization (Device Routine 3, Eqs. 10-12)",
      obs::Provenance::kTiming);
  return h;
}

}  // namespace

Device::Device(DeviceConfig config, const models::Model& model, rng::Engine eng)
    : config_(config),
      model_(model),
      eng_(eng),
      accountant_(config.budget, model.num_classes()) {
  if (config_.minibatch_size < 1)
    throw std::invalid_argument("Device: minibatch_size must be >= 1");
  if (config_.max_buffer < config_.minibatch_size)
    throw std::invalid_argument(
        "Device: max_buffer must be >= minibatch_size");
  assert(config_.holdout_fraction >= 0.0 && config_.holdout_fraction < 1.0);
  buffer_.reserve(config_.minibatch_size);
}

bool Device::on_sample(models::Sample s) {
  // A sensor pipeline can hand over a sample the model cannot take: the
  // wrong feature count, or a label outside [0, C). Buffering it would
  // index past the label counts in Routine 2, so refuse it here.
  const bool fits =
      s.x.size() == model_.feature_dim() &&
      (!model_.is_classifier() ||
       (s.y >= 0.0 && s.y < static_cast<double>(model_.num_classes()) &&
        std::floor(s.y) == s.y));
  if (!fits) {
    ++malformed_samples_;
    return false;
  }
  if (buffer_.size() >= config_.max_buffer) {
    ++dropped_samples_;  // Routine 1: stop collection to prevent outage
    return false;
  }
  buffer_.push_back(std::move(s));
  return true;
}

bool Device::wants_checkout() const {
  return !in_flight_ && buffer_.size() >= config_.minibatch_size;
}

void Device::begin_checkout() {
  assert(!in_flight_);
  in_flight_ = true;
}

void Device::on_checkout_failed() { in_flight_ = false; }

void Device::set_credentials(net::DeviceCredentials creds) {
  config_.device_id = creds.device_id;
  creds_ = std::move(creds);
}

Device::BatchStats Device::compute_batch(const linalg::Vector& w) {
  assert(!buffer_.empty());
  assert(w.size() == model_.param_dim());

  const std::size_t ns = buffer_.size();
  const std::size_t classes = model_.num_classes();

  // Remark 2: optionally hold out samples for unbiased error estimation.
  std::vector<bool> held_out(ns, false);
  bool any_held_out = false;
  if (config_.holdout_fraction > 0.0) {
    for (std::size_t i = 0; i < ns; ++i) {
      held_out[i] = rng::uniform(eng_) < config_.holdout_fraction;
      any_held_out = any_held_out || held_out[i];
    }
    // Degenerate draws (all held out) fall back to using every sample for
    // the gradient so the checkin always carries information.
    bool any_train = false;
    for (std::size_t i = 0; i < ns; ++i) any_train = any_train || !held_out[i];
    if (!any_train) held_out.assign(ns, false);
  }

  BatchStats stats;
  stats.ns = ns;
  stats.ny.assign(classes, 0);
  stats.misclassified.reserve(ns);

  // Device Routine 2: predictions, counts, averaged gradient. For
  // regressors, "misclassified" means the prediction misses the target by
  // more than the configured tolerance, and all label mass falls in the
  // single pseudo-class 0.
  const bool classifier = model_.is_classifier();
  stats.g.assign(model_.param_dim(), 0.0);
  {
    obs::TimedScope gradient_timer(gradient_seconds());
    for (std::size_t i = 0; i < ns; ++i) {
      const models::Sample& s = buffer_[i];
      bool wrong;
      if (classifier) {
        const int y = s.label();
        assert(y >= 0 && static_cast<std::size_t>(y) < classes);
        wrong = model_.predict_class(w, s.x) != y;
        ++stats.ny[static_cast<std::size_t>(y)];
      } else {
        wrong = std::abs(model_.predict(w, s.x) - s.y) >
                config_.regression_tolerance;
        ++stats.ny[0];
      }
      stats.misclassified.push_back(wrong);
      const bool count_error = !any_held_out || held_out[i];
      if (count_error && wrong) ++stats.ne;
      if (wrong) ++stats.true_errors;
      if (!held_out[i]) {
        model_.add_loss_gradient(w, s, stats.g);
        ++stats.gradient_samples;
      }
    }
    assert(stats.gradient_samples > 0);
    linalg::scal(1.0 / static_cast<double>(stats.gradient_samples), stats.g);
    model_.add_regularization_gradient(w, stats.g);  // g~ + lambda w
  }
  return stats;
}

net::CheckinMessage Device::sanitize_batch(const BatchStats& stats,
                                           std::uint64_t param_version,
                                           std::size_t noise_cohort) {
  // Device Routine 3: sanitize with the per-batch sensitivity S/b
  // (Appendix A — the averaged gradient over `gradient_samples` samples
  // has sensitivity per_sample_sensitivity / gradient_samples). Laplace
  // noise on the L1 sensitivity gives pure eps-DP (Eq. 10); the Gaussian
  // variant uses the L2 sensitivity for (eps, delta)-DP (footnote 1).
  // noise_cohort > 1 inflates every epsilon by sqrt(noise_cohort) — only
  // valid when the release is pairwise-masked into a cohort sum.
  const std::size_t classes = model_.num_classes();
  const double eps_g =
      privacy::cohort_scaled_epsilon(config_.budget.eps_gradient, noise_cohort);
  const double eps_e =
      privacy::cohort_scaled_epsilon(config_.budget.eps_error, noise_cohort);
  const double eps_y =
      privacy::cohort_scaled_epsilon(config_.budget.eps_label, noise_cohort);

  net::CheckinMessage msg;
  msg.device_id = config_.device_id;
  msg.param_version = param_version;
  {
    obs::TimedScope sanitize_timer(sanitize_seconds());
    if (config_.budget.mechanism == privacy::NoiseMechanism::kGaussian) {
      const double l2_sens = model_.per_sample_l2_sensitivity() /
                             static_cast<double>(stats.gradient_samples);
      msg.g_hat = privacy::sanitize_vector_gaussian(
          eng_, stats.g, l2_sens, eps_g, config_.budget.delta);
    } else {
      const double l1_sens = model_.per_sample_l1_sensitivity() /
                             static_cast<double>(stats.gradient_samples);
      msg.g_hat = privacy::sanitize_vector(eng_, stats.g, l1_sens, eps_g);
    }
    msg.ns = static_cast<std::int64_t>(stats.ns);
    msg.ne_hat = privacy::sanitize_count(eng_, stats.ne, eps_e);
    msg.ny_hat.resize(classes);
    for (std::size_t k = 0; k < classes; ++k)
      msg.ny_hat[k] = privacy::sanitize_count(eng_, stats.ny[k], eps_y);
  }
  if (creds_) msg.auth_tag = creds_->sign(msg.body());
  return msg;
}

void Device::consume_buffer(const BatchStats& stats) {
  lifetime_samples_ += static_cast<long long>(stats.ns);
  lifetime_errors_ += static_cast<long long>(stats.true_errors);
  buffer_.clear();
  in_flight_ = false;
}

CheckinResult Device::compute_checkin(const linalg::Vector& w,
                                      std::uint64_t param_version) {
  BatchStats stats = compute_batch(w);

  CheckinResult result;
  result.message = sanitize_batch(stats, param_version, 1);
  result.batch_size = stats.ns;
  result.true_errors = stats.true_errors;
  result.misclassified = std::move(stats.misclassified);

  accountant_.record_checkin(stats.ns);
  consume_buffer(stats);
  return result;
}

MaskedCheckinResult Device::compute_checkin_masked(const linalg::Vector& w,
                                                   std::uint64_t param_version,
                                                   std::size_t min_survivors) {
  assert(min_survivors >= 2);
  BatchStats stats = compute_batch(w);

  MaskedCheckinResult result;
  result.batch_size = stats.ns;
  result.true_errors = stats.true_errors;

  // The cohort release: cohort-scaled noise, quantized for exact mask
  // cancellation. Counts travel as two's-complement u64 at unit scale;
  // ns stays public plaintext (the server needs it for Eq. 14 either way).
  const net::CheckinMessage scaled =
      sanitize_batch(stats, param_version, min_survivors);
  result.contribution.param_version = param_version;
  result.contribution.ns = scaled.ns;
  result.contribution.g.reserve(scaled.g_hat.size());
  for (const double v : scaled.g_hat)
    result.contribution.g.push_back(secagg::quantize(v));
  result.contribution.ne = secagg::encode_count(scaled.ne_hat);
  result.contribution.ny.reserve(scaled.ny_hat.size());
  for (const std::int64_t n : scaled.ny_hat)
    result.contribution.ny.push_back(secagg::encode_count(n));

  // The classic fallback: independent full-noise draws over the same
  // batch, pre-signed so an aborted round needs no recompute. Charged
  // only if actually sent (charge_fallback).
  result.fallback = sanitize_batch(stats, param_version, 1);

  accountant_.record_cohort_checkin(
      stats.ns, std::sqrt(static_cast<double>(min_survivors)));
  result.misclassified = std::move(stats.misclassified);
  consume_buffer(stats);
  return result;
}

void Device::charge_fallback(std::size_t batch_samples) {
  accountant_.record_fallback_checkin(batch_samples);
}

}  // namespace crowdml::core
