// Device-side Crowd-ML (Algorithm 1, Device Routines 1-3).
//
// A Device is a passive, transport-agnostic state machine:
//
//   on_sample()        — Device Routine 1: buffer a sample (respecting the
//                        max buffer size B and refusing one that does not
//                        fit the model), report when a checkout should
//                        be initiated (ns >= b and no checkout in flight);
//   compute_checkin()  — Device Routines 2+3: given the checked-out w,
//                        predict/count/compute the averaged gradient, add
//                        the regularizer, sanitize everything with the
//                        device's privacy budget, reset the buffer, and
//                        return the CheckinMessage to transmit;
//   on_checkout_failed() — Remark 1: a failed checkout is non-critical;
//                        the device keeps collecting and retries later.
//
// The discrete-event simulator, the threaded in-process runtime and the
// TCP client all drive this same class.
#pragma once

#include <cstdint>
#include <optional>

#include "models/model.hpp"
#include "net/auth.hpp"
#include "net/messages.hpp"
#include "privacy/accountant.hpp"
#include "privacy/mechanisms.hpp"
#include "rng/engine.hpp"
#include "secagg/client.hpp"

namespace crowdml::core {

struct DeviceConfig {
  std::uint64_t device_id = 0;
  std::size_t minibatch_size = 1;     // b
  std::size_t max_buffer = 4096;      // B (Routine 1 resource guard)
  privacy::PrivacyBudget budget;      // eps_g, eps_e, eps_y
  /// Remark 2: fraction of samples randomly held out; their gradients are
  /// excluded from g~ and the error count covers only them. 0 disables.
  /// Note the server-side consequence: Eq. (14) divides the (held-out-only)
  /// error count by ALL reported samples, so the crowd error estimate is
  /// scaled by roughly this fraction — unbiased for trend monitoring after
  /// dividing by it (tested in tests/holdout_test.cpp).
  double holdout_fraction = 0.0;
  /// For regression models, a prediction counts as an "error" (for the
  /// n_e monitoring counter) when |h(x;w) - y| exceeds this tolerance.
  double regression_tolerance = 0.25;
};

/// Result of one checkin computation: the sanitized message plus the true
/// (pre-noise) per-batch statistics for instrumentation — these never
/// leave the device in a real deployment.
struct CheckinResult {
  net::CheckinMessage message;
  std::size_t batch_size = 0;
  std::size_t true_errors = 0;
  /// Per-sample misclassification outcomes in arrival order (for the
  /// Fig. 3 time-averaged error metric).
  std::vector<bool> misclassified;
};

/// Result of one *masked* checkin computation (secure-aggregation cohort
/// mode): the quantized cohort-scaled-noise contribution for the
/// RoundClient, plus a pre-signed classic full-noise CheckinMessage to
/// transmit if the round aborts. The fallback carries independent noise
/// draws over the same batch; charge_fallback() must be called if (and
/// only if) it is actually sent.
struct MaskedCheckinResult {
  secagg::MaskedContribution contribution;
  net::CheckinMessage fallback;
  std::size_t batch_size = 0;
  std::size_t true_errors = 0;
  std::vector<bool> misclassified;
};

class Device {
 public:
  /// Throws std::invalid_argument when minibatch_size < 1 or
  /// max_buffer < minibatch_size.
  Device(DeviceConfig config, const models::Model& model, rng::Engine eng);

  /// Device Routine 1. Returns true if the sample was buffered. False
  /// when the buffer is full (dropped to prevent resource outage) or the
  /// sample does not fit the model: x is not feature_dim() long, or a
  /// classifier's label is not an integer in [0, num_classes()).
  bool on_sample(models::Sample s);

  /// ns >= b and no checkout currently in flight.
  bool wants_checkout() const;

  /// Mark a checkout as initiated; wants_checkout() turns false until the
  /// parameters arrive or the checkout fails.
  void begin_checkout();

  /// Remark 1: clear the in-flight flag so the next sample retries.
  void on_checkout_failed();

  /// Device Routines 2+3 with the checked-out parameters. Consumes the
  /// buffer, clears the in-flight flag. Requires a non-empty buffer.
  CheckinResult compute_checkin(const linalg::Vector& w,
                                std::uint64_t param_version);

  /// Cohort-mode variant of compute_checkin: sanitizes the same batch
  /// with the cohort-scaled epsilon (docs/PRIVACY.md — the masked blob
  /// is only observable inside a >= min_survivors sum), quantizes it for
  /// exact mask cancellation, and additionally prepares the full-noise
  /// classic fallback message. Consumes the buffer either way; the
  /// accountant records one cohort release immediately.
  MaskedCheckinResult compute_checkin_masked(const linalg::Vector& w,
                                             std::uint64_t param_version,
                                             std::size_t min_survivors);

  /// Charge the accountant for transmitting the masked result's fallback
  /// message (round aborted). Call at most once per fallback sent.
  void charge_fallback(std::size_t batch_samples);

  /// Attach credentials; subsequent checkins carry an HMAC tag.
  void set_credentials(net::DeviceCredentials creds);

  /// Credentials, if enrolled (used by DeviceClient to sign checkouts).
  const std::optional<net::DeviceCredentials>& credentials() const {
    return creds_;
  }

  std::uint64_t id() const { return config_.device_id; }
  std::size_t buffered() const { return buffer_.size(); }
  bool checkout_in_flight() const { return in_flight_; }
  const privacy::PrivacyAccountant& accountant() const { return accountant_; }

  /// Lifetime true statistics (never transmitted).
  long long lifetime_samples() const { return lifetime_samples_; }
  long long lifetime_errors() const { return lifetime_errors_; }
  long long dropped_samples() const { return dropped_samples_; }
  /// Samples refused because they do not fit the model (see on_sample).
  long long malformed_samples() const { return malformed_samples_; }

 private:
  /// Device Routine 2 over the current buffer: predictions, counts,
  /// averaged + regularized gradient. Does not consume the buffer.
  struct BatchStats {
    linalg::Vector g;  // g~ = (1/n) sum grad + lambda w
    std::size_t gradient_samples = 0;
    long long ne = 0;
    std::vector<std::int64_t> ny;
    std::size_t ns = 0;
    std::size_t true_errors = 0;
    std::vector<bool> misclassified;
  };
  BatchStats compute_batch(const linalg::Vector& w);

  /// Device Routine 3: sanitize the batch into a CheckinMessage with the
  /// budget's epsilons scaled by sqrt(noise_cohort) (1 = classic LDP).
  net::CheckinMessage sanitize_batch(const BatchStats& stats,
                                     std::uint64_t param_version,
                                     std::size_t noise_cohort);

  void consume_buffer(const BatchStats& stats);

  DeviceConfig config_;
  const models::Model& model_;
  rng::Engine eng_;
  models::SampleSet buffer_;
  bool in_flight_ = false;
  privacy::PrivacyAccountant accountant_;
  std::optional<net::DeviceCredentials> creds_;
  long long lifetime_samples_ = 0;
  long long lifetime_errors_ = 0;
  long long dropped_samples_ = 0;
  long long malformed_samples_ = 0;
};

}  // namespace crowdml::core
