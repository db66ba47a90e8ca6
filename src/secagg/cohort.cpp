#include "secagg/cohort.hpp"

#include <algorithm>
#include <chrono>

namespace crowdml::secagg {

namespace {

obs::MetricsRegistry& registry_of(const CohortConfig& cfg) {
  return cfg.metrics ? *cfg.metrics : obs::default_registry();
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CohortManager::CohortManager(CohortConfig config, ApplyFn apply)
    : config_(config),
      apply_(std::move(apply)),
      clock_(steady_now_ms),
      rounds_sealed_c_(registry_of(config).counter(
          "crowdml_secagg_rounds_sealed_total",
          "Secure-aggregation rounds sealed with a full or partial roster",
          obs::Provenance::kTransportEvent)),
      rounds_completed_c_(registry_of(config).counter(
          "crowdml_secagg_rounds_completed_total",
          "Rounds whose cohort sum was unmasked and applied",
          obs::Provenance::kTransportEvent)),
      rounds_recovered_c_(registry_of(config).counter(
          "crowdml_secagg_rounds_recovered_total",
          "Completed rounds that needed dropout seed recovery",
          obs::Provenance::kTransportEvent)),
      rounds_aborted_c_(registry_of(config).counter(
          "crowdml_secagg_rounds_aborted_total",
          "Rounds aborted below min survivors (devices fall back to LDP)",
          obs::Provenance::kTransportEvent)),
      masked_checkins_c_(registry_of(config).counter(
          "crowdml_secagg_masked_checkins_total",
          "Masked checkins accepted into a round",
          obs::Provenance::kTransportEvent)) {
  if (config_.cohort_size < 2) config_.cohort_size = 2;
  if (config_.min_survivors < 2) config_.min_survivors = 2;
  if (config_.min_survivors > config_.cohort_size)
    config_.min_survivors = config_.cohort_size;
}

void CohortManager::set_clock(std::function<std::int64_t()> now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = std::move(now_ms);
}

std::int64_t CohortManager::now_ms() const { return clock_(); }

void CohortManager::tick() {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked();
}

void CohortManager::tick_locked() {
  const std::int64_t now = now_ms();
  last_tick_ms_ = now;
  for (auto& [id, round] : rounds_) {
    if (round.state == Round::kCollecting && now >= round.deadline_ms) {
      if (round.submitted.size() == round.roster.size()) {
        complete_locked(round);  // raced the deadline; all masks cancel
      } else if (round.submitted.size() >= config_.min_survivors) {
        // Declare dropouts. Only devices that never submitted a masked
        // checkin may be declared dead: revealing a seed pair exposes
        // the mask between a survivor and that peer, which is safe
        // exactly because the peer's blob never reached the server.
        round.state = Round::kRecovering;
        round.deadline_ms = now + config_.round_timeout_ms;
        round.dead.clear();
        round.survivors.clear();
        for (std::uint64_t id2 : round.roster) {
          if (round.submitted.count(id2))
            round.survivors.push_back(id2);
          else
            round.dead.push_back(id2);
        }
        for (std::uint64_t d : round.dead) assignment_.erase(d);
        ++changes_;
        if (config_.trace)
          config_.trace->event("secagg_round_recovering",
                               {{"round", round.id},
                                {"survivors", round.survivors.size()},
                                {"dead", round.dead.size()}});
      } else {
        resolve_locked(round, Round::kAborted);
      }
    } else if (round.state == Round::kRecovering &&
               now >= round.deadline_ms) {
      resolve_locked(round, Round::kAborted);
    }
  }
  // Seal a partial cohort when a class's oldest waiter has outlived a
  // full round timeout and enough same-class devices wait to survive one
  // dropout short of the threshold. Classes age independently: a stalled
  // class never delays another class's seal.
  for (auto& [cls, waiters] : forming_) {
    if (!waiters.empty() &&
        now - waiters.front().since_ms >= config_.round_timeout_ms &&
        waiters.size() >= config_.min_survivors) {
      seal_locked(cls, waiters.size());
    }
  }
  prune_locked();
}

void CohortManager::seal_locked(std::uint8_t device_class,
                                std::size_t take) {
  std::vector<Waiter>& waiters = forming_[device_class];
  Round round;
  round.id = next_round_id_++;
  round.device_class = device_class;
  round.deadline_ms = now_ms() + config_.round_timeout_ms;
  round.roster.reserve(take);
  for (std::size_t i = 0; i < take; ++i)
    round.roster.push_back(waiters[i].device_id);
  waiters.erase(waiters.begin(),
                waiters.begin() + static_cast<std::ptrdiff_t>(take));
  std::sort(round.roster.begin(), round.roster.end());
  for (std::uint64_t id : round.roster) assignment_[id] = round.id;
  ++sealed_;
  ++changes_;
  ++rounds_sealed_c_;
  if (config_.trace)
    config_.trace->event("secagg_round_sealed",
                         {{"round", round.id},
                          {"cohort", round.roster.size()},
                          {"class", round.device_class}});
  rounds_.emplace(round.id, std::move(round));
}

net::SecAggAssignMessage CohortManager::handle_assign(
    const net::SecAggAssignMessage& req) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked();

  net::SecAggAssignMessage resp;
  resp.request = false;
  resp.min_survivors = static_cast<std::uint32_t>(config_.min_survivors);

  const std::int64_t now = now_ms();
  const auto answer_round = [&](const Round& round) {
    resp.status = net::kSecAggAssignAssigned;
    resp.round_id = round.id;
    resp.roster = round.roster;
    resp.deadline_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, round.deadline_ms - now));
  };

  // Already assigned to a live, still-collecting round?
  const auto it = assignment_.find(req.device_id);
  if (it != assignment_.end()) {
    const auto rit = rounds_.find(it->second);
    if (rit != rounds_.end() && rit->second.state == Round::kCollecting) {
      answer_round(rit->second);
      return resp;
    }
    assignment_.erase(it);
  }

  // Join (or re-find ourselves in) our class's forming cohort. A device
  // that changes its declared class between polls just moves queues: it
  // can wait in at most one (the per-class lookup below only sees the
  // queue it is polling into, and seals clear assignment_ entries).
  std::vector<Waiter>& waiters = forming_[req.device_class];
  auto waiter = std::find_if(
      waiters.begin(), waiters.end(),
      [&](const Waiter& w) { return w.device_id == req.device_id; });
  if (waiter == waiters.end()) {
    for (auto& [cls, others] : forming_) {
      if (cls == req.device_class) continue;
      others.erase(std::remove_if(others.begin(), others.end(),
                                  [&](const Waiter& w) {
                                    return w.device_id == req.device_id;
                                  }),
                   others.end());
    }
    waiters.push_back({req.device_id, now});
    waiter = waiters.end() - 1;
  }
  if (waiters.size() >= config_.cohort_size) {
    seal_locked(req.device_class, config_.cohort_size);
    const auto ait = assignment_.find(req.device_id);
    if (ait != assignment_.end()) {
      answer_round(rounds_.at(ait->second));
      return resp;
    }
  }
  // A device that has waited a full timeout with no same-class cohort in
  // sight is told to fall back rather than starve (pending answers below
  // still count toward a future partial seal).
  if (now - waiter->since_ms >= config_.round_timeout_ms &&
      waiters.size() < config_.min_survivors) {
    waiters.erase(waiter);
    ++changes_;
    resp.status = net::kSecAggAssignFallback;
    return resp;
  }
  resp.status = net::kSecAggAssignPending;
  resp.retry_after_ms = config_.poll_retry_ms;
  return resp;
}

net::AckMessage CohortManager::handle_masked(
    const net::SecAggMaskedMessage& msg) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked();

  const auto rit = rounds_.find(msg.round_id);
  if (rit == rounds_.end())
    return {false, "unknown secagg round", 0};
  Round& round = rit->second;
  if (round.state != Round::kCollecting)
    return {false, "secagg round closed", 0};
  if (!std::binary_search(round.roster.begin(), round.roster.end(),
                          msg.device_id))
    return {false, "device not in round roster", 0};
  if (round.submitted.count(msg.device_id))
    return {false, "duplicate masked checkin", 0};
  if (msg.masked_g.size() != config_.param_dim)
    return {false, "bad masked gradient dimension", 0};
  if (msg.masked_ny.size() != config_.num_classes)
    return {false, "bad masked label count dimension", 0};
  if (msg.ns <= 0) return {false, "non-positive batch size", 0};

  round.submitted.emplace(msg.device_id, msg);
  ++masked_;
  ++masked_checkins_c_;
  if (config_.trace)
    config_.trace->event("secagg_masked_checkin",
                         {{"round", round.id}, {"device", msg.device_id}});
  if (round.submitted.size() == round.roster.size()) complete_locked(round);
  return {true, "accepted into round", 0};
}

bool CohortManager::recovery_complete_locked(const Round& round) const {
  for (std::uint64_t s : round.survivors)
    for (std::uint64_t d : round.dead)
      if (!round.seeds.count({std::min(s, d), std::max(s, d)})) return false;
  return true;
}

net::SecAggRevealMessage CohortManager::handle_reveal(
    const net::SecAggRevealMessage& req) {
  std::lock_guard<std::mutex> lock(mu_);
  tick_locked();

  net::SecAggRevealMessage resp;
  resp.request = false;
  resp.round_id = req.round_id;

  const auto rit = rounds_.find(req.round_id);
  if (rit == rounds_.end()) {
    // Round ids are sequential, so an id below next_round_id_ was pruned,
    // and only resolved rounds are pruned. A pruned round that completed
    // must read complete: a device told aborted re-releases its batch
    // classically, and the batch would apply twice. Aborted is the answer
    // for pruned aborted rounds and for ids that never existed: the
    // device re-releases with full LDP noise and charges its budget.
    const bool pruned = req.round_id >= 1 && req.round_id < next_round_id_;
    resp.status = pruned && !pruned_aborted_.count(req.round_id)
                      ? net::kSecAggRoundComplete
                      : net::kSecAggRoundAborted;
    return resp;
  }
  Round& round = rit->second;

  if (round.state == Round::kRecovering && !req.seeds.empty() &&
      round.submitted.count(req.device_id)) {
    // Accept (survivor, dead) pair seeds from any survivor — the fleet
    // key makes every pairwise seed derivable by every key holder, so
    // one complete reveal finishes recovery. Pairs that are not
    // (survivor, dead) are ignored: their masks either cancelled
    // already or never entered the sum.
    for (const net::SecAggSeedShare& s : req.seeds) {
      const std::uint64_t lo = std::min(s.a, s.b), hi = std::max(s.a, s.b);
      const bool lo_dead =
          std::find(round.dead.begin(), round.dead.end(), lo) !=
          round.dead.end();
      const bool hi_dead =
          std::find(round.dead.begin(), round.dead.end(), hi) !=
          round.dead.end();
      if (lo_dead == hi_dead) continue;  // need exactly one dead endpoint
      const bool other_survived =
          round.submitted.count(lo_dead ? hi : lo) != 0;
      if (!other_survived) continue;
      round.seeds[{lo, hi}] = s.seed;
    }
    if (recovery_complete_locked(round)) complete_locked(round);
  }

  switch (round.state) {
    case Round::kCollecting:
      resp.status = net::kSecAggRoundCollecting;
      resp.retry_after_ms = config_.poll_retry_ms;
      break;
    case Round::kRecovering:
      resp.status = net::kSecAggRoundRecovering;
      resp.dead = round.dead;
      resp.survivors = round.survivors;
      resp.retry_after_ms = config_.poll_retry_ms;
      break;
    case Round::kComplete:
      resp.status = net::kSecAggRoundComplete;
      break;
    case Round::kAborted:
      resp.status = net::kSecAggRoundAborted;
      break;
  }
  return resp;
}

void CohortManager::complete_locked(Round& round) {
  const bool recovered = round.state == Round::kRecovering;
  const std::size_t dim = config_.param_dim;
  const std::size_t classes = config_.num_classes;
  const std::size_t words_len = dim + 1 + classes;

  // Element-wise modular sum of every survivor's masked words
  // [g | ne | ny]. With a full roster all pairwise masks cancel here;
  // with dropouts the (survivor, dead) streams survive and are
  // subtracted below using the revealed seeds.
  std::vector<std::uint64_t> words(words_len, 0);
  std::int64_t ns_total = 0;
  std::uint64_t param_version = ~0ULL;
  for (const auto& [id, sub] : round.submitted) {
    for (std::size_t i = 0; i < dim; ++i) words[i] += sub.masked_g[i];
    words[dim] += sub.masked_ne;
    for (std::size_t i = 0; i < classes; ++i)
      words[dim + 1 + i] += sub.masked_ny[i];
    ns_total += sub.ns;
    param_version = std::min(param_version, sub.param_version);
  }
  if (recovered) {
    for (std::uint64_t s : round.survivors) {
      for (std::uint64_t d : round.dead) {
        const net::Digest& seed =
            round.seeds.at({std::min(s, d), std::max(s, d)});
        // Survivor s applied +stream when s < d, -stream otherwise;
        // apply the opposite sign to cancel it from the sum.
        apply_pair_mask(words, seed, /*add=*/!(s < d));
      }
    }
  }

  net::CheckinMessage record;
  record.device_id = kCohortDeviceIdBase | round.id;
  // The cohort record inherits the roster's (single, never mixed) class
  // so per-class pacing clocks account the applied round to the right
  // bucket. Class 0 keeps the record bytes identical to the pre-class
  // format.
  record.device_class = round.device_class;
  record.param_version = param_version == ~0ULL ? 0 : param_version;
  record.ns = ns_total;
  record.g_hat.resize(dim);
  const double n_surv = static_cast<double>(round.submitted.size());
  for (std::size_t i = 0; i < dim; ++i)
    record.g_hat[i] = dequantize(words[i]) / n_surv;
  record.ne_hat = decode_count(words[dim]);
  record.ny_hat.resize(classes);
  for (std::size_t i = 0; i < classes; ++i)
    record.ny_hat[i] = decode_count(words[dim + 1 + i]);

  const std::size_t survivors = round.submitted.size();
  const net::AckMessage ack = apply_(record);
  resolve_locked(round, Round::kComplete);
  if (recovered) {
    ++recovered_;
    ++rounds_recovered_c_;
  }
  if (config_.trace)
    config_.trace->event("secagg_round_complete",
                         {{"round", round.id},
                          {"survivors", survivors},
                          {"recovered", recovered},
                          {"applied", ack.ok}});
}

void CohortManager::resolve_locked(Round& round, Round::State terminal) {
  round.state = terminal;
  ++changes_;
  for (std::uint64_t id : round.roster) {
    const auto it = assignment_.find(id);
    if (it != assignment_.end() && it->second == round.id)
      assignment_.erase(it);
  }
  round.submitted.clear();  // blobs are not needed past resolution
  if (terminal == Round::kComplete) {
    ++completed_;
    ++rounds_completed_c_;
  } else {
    ++aborted_;
    ++rounds_aborted_c_;
    if (config_.trace)
      config_.trace->event("secagg_round_aborted", {{"round", round.id}});
  }
}

void CohortManager::prune_locked() {
  while (rounds_.size() > config_.rounds_retained) {
    auto oldest = rounds_.begin();
    if (oldest->second.state == Round::kCollecting ||
        oldest->second.state == Round::kRecovering)
      break;  // never drop a live round
    if (oldest->second.state == Round::kAborted)
      pruned_aborted_.insert(oldest->first);
    rounds_.erase(oldest);
  }
}

std::uint64_t CohortManager::changes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return changes_;
}

std::int64_t CohortManager::ms_until_next_deadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  const auto consider = [&](std::int64_t deadline) {
    if (deadline > last_tick_ms_) next = std::min(next, deadline);
  };
  for (const auto& [id, round] : rounds_)
    if (round.state == Round::kCollecting || round.state == Round::kRecovering)
      consider(round.deadline_ms);
  for (const auto& [cls, waiters] : forming_)
    for (const Waiter& w : waiters)
      consider(w.since_ms + config_.round_timeout_ms);
  if (next == std::numeric_limits<std::int64_t>::max()) return -1;
  return std::max<std::int64_t>(0, next - now_ms());
}

long long CohortManager::rounds_sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}
long long CohortManager::rounds_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}
long long CohortManager::rounds_recovered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovered_;
}
long long CohortManager::rounds_aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aborted_;
}
long long CohortManager::masked_checkins() const {
  std::lock_guard<std::mutex> lock(mu_);
  return masked_;
}

}  // namespace crowdml::secagg
