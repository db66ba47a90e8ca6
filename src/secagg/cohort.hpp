// Server-side secure-aggregation round lifecycle (docs/PRIVACY.md
// "Secure aggregation").
//
// The CohortManager assigns checked-out devices into cohorts of
// `cohort_size` per round — formed per declared device class
// (net::SecAggAssignMessage::device_class), so a fast-class cohort
// seals on fast-class arrivals alone and one flaky-class straggler
// cannot hold the round open into dropout recovery for everyone else.
// Cohorts also never span shards, structurally: each shard leader runs
// its own CohortManager over only the devices its shard owns
// (docs/SHARDING.md). The manager collects the pairwise-masked checkins
// (net::SecAggMaskedMessage), and applies a round only once its sum is
// unmaskable: either every roster member submitted (all masks cancel by
// construction) or the dropouts' unmatched mask streams were subtracted
// with seeds revealed by a surviving peer. Below `min_survivors` the
// round aborts and the devices fall back to classic per-device LDP
// checkins — privacy never silently degrades.
//
// The manager owns no thread and no timer. Every handler calls tick()
// first, so deadlines are acted on whenever a request is handled, and
// tests drive the clock explicitly via set_clock(). Over the serving
// engine, requests whose answer is not ready (a pending assign, a
// collecting status poll) are held by the applier and asked again when
// changes() moves or ms_until_next_deadline() runs out, so a device
// hears the answer as soon as it exists instead of polling on a timer
// (engine/applier.hpp). In-process callers poll with retry_after_ms.
// The completed round is applied through the `apply` callback as a single
// synthetic net::CheckinMessage (device_id = kCohortDeviceIdBase |
// round_id), so the engine's applier WALs it as an ordinary checkin
// record and recovery semantics are unchanged.
//
// Thread-safe: handlers may be called from any applier or test thread;
// one mutex covers all round state.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "secagg/mask.hpp"

namespace crowdml::secagg {

/// Synthetic device-id namespace for applied cohort records: the top bit
/// is set, so a cohort record can never collide with an enrolled device
/// (AuthRegistry ids are sequential from 1).
inline constexpr std::uint64_t kCohortDeviceIdBase = 0x8000000000000000ULL;

struct CohortConfig {
  std::size_t cohort_size = 8;     ///< --secagg-cohort
  std::size_t min_survivors = 2;   ///< --secagg-min-survivors (>= 2)
  std::int64_t round_timeout_ms = 2000;  ///< collect + reveal deadlines
  /// Retry hint on pending/collecting responses. Over the serving engine
  /// those are held until ready, so the hint only reaches in-process
  /// callers and requests the engine answers unready (past its park cap,
  /// or at shutdown).
  std::uint32_t poll_retry_ms = 50;
  /// The cohort record's expected shapes (validated per submission so a
  /// malformed blob cannot poison a sum).
  std::size_t param_dim = 0;
  std::size_t num_classes = 0;
  /// Resolved rounds retained in full before pruning; a late status poll
  /// for a pruned round still reads its outcome (complete or aborted).
  std::size_t rounds_retained = 64;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = default registry
  obs::TraceSink* trace = nullptr;
};

class CohortManager {
 public:
  /// `apply` receives the unmasked cohort record (one synthetic
  /// CheckinMessage per completed round) — wire Server::handle_checkin
  /// here. Must not call back into the manager.
  using ApplyFn = std::function<net::AckMessage(const net::CheckinMessage&)>;

  CohortManager(CohortConfig config, ApplyFn apply);

  /// Injectable monotonic clock (ms). Defaults to steady_clock.
  void set_clock(std::function<std::int64_t()> now_ms);

  /// Device poll: assign into a forming cohort, return the sealed
  /// roster, or tell the device to fall back. Auth happens at the
  /// protocol boundary; the manager trusts req.device_id.
  net::SecAggAssignMessage handle_assign(const net::SecAggAssignMessage& req);

  /// Masked checkin: an ok ack means "accepted into the round", not
  /// "applied". Completes the round inline when the last roster member
  /// submits.
  net::AckMessage handle_masked(const net::SecAggMaskedMessage& msg);

  /// Round-status poll / seed recovery. Seeds submitted while the round
  /// is recovering may complete it inline.
  net::SecAggRevealMessage handle_reveal(const net::SecAggRevealMessage& req);

  /// Advance round deadlines (called internally by every handler).
  void tick();

  /// Bumped by every transition that can change the answer to an
  /// assign or status request: a seal, a round moving to recovering,
  /// completing or aborting, a waiter told to fall back. A request that
  /// got a pending or collecting answer need not be asked again until
  /// this moves or the next deadline passes.
  std::uint64_t changes() const;

  /// Milliseconds (on the manager's clock) until the earliest deadline
  /// not yet passed at the last tick — a live round's collect or reveal
  /// deadline, or a forming waiter's timeout; 0 when it is due now, -1
  /// when there is none.
  std::int64_t ms_until_next_deadline() const;

  // Introspection (tests, the bench's JSON, the portal report).
  long long rounds_sealed() const;
  long long rounds_completed() const;
  long long rounds_recovered() const;  ///< completed via seed reveals
  long long rounds_aborted() const;
  long long masked_checkins() const;

  const CohortConfig& config() const { return config_; }

 private:
  struct Round {
    enum State { kCollecting, kRecovering, kComplete, kAborted };
    std::uint64_t id = 0;
    State state = kCollecting;
    /// The class every roster member declared (cohorts never mix).
    std::uint8_t device_class = 0;
    std::vector<std::uint64_t> roster;  // sorted ascending
    std::int64_t deadline_ms = 0;       // collect, then reveal deadline
    std::unordered_map<std::uint64_t, net::SecAggMaskedMessage> submitted;
    std::vector<std::uint64_t> dead;       // declared at recovery
    std::vector<std::uint64_t> survivors;  // declared at recovery
    /// Revealed (min,max) -> seed for (survivor, dead) pairs.
    std::map<std::pair<std::uint64_t, std::uint64_t>, net::Digest> seeds;
  };

  void tick_locked();
  void seal_locked(std::uint8_t device_class, std::size_t take);
  void complete_locked(Round& round);
  void resolve_locked(Round& round, Round::State terminal);
  void prune_locked();
  bool recovery_complete_locked(const Round& round) const;
  std::int64_t now_ms() const;

  CohortConfig config_;
  ApplyFn apply_;
  std::function<std::int64_t()> clock_;

  mutable std::mutex mu_;
  struct Waiter {
    std::uint64_t device_id = 0;
    std::int64_t since_ms = 0;
  };
  /// One forming queue per declared device class (FIFO within a class).
  std::map<std::uint8_t, std::vector<Waiter>> forming_;
  std::map<std::uint64_t, Round> rounds_;  // ordered: oldest first
  /// Ids of pruned rounds that aborted; every other pruned id completed.
  std::set<std::uint64_t> pruned_aborted_;
  std::unordered_map<std::uint64_t, std::uint64_t> assignment_;
  std::uint64_t next_round_id_ = 1;
  std::uint64_t changes_ = 0;
  /// Clock reading of the last tick; deadlines at or before it are done.
  std::int64_t last_tick_ms_ = std::numeric_limits<std::int64_t>::min();
  long long sealed_ = 0;
  long long completed_ = 0;
  long long recovered_ = 0;
  long long aborted_ = 0;
  long long masked_ = 0;

  obs::Counter& rounds_sealed_c_;
  obs::Counter& rounds_completed_c_;
  obs::Counter& rounds_recovered_c_;
  obs::Counter& rounds_aborted_c_;
  obs::Counter& masked_checkins_c_;
};

}  // namespace crowdml::secagg
