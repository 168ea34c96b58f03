// CkptPolicy: failure-rate-driven checkpoint tuning with an RTO.
//
// Khaos-style adaptive checkpointing (PAPERS.md): instead of hand-set
// `--ckpt-*` flags, the policy periodically re-solves the checkpoint
// interval, the delta-vs-full size threshold and the compaction cadence
// from what the run actually observes —
//
//   MTTF̂  estimated from chaos failure events (per-kind inter-failure
//          EWMAs, rates summed across kinds — estimators.hpp),
//   MTTR̂  estimated from measured recovery windows (RecoveryTracker),
//   C      the measured checkpoint wave cost (coordinator EWMA),
//
// against a user recovery-time objective (`--ckpt-rto-ms`).  The solve is
// Young/Daly adapted to stream replay (see solve() in policy.cpp and
// DESIGN.md §7):
//
//   τ_rto  = RTO − safety · MTTR̂          (worst recovery ≈ MTTR + τ)
//   τ_daly = sqrt(2 · MTTF̂ · C / r)       r = source_rate / pump_rate —
//            lost work is re-covered by backlog replay at the pump rate,
//            so a second of staleness only costs r seconds of catch-up
//   τ      = clamp(min(τ_rto, τ_daly), min, max)
//
// Decisions are pushed at retune-epoch boundaries through
// CheckpointCoordinator::apply_interval() and Platform::config_mut(), so
// the wave scheduler and the executors' per-COMMIT decide_commit_form()
// pick them up on the next wave.  Until both a failure and a recovery have
// been measured the policy holds the configured static values.
//
// Determinism: the retune timer is the only event the policy schedules,
// and only when enabled — with `--ckpt-adaptive 0` a run is byte-identical
// to one without the policy object at all; with it on, identical seeds
// retune identically (all inputs are sim-time-derived).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "chaos/plan.hpp"
#include "ckpt/estimators.hpp"
#include "ckpt/recovery.hpp"
#include "common/time.hpp"
#include "sim/engine.hpp"

namespace rill::dsps {
class Platform;
}

namespace rill::ckpt {

struct PolicyConfig {
  bool enabled{false};
  /// Recovery-time objective: downtime + staleness a recovery may cost.
  SimDuration rto{time::sec(60)};
  /// How often the controller re-solves and pushes decisions.
  SimDuration retune_epoch{time::sec(30)};
  /// Bounds on the interval the solve picks.
  static constexpr SimDuration min_interval = time::sec(5);
  static constexpr SimDuration max_interval = time::sec(300);
  /// Headroom multiplier on MTTR̂ in the RTO bound (estimates smooth, the
  /// next recovery may run longer than the average).
  static constexpr double mttr_safety = 1.2;
  /// EWMA smoothing for both estimators.
  static constexpr double estimator_alpha = 0.3;
  /// Bounds on the compaction cadence the solve picks.
  static constexpr int min_full_every = 2;
  static constexpr int max_full_every = 16;
  /// Interval moves smaller than this fraction of the current value are
  /// suppressed — hysteresis against re-arm churn on every epoch.
  static constexpr double hysteresis = 0.10;
};

/// Everything one solve consumes, bundled so the math is a pure function
/// (unit-testable without a platform).
struct PolicyInputs {
  std::optional<SimDuration> mttf;
  std::optional<SimDuration> mttr;
  SimDuration wave_cost{0};  ///< measured PREPARE→COMMIT span (0 = none yet)
  double replay_ratio{0.2};  ///< source_rate / backlog_pump_rate
  SimDuration current_interval{0};
  int current_full_every{8};
  /// The operator-configured delta threshold, the relax target.
  double base_delta_ratio{0.5};
};

struct PolicyDecision {
  SimDuration interval{0};
  int full_every{8};
  double delta_max_ratio{0.5};
  bool interval_changed{false};
};

/// One policy solve.  Pure: no clock, no platform, no state.
[[nodiscard]] PolicyDecision solve(const PolicyInputs& in,
                                   const PolicyConfig& cfg);

struct PolicyStats {
  std::uint64_t retunes{0};
  std::uint64_t interval_changes{0};
  std::uint64_t failures_seen{0};
  std::uint64_t recoveries_seen{0};
  SimDuration last_interval{0};
  SimDuration last_mttf{0};  ///< 0 = no estimate yet
  SimDuration last_mttr{0};
  SimDuration last_wave_cost{0};
  int last_full_every{0};
  double last_delta_ratio{0.0};
};

class CkptPolicy {
 public:
  CkptPolicy(dsps::Platform& platform, PolicyConfig cfg);

  /// Schedule the retune epochs.  No-op unless cfg.enabled — a disabled
  /// policy never touches the engine (byte-identical traces, invariant 7).
  void start();
  void stop();

  /// Failure-event hook (chaos::ChaosInjector::set_failure_listener).
  /// Only process-killing kinds (worker crash, VM failure) feed the MTTF
  /// estimator — protocol faults degrade progress but destroy no state.
  void on_failure(chaos::FaultKind kind, SimTime at);
  /// Recovery-window hook (RecoveryTracker::set_sink).
  void on_recovery(const RecoveryRecord& rec);

  [[nodiscard]] const PolicyStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MttfEstimator& mttf() const noexcept { return mttf_; }
  [[nodiscard]] const MttrEstimator& mttr() const noexcept { return mttr_; }
  [[nodiscard]] const PolicyConfig& config() const noexcept { return cfg_; }

 private:
  void retune();

  dsps::Platform& platform_;
  PolicyConfig cfg_;
  MttfEstimator mttf_;
  MttrEstimator mttr_;
  double base_delta_ratio_{0.5};
  std::unique_ptr<sim::PeriodicTimer> epoch_;
  PolicyStats stats_;
};

}  // namespace rill::ckpt
