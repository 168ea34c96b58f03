// MigrationController: binds a platform and a strategy, enacts migration
// requests, and exposes completion state — the public entry point
// applications use (see examples/quickstart.cpp).
//
// The controller is also the recovery supervisor for transactional
// migrations: a DCR/CCR attempt that aborts (checkpoint exhausted its wave
// retries, or the restore missed its init deadline and was re-pinned onto
// the old placement) is retried after a backoff, and after `max_attempts`
// failed attempts the controller degrades to plain DSM — always-on acking
// plus periodic checkpoints — so the migration still completes, trading
// the paper's zero-loss guarantee for at-least-once progress.
//
// One migration runs at a time.  A request arriving while one is in flight
// (retries and backoff included) is rejected at once with on_done(false);
// nothing about the in-flight migration is perturbed.  The autoscale
// controller never gets there: its busy guard holds every trigger while a
// migration is in flight.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "common/pinned.hpp"
#include "core/strategy.hpp"
#include "dsps/platform.hpp"

namespace rill::core {

struct ControllerConfig {
  /// Transactional attempts (including the first) before giving up on the
  /// requested strategy.
  int max_attempts{3};
  /// Pause between a rolled-back attempt and the next one.
  static constexpr SimDuration retry_backoff = time::sec(5);
  /// Degrade to DSM after the attempts are exhausted instead of failing.
  bool fallback_to_dsm{true};
};

struct RecoveryStats {
  int attempts{0};          ///< migration attempts started (incl. fallback)
  int aborted_attempts{0};  ///< attempts that rolled back
  bool fell_back{false};    ///< degraded to DSM after exhausting attempts
  std::optional<SimTime> fallback_at;
  /// Abort → sources flowing again, for the first rolled-back attempt.
  std::optional<double> first_abort_latency_sec;
};

class RILL_PINNED MigrationController {
 public:
  MigrationController(dsps::Platform& platform, MigrationStrategy& strategy,
                      ControllerConfig config = {})
      : platform_(platform),
        strategy_(&strategy),
        active_(&strategy),
        config_(config) {}

  /// Enact the plan with the strategy bound at construction.  `on_done`
  /// (optional) fires when the migration finally completes — after retries
  /// and, if enabled, the DSM fallback.  If a migration is already in
  /// flight the request is rejected: on_done(false) fires before this
  /// returns.  Like every request, it runs the strategy's configure()
  /// first, so the platform's session knobs (acking, periodic waves) match
  /// the strategy whatever ran before.
  void request(dsps::MigrationPlan plan,
               std::function<void(bool)> on_done = {});

  /// Enact the plan with an explicit strategy for this request — the
  /// autoscale controller picks FGM/CCR/DCR per situation.
  void request(dsps::MigrationPlan plan, StrategyKind kind,
               std::function<void(bool)> on_done = {});

  [[nodiscard]] bool in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] bool succeeded() const noexcept { return success_; }
  /// Phases of the strategy that ran last (the fallback's once degraded).
  [[nodiscard]] const PhaseTimes& phases() const noexcept {
    return active_->phases();
  }
  [[nodiscard]] const RecoveryStats& recovery() const noexcept {
    return recovery_;
  }

 private:
  /// `kind` nullopt = the bound strategy.
  void begin(dsps::MigrationPlan plan, std::optional<StrategyKind> kind,
             std::function<void(bool)> on_done);
  /// The strategy every request, retry and fallback of `kind` runs: the
  /// bound one when its kind matches, else one made on first use.
  MigrationStrategy& strategy_for(StrategyKind kind);
  void start_attempt(std::function<void(bool)> on_done);
  void on_attempt_done(bool ok, std::function<void(bool)> on_done);
  void fall_back(std::function<void(bool)> on_done);
  void finish(bool ok, std::function<void(bool)>& on_done);

  dsps::Platform& platform_;
  MigrationStrategy* strategy_;          ///< bound default strategy (borrowed)
  MigrationStrategy* active_{nullptr};   ///< strategy currently migrating
  /// The other kinds' strategies, made on first use (ordered map: iteration
  /// never happens on a hot path, but determinism is free).
  std::map<StrategyKind, std::unique_ptr<MigrationStrategy>> owned_;
  ControllerConfig config_;
  dsps::MigrationPlan plan_;  ///< kept for retries / fallback
  RecoveryStats recovery_;
  bool in_flight_{false};
  bool success_{false};  ///< the last migration completed and succeeded
};

}  // namespace rill::core
