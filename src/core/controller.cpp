#include "core/controller.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace rill::core {

namespace {

void controller_instant(dsps::Platform& platform, const char* name,
                        std::initializer_list<obs::Arg> args = {}) {
  if (auto* tr = platform.tracer()) {
    tr->instant(obs::kTrackController, "controller", name, args);
  }
}

}  // namespace

void MigrationController::request(dsps::MigrationPlan plan,
                                  std::function<void(bool)> on_done) {
  begin(std::move(plan), std::nullopt, std::move(on_done));
}

void MigrationController::request(dsps::MigrationPlan plan, StrategyKind kind,
                                  std::function<void(bool)> on_done) {
  begin(std::move(plan), kind, std::move(on_done));
}

void MigrationController::begin(dsps::MigrationPlan plan,
                                std::optional<StrategyKind> kind,
                                std::function<void(bool)> on_done) {
  if (in_flight_) {
    // The in-flight migration (possibly mid abort→re-pin→retry) must not
    // be double-triggered: refuse the overlapping request synchronously.
    controller_instant(platform_, "rejected");
    if (on_done) on_done(false);
    return;
  }
  in_flight_ = true;
  success_ = false;
  recovery_ = RecoveryStats{};
  active_ = &strategy_for(kind.value_or(strategy_->kind()));
  // Every request re-asserts its strategy's session knobs: an earlier
  // request of another kind, or a DSM fallback, may have flipped acking or
  // periodic waves.  configure() is idempotent.
  active_->configure(platform_);
  plan_ = std::move(plan);
  controller_instant(
      platform_, "request",
      {obs::arg("strategy", std::string(to_string(active_->kind())))});
  start_attempt(std::move(on_done));
}

MigrationStrategy& MigrationController::strategy_for(StrategyKind kind) {
  if (kind == strategy_->kind()) return *strategy_;
  auto& slot = owned_[kind];
  if (!slot) slot = make_strategy(kind);
  return *slot;
}

void MigrationController::start_attempt(std::function<void(bool)> on_done) {
  ++recovery_.attempts;
  controller_instant(platform_, "attempt",
                     {obs::arg("n", recovery_.attempts)});
  active_->migrate(platform_, plan_,
                   [this, on_done = std::move(on_done)](bool ok) mutable {
                     on_attempt_done(ok, std::move(on_done));
                   });
}

void MigrationController::on_attempt_done(bool ok,
                                          std::function<void(bool)> on_done) {
  if (ok || recovery_.fell_back) {
    // Success, or the DSM fallback finished (its verdict is final either
    // way — there is nothing further to degrade to).
    finish(ok, on_done);
    return;
  }

  ++recovery_.aborted_attempts;
  if (!recovery_.first_abort_latency_sec.has_value()) {
    recovery_.first_abort_latency_sec = active_->phases().abort_latency_sec();
  }
  controller_instant(platform_, "abort",
                     {obs::arg("attempt", recovery_.attempts)});

  if (recovery_.attempts < config_.max_attempts) {
    controller_instant(platform_, "retry");
    platform_.engine().schedule_detached(
        ControllerConfig::retry_backoff,
        [this, on_done = std::move(on_done)]() mutable {
          start_attempt(std::move(on_done));
        });
    return;
  }
  if (config_.fallback_to_dsm && active_->kind() != StrategyKind::DSM) {
    fall_back(std::move(on_done));
    return;
  }
  finish(false, on_done);
}

void MigrationController::fall_back(std::function<void(bool)> on_done) {
  recovery_.fell_back = true;
  recovery_.fallback_at = platform_.engine().now();
  controller_instant(platform_, "fallback");

  // Degrade to the baseline: re-configure the platform for always-on
  // acking + periodic checkpoints, then rebalance immediately.  The acker
  // replays whatever the kill loses; state restores from the last
  // committed checkpoint (possibly the aborted attempts' JIT one).
  active_ = &strategy_for(StrategyKind::DSM);
  active_->configure(platform_);
  start_attempt(std::move(on_done));
}

void MigrationController::finish(bool ok, std::function<void(bool)>& on_done) {
  in_flight_ = false;
  success_ = ok;
  controller_instant(platform_, "done", {obs::arg("ok", ok)});
  if (on_done) on_done(ok);
}

}  // namespace rill::core
