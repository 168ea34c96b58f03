// Concrete strategy classes.  Most users go through make_strategy(); the
// concrete types are exposed for tests that poke at strategy internals.
#pragma once

#include "core/strategy.hpp"

namespace rill::core {

/// Control-plane instant on the controller lane (no-op when tracing is off).
void strategy_instant(dsps::Platform& platform, const char* name);

/// Default Storm Migration: always-on acking for every user event plus
/// periodic checkpoints; migration = immediate rebalance with timeout 0,
/// then an INIT wave that is re-sent only on 30 s ack-timeout failures.
class DsmStrategy final : public MigrationStrategy {
 public:
  [[nodiscard]] StrategyKind kind() const noexcept override {
    return StrategyKind::DSM;
  }
  void configure(dsps::Platform& platform) override;
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;
};

/// DSM with Storm's rebalance timeout: pause sources for a user-estimated
/// window before the kill, hoping in-flight events drain.  Unlike DCR
/// there is no rearguard to *verify* the drain — an under-estimate still
/// loses events, an over-estimate idles the dataflow.
class DsmTimeoutStrategy final : public MigrationStrategy {
 public:
  explicit DsmTimeoutStrategy(SimDuration timeout) : timeout_(timeout) {}
  [[nodiscard]] StrategyKind kind() const noexcept override {
    return StrategyKind::DSM_T;
  }
  [[nodiscard]] SimDuration timeout() const noexcept { return timeout_; }
  void configure(dsps::Platform& platform) override;
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;

 private:
  SimDuration timeout_;
};

/// Drain, Checkpoint and Restore.
class DcrStrategy final : public MigrationStrategy {
 public:
  [[nodiscard]] StrategyKind kind() const noexcept override {
    return StrategyKind::DCR;
  }
  void configure(dsps::Platform& platform) override;
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;
};

/// Capture, Checkpoint and Resume.
class CcrStrategy final : public MigrationStrategy {
 public:
  [[nodiscard]] StrategyKind kind() const noexcept override {
    return StrategyKind::CCR;
  }
  void configure(dsps::Platform& platform) override;
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;
};

/// Fluid key-batched migration (Megaphone-style): no pause, no kill.
/// Shadow workers warm up on the target VMs while the old placement keeps
/// processing; keyed state then moves one key-range batch at a time through
/// the checkpoint store.  Tuples for moved ranges route to the shadow
/// slots, tuples for the one in-flight range wait in a divert buffer
/// (charged to the `migration` attribution cause).  A failed transfer
/// aborts instantly — unmoved ranges never left their old slots — and a
/// retry resumes from the ranges still unmoved.
class FgmStrategy final : public MigrationStrategy {
 public:
  [[nodiscard]] StrategyKind kind() const noexcept override {
    return StrategyKind::FGM;
  }
  void configure(dsps::Platform& platform) override;
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;

 private:
  struct FluidCtx;
  /// Move batches for one instance until AllMoved or Failed; each parked
  /// chain decrements the shared attempt counter.
  void run_chain(dsps::Platform& platform, std::shared_ptr<FluidCtx> ctx,
                 dsps::InstanceRef ref);
  void finish_attempt(dsps::Platform& platform, std::shared_ptr<FluidCtx> ctx);
};

}  // namespace rill::core
