// Concrete strategy classes, internal to src/core: everything else goes
// through make_strategy() / make_dsm_timeout_strategy().  Five kinds share
// three flows, because the paper's variants differ only in data the
// simulator already carries: DSM-T is DSM with a rebalance timeout (§2),
// and CCR is DCR with the Capture wiring instead of the Wave one (§3).
#pragma once

#include <vector>

#include "core/strategy.hpp"

namespace rill::core {

/// Control-plane instant on the controller lane (no-op when tracing is off).
void strategy_instant(dsps::Platform& platform, const char* name);

/// Default Storm Migration: always-on acking for every user event plus
/// periodic checkpoints; migration = rebalance, then an INIT wave that is
/// re-sent only on 30 s ack-timeout failures.
///
/// DSM-T adds Storm's rebalance timeout: the sources pause for a
/// user-estimated window before the kill, hoping in-flight events drain.
/// Unlike DCR there is no rearguard to *verify* the drain — an
/// under-estimate still loses events, an over-estimate idles the dataflow.
class DsmStrategy final : public MigrationStrategy {
 public:
  /// `kind` is DSM (timeout 0) or DSM_T; a DSM_T with timeout 0 behaves
  /// like DSM but still reports DSM_T.
  DsmStrategy(StrategyKind kind, SimDuration timeout)
      : kind_(kind), timeout_(timeout) {}
  [[nodiscard]] StrategyKind kind() const noexcept override { return kind_; }
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;

 private:
  StrategyKind kind_;
  SimDuration timeout_;
};

/// The transactional pause → checkpoint → rebalance → restore → unpause
/// flow: DCR (Drain, Checkpoint and Restore) with the Wave wiring, CCR
/// (Capture, Checkpoint and Resume) with the Capture wiring.  On a failed
/// checkpoint the migration aborts before anything moves.  On a failed
/// restore (init_deadline exceeded) it broadcasts ROLLBACK, re-pins the
/// failed placements onto their exact old slots and runs an unbounded
/// recovery INIT, so the sources only resume once the old placement is
/// restored — the abort itself loses no user events.
class CheckpointedStrategy final : public MigrationStrategy {
 public:
  /// `kind` is DCR or CCR.
  explicit CheckpointedStrategy(StrategyKind kind) : kind_(kind) {}
  [[nodiscard]] StrategyKind kind() const noexcept override { return kind_; }
  void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
               std::function<void(bool)> done) override;

 private:
  [[nodiscard]] dsps::CheckpointMode mode() const noexcept {
    return kind_ == StrategyKind::CCR ? dsps::CheckpointMode::Capture
                                      : dsps::CheckpointMode::Wave;
  }
  void abort_and_repin(dsps::Platform& platform, dsps::Placement old_placement,
                       std::vector<VmId> old_vms,
                       std::function<void(bool)> done);

  StrategyKind kind_;
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
