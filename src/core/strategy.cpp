#include "core/strategy.hpp"

#include <memory>
#include <utility>

#include "core/strategies.hpp"
#include "obs/trace.hpp"

namespace rill::core {

void strategy_instant(dsps::Platform& platform, const char* name) {
  if (auto* tr = platform.tracer()) {
    tr->instant(obs::kTrackController, "strategy", name);
  }
}

std::string_view to_string(StrategyKind k) noexcept {
  switch (k) {
    case StrategyKind::DSM: return "DSM";
    case StrategyKind::DSM_T: return "DSM-T";
    case StrategyKind::DCR: return "DCR";
    case StrategyKind::CCR: return "CCR";
    case StrategyKind::FGM: return "FGM";
  }
  return "?";
}

std::unique_ptr<MigrationStrategy> make_strategy(StrategyKind k) {
  switch (k) {
    case StrategyKind::DSM:
      return std::make_unique<DsmStrategy>(StrategyKind::DSM, /*timeout=*/0);
    case StrategyKind::DSM_T: return make_dsm_timeout_strategy(time::sec(10));
    case StrategyKind::DCR:
    case StrategyKind::CCR: return std::make_unique<CheckpointedStrategy>(k);
    case StrategyKind::FGM: return std::make_unique<FgmStrategy>();
  }
  return nullptr;
}

std::unique_ptr<MigrationStrategy> make_dsm_timeout_strategy(
    SimDuration timeout) {
  return std::make_unique<DsmStrategy>(StrategyKind::DSM_T, timeout);
}

void MigrationStrategy::configure(dsps::Platform& platform) const {
  // DCR and CCR checkpoint just in time at migration instead, and FGM moves
  // state per key batch through the store.
  const bool dsm = kind() == StrategyKind::DSM || kind() == StrategyKind::DSM_T;
  platform.set_user_acking(dsm);
  if (dsm) {
    platform.coordinator().start_periodic();
  } else {
    platform.coordinator().stop_periodic();
  }
}

void MigrationStrategy::begin_phases(dsps::Platform& platform) {
  phases_ = PhaseTimes{};
  phases_.request_at = platform.engine().now();
  strategy_instant(platform, "request");
}

void CheckpointedStrategy::migrate(dsps::Platform& platform,
                                   dsps::MigrationPlan plan,
                                   std::function<void(bool)> done) {
  begin_phases(platform);

  // 1) Pause the sources.  Wave mode drains in-flight events behind the
  //    PREPARE rearguard; Capture mode snapshots them into pending lists.
  platform.pause_sources();
  phases_.checkpoint_started = platform.engine().now();

  // 2) JIT checkpoint (retried per-wave by the coordinator).
  platform.coordinator().run_checkpoint(
      mode(), [this, &platform, plan = std::move(plan),
               done = std::move(done)](bool ok) mutable {
        if (!ok) {
          // Checkpoint aborted after exhausting wave retries; the
          // coordinator already broadcast ROLLBACK.  Nothing has moved —
          // the old placement is intact, so just resume the sources.
          phases_.aborted = true;
          phases_.aborted_at = platform.engine().now();
          strategy_instant(platform, "abort");
          platform.unpause_sources();
          phases_.sources_unpaused = platform.engine().now();
          if (done) done(false);
          return;
        }
        phases_.checkpoint_done = platform.engine().now();
        strategy_instant(platform, "checkpoint_done");

        // Transactional bookkeeping: snapshot the old placement before
        // anything moves and defer the old-VM release until the restore
        // commits, so an abort can re-pin with zero loss.
        dsps::Placement old_placement =
            platform.rebalancer().current_placement();
        std::vector<VmId> old_vms = platform.worker_vms();
        std::vector<VmId> target_vms = plan.target_vms;
        const bool release_requested = plan.release_old_vms;
        plan.release_old_vms = false;

        // 3) Rebalance with zero timeout — the dataflow is empty (Wave) or
        //    snapshotted (Capture).
        phases_.rebalance_invoked = platform.engine().now();
        platform.rebalancer().rebalance(
            std::move(plan), /*timeout=*/0,
            [this, &platform, old_placement = std::move(old_placement),
             old_vms = std::move(old_vms), target_vms = std::move(target_vms),
             release_requested, done = std::move(done)]() mutable {
              phases_.rebalance_completed = platform.engine().now();

              // 4) INIT restore with aggressive 1 s re-sends, bounded by
              //    the init deadline.
              platform.coordinator().run_init(
                  platform.coordinator().last_committed(), mode(),
                  platform.config().init_resend_period,
                  [this, &platform, old_placement = std::move(old_placement),
                   old_vms = std::move(old_vms),
                   target_vms = std::move(target_vms), release_requested,
                   done = std::move(done)](bool ok2) mutable {
                    if (!ok2) {
                      abort_and_repin(platform, std::move(old_placement),
                                      std::move(old_vms), std::move(done));
                      return;
                    }
                    phases_.init_complete = platform.engine().now();
                    strategy_instant(platform, "init_complete");
                    // Restore committed: now the vacated VMs may go.
                    if (release_requested) {
                      platform.cluster().release_except(old_vms, target_vms);
                    }
                    // 5) Unpause: backlogged events refill the dataflow.
                    platform.unpause_sources();
                    phases_.sources_unpaused = platform.engine().now();
                    strategy_instant(platform, "unpause");
                    if (done) done(true);
                  },
                  platform.config().init_deadline);
            });
      });
}

void CheckpointedStrategy::abort_and_repin(dsps::Platform& platform,
                                           dsps::Placement old_placement,
                                           std::vector<VmId> old_vms,
                                           std::function<void(bool)> done) {
  phases_.aborted = true;
  phases_.aborted_at = platform.engine().now();
  strategy_instant(platform, "abort");

  // Discard any half-restored snapshots on the target workers.
  platform.coordinator().broadcast_rollback(
      platform.coordinator().last_committed());

  // Re-pin only the placements whose restore actually failed — workers
  // still launching or still awaiting INIT.  Workers that are up and
  // initialised hold restored state on the target; re-killing them (the
  // old behaviour) threw that away and re-fetched it for nothing, and
  // under a partial store outage could push a healthy instance's second
  // restore into the same dead shard.  Their VMs stay in the worker pool
  // (the rebalancer unions them in for a scoped plan).  The old VMs were
  // kept alive for exactly this case; the failed target VMs also stay
  // provisioned so the controller can retry or fall back to DSM.
  std::vector<dsps::InstanceRef> failed;
  for (const auto& [ref, slot] : old_placement) {
    const dsps::Executor& ex = platform.executor(ref);
    if (!ex.ready() || ex.awaiting_init()) failed.push_back(ref);
  }
  auto pinned =
      std::make_shared<dsps::PinnedScheduler>(std::move(old_placement));
  dsps::MigrationPlan repin;
  repin.target_vms = std::move(old_vms);
  repin.scheduler = pinned.get();
  repin.release_old_vms = false;
  repin.instances = std::move(failed);
  platform.rebalancer().rebalance(
      std::move(repin), /*timeout=*/0,
      [this, &platform, pinned, done = std::move(done)]() mutable {
        phases_.repinned_at = platform.engine().now();
        strategy_instant(platform, "repin");
        // Unbounded recovery INIT against the same committed checkpoint:
        // once the fault lifts, the restore completes and only then do the
        // sources resume — the abort itself loses no user events.
        platform.coordinator().run_init(
            platform.coordinator().last_committed(), mode(),
            platform.config().init_resend_period,
            [this, &platform, done = std::move(done)](bool) mutable {
              platform.unpause_sources();
              phases_.sources_unpaused = platform.engine().now();
              if (done) done(false);
            });
      });
}

}  // namespace rill::core
