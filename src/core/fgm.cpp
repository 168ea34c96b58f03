#include <memory>
#include <utility>

#include "core/strategies.hpp"

namespace rill::core {

/// Shared state of one fluid attempt: the per-instance batch chains run
/// concurrently and the last one to park (AllMoved or Failed) decides the
/// attempt's outcome.
struct FgmStrategy::FluidCtx {
  dsps::MigrationPlan plan;
  std::function<void(bool)> done;
  int remaining{0};
  bool failed{false};
};

void FgmStrategy::migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
                          std::function<void(bool)> done) {
  begin_phases(platform);

  auto ctx = std::make_shared<FluidCtx>();
  ctx->plan = std::move(plan);
  ctx->done = std::move(done);
  ctx->remaining = static_cast<int>(platform.worker_instances().size());

  // The "rebalance" here only places shadow slots — nothing pauses and
  // nothing is killed, so the drain window (request → invoke) is zero.
  phases_.rebalance_invoked = platform.engine().now();
  if (ctx->remaining == 0) {
    if (ctx->done) ctx->done(true);
    return;
  }
  platform.rebalancer().prepare_shadows(
      ctx->plan, [this, &platform, ctx](dsps::InstanceRef ref) {
        if (!phases_.rebalance_completed.has_value()) {
          phases_.rebalance_completed =
              platform.rebalancer().last()->command_completed_at;
        }
        run_chain(platform, ctx, ref);
      });
}

void FgmStrategy::run_chain(dsps::Platform& platform,
                            std::shared_ptr<FluidCtx> ctx,
                            dsps::InstanceRef ref) {
  platform.executor(ref).fgm_move_next_batch(
      [this, &platform, ctx, ref](dsps::FgmMoveOutcome out) {
        if (out == dsps::FgmMoveOutcome::Moved) {
          run_chain(platform, ctx, ref);
          return;
        }
        if (out == dsps::FgmMoveOutcome::Failed) ctx->failed = true;
        if (--ctx->remaining > 0) return;  // other chains still draining
        finish_attempt(platform, ctx);
      });
}

void FgmStrategy::finish_attempt(dsps::Platform& platform,
                                 std::shared_ptr<FluidCtx> ctx) {
  const SimTime now = platform.engine().now();
  if (ctx->failed) {
    // Unmoved ranges never left their old slots, moved ranges already live
    // behind the shadow routing, and the sources never paused — the abort
    // is instantaneous and loses nothing.  Shadows stay warm so a retry
    // resumes from the ranges still unmoved.
    phases_.aborted = true;
    phases_.aborted_at = now;
    strategy_instant(platform, "abort");
    platform.rebalancer().abort_fluid();
    phases_.sources_unpaused = now;
    if (ctx->done) ctx->done(false);
    return;
  }
  // Every batch landed on its shadow: the moment state is whole on the
  // target is this strategy's "init complete".
  phases_.init_complete = now;
  strategy_instant(platform, "fgm_all_moved");
  platform.rebalancer().finalize_fluid(ctx->plan);
  if (ctx->done) ctx->done(true);
}

}  // namespace rill::core
