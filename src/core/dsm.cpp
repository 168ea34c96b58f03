#include "core/strategies.hpp"

namespace rill::core {

void DsmStrategy::configure(dsps::Platform& platform) {
  // Reliability is always-on: ack every user event, checkpoint
  // periodically (paper default: 30 s) into the store.
  platform.set_user_acking(true);
  platform.set_checkpoint_mode(dsps::CheckpointMode::Wave);
  // Periodic checkpoints benefit most from deltas: successive 30 s waves
  // usually touch a small fraction of the keyspace.
  platform.set_delta_checkpointing(platform.config().ckpt_delta);
  platform.coordinator().start_periodic();
}

void DsmStrategy::migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
                          std::function<void(bool)> done) {
  phases_ = PhaseTimes{};
  phases_.request_at = platform.engine().now();
  strategy_instant(platform, "request");

  // No drain, no JIT checkpoint: rebalance immediately with zero timeout.
  // Sources keep emitting throughout — lost events are replayed later by
  // the acker, and state comes back from the last periodic checkpoint.
  phases_.rebalance_invoked = platform.engine().now();
  platform.rebalancer().rebalance(
      std::move(plan), /*timeout=*/0,
      [this, &platform, done = std::move(done)]() mutable {
        phases_.rebalance_completed = platform.engine().now();
        const std::uint64_t cid = platform.coordinator().last_committed();
        // INIT wave restores the last committed state.  resend_period 0:
        // re-send only when a wave fails after the 30 s ack timeout —
        // Storm's out-of-the-box behaviour and the cause of the ≈30 s
        // restore-time jumps the paper observes.
        platform.coordinator().run_init(
            cid, dsps::CheckpointMode::Wave, /*resend_period=*/0,
            [this, &platform, done = std::move(done)](bool ok) {
              phases_.init_complete = platform.engine().now();
              strategy_instant(platform, "init_complete");
              phases_.migration_done = platform.engine().now();
              if (done) done(ok);
            });
      });
}

void DsmTimeoutStrategy::configure(dsps::Platform& platform) {
  platform.set_user_acking(true);
  platform.set_checkpoint_mode(dsps::CheckpointMode::Wave);
  platform.set_delta_checkpointing(platform.config().ckpt_delta);
  platform.coordinator().start_periodic();
}

void DsmTimeoutStrategy::migrate(dsps::Platform& platform,
                                 dsps::MigrationPlan plan,
                                 std::function<void(bool)> done) {
  phases_ = PhaseTimes{};
  phases_.request_at = platform.engine().now();
  strategy_instant(platform, "request");

  // Storm pauses the sources for the user-estimated timeout, lets whatever
  // happens to be in flight flow, then kills and redeploys.  The sources
  // resume when the command completes (inside the rebalancer).
  phases_.rebalance_invoked = platform.engine().now();
  platform.rebalancer().rebalance(
      std::move(plan), timeout_,
      [this, &platform, done = std::move(done)]() mutable {
        phases_.rebalance_completed = platform.engine().now();
        platform.coordinator().run_init(
            platform.coordinator().last_committed(),
            dsps::CheckpointMode::Wave, /*resend_period=*/0,
            [this, &platform, done = std::move(done)](bool ok) {
              phases_.init_complete = platform.engine().now();
              strategy_instant(platform, "init_complete");
              phases_.migration_done = platform.engine().now();
              if (done) done(ok);
            });
      });
}

}  // namespace rill::core
