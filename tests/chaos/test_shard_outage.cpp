// Sharded checkpoint store under shard-targeted faults: a fault confined to
// one store VM must stay confined — retries and rollbacks touch only the
// keys the victim shard owns, and a clean 4-shard run keeps the protocol's
// exactly-once guarantees intact.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill {
namespace {

using core::StrategyKind;
using testutil::expect_exactly_once;
using workloads::DagKind;
using workloads::ScaleKind;

constexpr int kShards = 4;
/// Roots born before this have settled by the end of the 420 s run.
constexpr auto kSettle = static_cast<SimTime>(time::sec(300));

/// Short-timeout CCR scale-in config on the 4-shard tier (mirrors the
/// transactional-migration chaos config).
workloads::ExperimentConfig sharded_cfg(StrategyKind strategy) {
  workloads::ExperimentConfig cfg;
  cfg.dag = DagKind::Linear;
  cfg.strategy = strategy;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = 42;
  cfg.platform.kv_shards = kShards;
  cfg.platform.ack_timeout = time::sec(5);
  cfg.platform.init_deadline = time::sec(60);
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  return cfg;
}

// Control: a fault-free CCR migration on 4 shards behaves exactly like the
// single-shard protocol — one attempt, zero loss, and the INIT prefetch
// serves every restoring task.
TEST(ShardOutage, CleanShardedMigrationKeepsExactlyOnce) {
  const auto r = workloads::run_experiment(sharded_cfg(StrategyKind::CCR));
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.recovery.aborted_attempts, 0);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.post_commit_arrivals, 0u);
  EXPECT_GT(r.checkpoint.init_prefetch_hits, 0u);
  ASSERT_EQ(r.store_shards.size(), static_cast<std::size_t>(kShards));
  expect_exactly_once(r, kSettle);
}

// A brief outage on one shard over the COMMIT wave: the victim shard's
// writes time out and retry; every other shard commits first try and the
// migration still completes with zero loss.  A fault-free reference run
// pins down what "untouched" means — the healthy shards' write counters
// must match it exactly, proving the retry re-wrote only the victim.
TEST(ShardOutage, CommitRetryTouchesOnlyTheVictimShard) {
  const auto clean = workloads::run_experiment(sharded_cfg(StrategyKind::CCR));
  ASSERT_EQ(clean.store_shards.size(), static_cast<std::size_t>(kShards));

  bool found_victim = false;
  for (int victim = 0; victim < kShards && !found_victim; ++victim) {
    workloads::ExperimentConfig cfg = sharded_cfg(StrategyKind::CCR);
    // Short enough that the victim's per-operation retry budget (4 attempts
    // over ~3.5 s) straddles the window and the wave never has to re-run.
    cfg.chaos.kv_outage(time::sec(60), time::sec(2), victim);
    const auto r = workloads::run_experiment(cfg);
    if (r.chaos.kv_outage_hits == 0) continue;  // victim owns no live key
    found_victim = true;

    EXPECT_TRUE(r.migration_succeeded);
    // The store-level retry absorbed the fault: the coordinator never had
    // to re-run the wave, so no task re-snapshotted.
    EXPECT_EQ(r.checkpoint.wave_retries, 0u);
    EXPECT_GT(r.store_shards[static_cast<std::size_t>(victim)].timeouts, 0u);
    EXPECT_GT(r.store_shards[static_cast<std::size_t>(victim)].retries, 0u);
    for (int s = 0; s < kShards; ++s) {
      if (s == victim) continue;
      EXPECT_EQ(r.store_shards[static_cast<std::size_t>(s)].timeouts, 0u)
          << "shard " << s;
      EXPECT_EQ(r.store_shards[static_cast<std::size_t>(s)].retries, 0u)
          << "shard " << s;
      // Bystander shards saw exactly the fault-free write load: the
      // COMMIT retry did not re-persist their blobs.
      EXPECT_EQ(r.store_shards[static_cast<std::size_t>(s)].batch_items,
                clean.store_shards[static_cast<std::size_t>(s)].batch_items)
          << "shard " << s;
    }
    EXPECT_EQ(r.report.lost_events, 0u);
    EXPECT_EQ(r.report.replayed_messages, 0u);
    expect_exactly_once(r, kSettle);
  }
  ASSERT_TRUE(found_victim)
      << "no shard owned a checkpoint key during the outage window";
}

// The victim shard stays dark for the whole COMMIT phase: the wave
// exhausts its retries and the strategy aborts via ROLLBACK — but the
// blast radius stays one shard wide (no other shard ever failed a
// request) and nothing is lost on the surviving placement.
TEST(ShardOutage, FullShardOutageRollsBackWithoutTouchingOthers) {
  bool found_victim = false;
  for (int victim = 0; victim < kShards && !found_victim; ++victim) {
    workloads::ExperimentConfig cfg = sharded_cfg(StrategyKind::CCR);
    cfg.controller.max_attempts = 1;
    cfg.controller.fallback_to_dsm = false;
    cfg.chaos.kv_outage(time::sec(60), time::sec(60), victim);
    const auto r = workloads::run_experiment(cfg);
    if (r.chaos.kv_outage_hits == 0) continue;
    found_victim = true;

    EXPECT_FALSE(r.migration_succeeded);
    EXPECT_EQ(r.recovery.aborted_attempts, 1);
    EXPECT_GE(r.checkpoint.waves_rolled_back, 1u);
    EXPECT_GT(
        r.store_shards[static_cast<std::size_t>(victim)].failed_requests, 0u);
    for (int s = 0; s < kShards; ++s) {
      if (s == victim) continue;
      EXPECT_EQ(r.store_shards[static_cast<std::size_t>(s)].failed_requests,
                0u)
          << "shard " << s;
      EXPECT_EQ(r.store_shards[static_cast<std::size_t>(s)].timeouts, 0u)
          << "shard " << s;
    }
    EXPECT_EQ(r.report.lost_events, 0u);
    EXPECT_EQ(r.report.replayed_messages, 0u);
    expect_exactly_once(r, kSettle);
  }
  ASSERT_TRUE(found_victim)
      << "no shard owned a checkpoint key during the outage window";
}

// An outage across the whole INIT window: the first restore session blows
// its deadline, and the strategy broadcasts ROLLBACK, re-pins the old
// placement and recovers it once the store is back.  The retry 5 s later
// must then succeed with exactly-once intact, and the restores after the
// outage read the cross-shard prefetch.
TEST(ShardOutage, AbortedInitRetrySucceedsAfterOutage) {
  workloads::ExperimentConfig cfg = sharded_cfg(StrategyKind::CCR);
  cfg.controller.max_attempts = 2;
  cfg.controller.fallback_to_dsm = false;
  // COMMIT lands by ~63 s; the outage opens right after and outlives the
  // 60 s INIT deadline, which every worker start-up fits inside, so the
  // first session fails because the *store* is dark, not because a worker
  // came up late.
  cfg.chaos.kv_outage(time::sec(64), time::sec(80), -1);
  const auto r = workloads::run_experiment(cfg);

  ASSERT_GT(r.chaos.kv_outage_hits, 0u);
  EXPECT_GE(r.checkpoint.init_sessions_failed, 1u);
  EXPECT_EQ(r.recovery.aborted_attempts, 1);
  EXPECT_EQ(r.recovery.attempts, 2);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_GT(r.checkpoint.init_prefetch_hits, 0u);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.post_commit_arrivals, 0u);
  EXPECT_EQ(r.accounting_violations, 0u);
  expect_exactly_once(r, kSettle);
}

}  // namespace
}  // namespace rill
