// Regression for the stop-the-world re-pin bug: when a restore fails for
// only a subset of instances (a shard-scoped store outage), the abort must
// re-pin exactly that subset — instances that already restored on the
// target placement keep running there.  The old behaviour re-killed every
// instance, throwing away healthy restored state and re-fetching it through
// the same dead shard.
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

/// 4-shard CCR scale-in with a 60 s INIT deadline (mirrors the
/// shard-outage chaos configs): long enough that every worker of the
/// calibrated start-up model comes up inside it, so the restore phase, not
/// worker startup, is what the fault hits.
workloads::ExperimentConfig repin_cfg() {
  workloads::ExperimentConfig cfg;
  cfg.dag = DagKind::Linear;
  cfg.strategy = StrategyKind::CCR;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = 42;
  cfg.platform.kv_shards = kShards;
  cfg.platform.ack_timeout = time::sec(5);
  cfg.platform.init_deadline = time::sec(60);
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  cfg.controller.max_attempts = 1;
  cfg.controller.fallback_to_dsm = false;
  return cfg;
}

// One shard dark across the whole INIT window: only the instances whose
// blobs live on the victim miss the deadline.  The abort's re-pin rebalance
// must cover exactly that failed subset — a proper, non-empty subset of the
// placement — while the healthy instances stay put on the target VMs.
TEST(ScopedRepin, RepinCoversOnlyTheFailedSubset) {
  bool found_partial = false;
  for (int victim = 0; victim < kShards && !found_partial; ++victim) {
    workloads::ExperimentConfig cfg = repin_cfg();
    // COMMIT lands by ~63 s; the outage opens right after and outlives the
    // 60 s INIT deadline, so restores against the victim shard must fail.
    cfg.chaos.kv_outage(time::sec(64), time::sec(80), victim);
    const auto r = workloads::run_experiment(cfg);
    if (r.chaos.kv_outage_hits == 0) continue;  // victim owns no live blob
    if (r.checkpoint.init_sessions_failed == 0) continue;
    found_partial = true;

    EXPECT_FALSE(r.migration_succeeded);
    EXPECT_EQ(r.recovery.aborted_attempts, 1);
    ASSERT_TRUE(r.phases.aborted);
    ASSERT_TRUE(r.phases.repinned_at.has_value());

    // The last rebalance is the re-pin: scoped to the instances that never
    // came up, strictly fewer than the whole placement.  Before the fix
    // this was always == worker_instances.
    ASSERT_TRUE(r.rebalance.has_value());
    EXPECT_GT(r.rebalance->instances_migrated, 0);
    EXPECT_LT(r.rebalance->instances_migrated, r.worker_instances);

    // The blast radius stayed one shard wide and nothing was lost on the
    // mixed (target + re-pinned) placement once the outage lifted.
    for (int s = 0; s < kShards; ++s) {
      if (s == victim) continue;
      EXPECT_EQ(r.store_shards[static_cast<std::size_t>(s)].failed_requests,
                0u)
          << "shard " << s;
    }
    EXPECT_EQ(r.report.lost_events, 0u);
    EXPECT_EQ(r.report.replayed_messages, 0u);
    EXPECT_EQ(r.lost_at_kill, 0u);
    EXPECT_EQ(r.accounting_violations, 0u);
    expect_exactly_once(r, kSettle);
  }
  ASSERT_TRUE(found_partial)
      << "no victim shard produced a partial INIT failure";
}

// Control: when the whole store is dark every instance misses the deadline,
// and the scoped re-pin must degenerate to the full placement — scoping
// never under-repins.
TEST(ScopedRepin, FullOutageStillRepinsEverything) {
  workloads::ExperimentConfig cfg = repin_cfg();
  cfg.chaos.kv_outage(time::sec(64), time::sec(80), -1);
  const auto r = workloads::run_experiment(cfg);

  ASSERT_GT(r.chaos.kv_outage_hits, 0u);
  EXPECT_FALSE(r.migration_succeeded);
  ASSERT_TRUE(r.phases.repinned_at.has_value());
  ASSERT_TRUE(r.rebalance.has_value());
  EXPECT_EQ(r.rebalance->instances_migrated, r.worker_instances);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.accounting_violations, 0u);
  expect_exactly_once(r, kSettle);
}

}  // namespace
}  // namespace rill
