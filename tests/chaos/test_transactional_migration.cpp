// Transactional migration under injected faults (DESIGN.md §7): a failed
// DCR/CCR attempt must abort via ROLLBACK, resume the *old* placement with
// zero event loss and zero replay, and after max_attempts consecutive
// failures the controller degrades to DSM.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill {
namespace {

using core::StrategyKind;
using testutil::expect_exactly_once;
using workloads::DagKind;
using workloads::ScaleKind;

/// Short-timeout Linear scale-in config used by every scenario here: the
/// 5 s ack timeout bounds each checkpoint wave, the 60 s INIT deadline
/// bounds the restore phase (it must clear the 28–34 s worker startup, or
/// clean runs would abort spuriously).
workloads::ExperimentConfig chaos_cfg(StrategyKind strategy) {
  workloads::ExperimentConfig cfg;
  cfg.dag = DagKind::Linear;
  cfg.strategy = strategy;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = 42;
  cfg.platform.ack_timeout = time::sec(5);
  cfg.platform.init_deadline = time::sec(60);
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  return cfg;
}

/// Roots born before this have settled by the end of the 420 s run.
constexpr auto kSettle =
    static_cast<SimTime>(time::sec(420) - time::sec(120));

class CommitOutage : public ::testing::TestWithParam<StrategyKind> {};

// The acceptance scenario: the KV store goes dark over the COMMIT wave.
// The checkpoint exhausts its wave retries, the coordinator broadcasts
// ROLLBACK, and the strategy aborts *before* anything moved — the old
// placement keeps running with zero loss and zero replay.
TEST_P(CommitOutage, AbortsViaRollbackWithZeroLoss) {
  workloads::ExperimentConfig cfg = chaos_cfg(GetParam());
  cfg.controller.max_attempts = 1;
  cfg.controller.fallback_to_dsm = false;
  cfg.chaos.kv_outage(time::sec(60), time::sec(60));

  const auto r = workloads::run_experiment(cfg);

  EXPECT_FALSE(r.migration_succeeded);
  EXPECT_EQ(r.recovery.attempts, 1);
  EXPECT_EQ(r.recovery.aborted_attempts, 1);
  EXPECT_FALSE(r.recovery.fell_back);
  EXPECT_TRUE(r.phases.aborted);
  EXPECT_TRUE(r.report.abort_latency_sec.has_value());

  // The outage was actually hit and the protocol reacted to it.
  EXPECT_GT(r.chaos.kv_outage_hits, 0u);
  EXPECT_GT(r.store.failed_requests, 0u);
  EXPECT_GT(r.report.kv_retries, 0u);
  EXPECT_GE(r.report.wave_retries, 1u);
  EXPECT_GE(r.checkpoint.waves_rolled_back, 1u);
  EXPECT_GE(r.checkpoint.rollbacks_broadcast, 1u);

  // Nothing moved: the rebalancer was never invoked.
  EXPECT_FALSE(r.rebalance.has_value());

  // Zero loss, zero replay, exactly-once on the surviving placement.
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_EQ(r.post_commit_arrivals, 0u);
  expect_exactly_once(r, kSettle);
}

INSTANTIATE_TEST_SUITE_P(DcrAndCcr, CommitOutage,
                         ::testing::Values(StrategyKind::DCR,
                                           StrategyKind::CCR),
                         [](const ::testing::TestParamInfo<StrategyKind>& i) {
                           return std::string(core::to_string(i.param));
                         });

class RestoreOutage : public ::testing::TestWithParam<StrategyKind> {};

// The outage starts *after* the checkpoint committed, while the new
// workers are restoring state.  The INIT deadline fires, the strategy
// broadcasts ROLLBACK, re-pins the old placement (the old VMs were not
// released yet — release is deferred until restore commits) and recovers
// on it once the outage lifts.  Still zero loss.
TEST_P(RestoreOutage, RepinsOldPlacementWithZeroLoss) {
  workloads::ExperimentConfig cfg = chaos_cfg(GetParam());
  cfg.controller.max_attempts = 1;
  cfg.controller.fallback_to_dsm = false;
  // Commit finishes within a few seconds of the 60 s request; 68 s is
  // safely after COMMIT and well before the new workers finish their
  // ~30 s startup, so the outage covers the whole restore phase.
  cfg.chaos.kv_outage(time::sec(68), time::sec(132));

  const auto r = workloads::run_experiment(cfg);

  EXPECT_FALSE(r.migration_succeeded);
  EXPECT_EQ(r.recovery.aborted_attempts, 1);
  EXPECT_TRUE(r.phases.aborted);

  // This time the rebalance *did* happen, and the abort re-pinned the old
  // placement with a second rebalance.
  ASSERT_TRUE(r.rebalance.has_value());
  EXPECT_TRUE(r.phases.repinned_at.has_value());
  EXPECT_GE(r.checkpoint.init_sessions_failed, 1u);

  // Zero-loss recovery on the old placement: the committed checkpoint is
  // re-read once the store returns, nothing is replayed from source.
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_EQ(r.post_commit_arrivals, 0u);
  expect_exactly_once(r, kSettle);
}

INSTANTIATE_TEST_SUITE_P(DcrAndCcr, RestoreOutage,
                         ::testing::Values(StrategyKind::DCR,
                                           StrategyKind::CCR),
                         [](const ::testing::TestParamInfo<StrategyKind>& i) {
                           return std::string(core::to_string(i.param));
                         });

// Degradation: three consecutive checkpointed attempts fail against a long
// outage, so the controller falls back to DSM, which needs no store to
// move — it completes mid-outage with at-least-once semantics.
TEST(DsmFallback, ThirdConsecutiveFailureDegradesToDsm) {
  workloads::ExperimentConfig cfg = chaos_cfg(StrategyKind::DCR);
  cfg.controller.max_attempts = 3;
  cfg.controller.fallback_to_dsm = true;
  cfg.chaos.kv_outage(time::sec(60), time::sec(150));

  const auto r = workloads::run_experiment(cfg);

  EXPECT_TRUE(r.recovery.fell_back);
  EXPECT_TRUE(r.report.fell_back_to_dsm);
  EXPECT_EQ(r.recovery.aborted_attempts, 3);
  EXPECT_EQ(r.recovery.attempts, 4);  // 3 checkpointed + 1 DSM
  ASSERT_TRUE(r.recovery.fallback_at.has_value());
  EXPECT_GT(*r.recovery.fallback_at, static_cast<SimTime>(time::sec(60)));

  // The DSM attempt itself succeeds and the dataflow comes back.
  EXPECT_TRUE(r.migration_succeeded);
  ASSERT_TRUE(r.rebalance.has_value());
  EXPECT_GT(r.collector.sink_arrivals(), 0u);
}

// Control: with no faults the controller is invisible — one attempt, no
// aborts, no fallback, and the usual exactly-once result.
TEST(DsmFallback, NoFaultsMeansOneCleanAttempt) {
  workloads::ExperimentConfig cfg = chaos_cfg(StrategyKind::CCR);
  const auto r = workloads::run_experiment(cfg);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.recovery.attempts, 1);
  EXPECT_EQ(r.recovery.aborted_attempts, 0);
  EXPECT_FALSE(r.recovery.fell_back);
  EXPECT_EQ(r.chaos.total_hits(), 0u);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  expect_exactly_once(
      r, static_cast<SimTime>(time::sec(420) - time::sec(90)));
}

}  // namespace
}  // namespace rill
