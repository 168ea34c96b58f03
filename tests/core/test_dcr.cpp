#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::core {
namespace {

using testutil::quick_experiment;
using workloads::DagKind;
using workloads::ScaleKind;

TEST(Dcr, NoLossNoReplay) {
  const auto r = quick_experiment(DagKind::Linear, StrategyKind::DCR,
                                  ScaleKind::In);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);  // queues were fully drained before kill
  EXPECT_FALSE(r.report.recovery_sec.has_value());
}

TEST(Dcr, DrainPrecedesRebalance) {
  const auto r = quick_experiment(DagKind::Grid, StrategyKind::DCR,
                                  ScaleKind::In);
  EXPECT_GT(r.report.drain_sec, 0.1);
  EXPECT_LT(r.report.drain_sec, 5.0);
  ASSERT_TRUE(r.phases.checkpoint_done.has_value());
  ASSERT_TRUE(r.phases.rebalance_invoked.has_value());
  EXPECT_LE(*r.phases.checkpoint_done, *r.phases.rebalance_invoked);
}

TEST(Dcr, OldAndNewEventsDoNotInterleave) {
  // Every pre-request event reaches the sink before any post-request
  // event: the clean boundary DCR guarantees (paper §3.1).
  const auto r = quick_experiment(DagKind::Diamond, StrategyKind::DCR,
                                  ScaleKind::In);
  const SimTime request = r.phases.request_at;
  SimTime last_old = 0;
  SimTime first_new = kSimTimeMax;
  for (const auto& s : r.collector.latency().samples()) {
    const SimTime born = s.arrival - static_cast<SimTime>(s.latency);
    if (born < request) {
      last_old = std::max(last_old, s.arrival);
    } else {
      first_new = std::min(first_new, s.arrival);
    }
  }
  EXPECT_LT(last_old, first_new);
}

TEST(Dcr, SourcesPausedDuringMigrationThenResume) {
  const auto r = quick_experiment(DagKind::Star, StrategyKind::DCR,
                                  ScaleKind::In);
  ASSERT_TRUE(r.phases.sources_unpaused.has_value());
  const auto request_sec =
      static_cast<std::size_t>(r.phases.request_at / 1'000'000ull);
  const auto unpause_sec =
      static_cast<std::size_t>(*r.phases.sources_unpaused / 1'000'000ull);
  // Output is silent between the drain and the unpause.
  const auto& out = r.collector.output();
  for (std::size_t s = request_sec + 5; s + 2 < unpause_sec; ++s) {
    EXPECT_EQ(out.count_at(s), 0u) << "unexpected output at second " << s;
  }
  // And flows again afterwards.
  EXPECT_GT(out.rate_over(unpause_sec + 2, 20), 10.0);
}

TEST(Dcr, JitCheckpointOnlyNoPeriodicWaves) {
  const auto r = quick_experiment(DagKind::Linear, StrategyKind::DCR,
                                  ScaleKind::In);
  // Exactly one committed wave: the JIT checkpoint at migration time.
  EXPECT_TRUE(r.migration_succeeded);
  ASSERT_TRUE(r.phases.checkpoint_started.has_value());
  EXPECT_GE(*r.phases.checkpoint_started, r.phases.request_at);
}

TEST(Dcr, RestoreSlowerThanCcrFasterThanDsm) {
  const auto dsm = quick_experiment(DagKind::Traffic, StrategyKind::DSM,
                                    ScaleKind::In);
  const auto dcr = quick_experiment(DagKind::Traffic, StrategyKind::DCR,
                                    ScaleKind::In);
  const auto ccr = quick_experiment(DagKind::Traffic, StrategyKind::CCR,
                                    ScaleKind::In);
  ASSERT_TRUE(dsm.report.restore_sec && dcr.report.restore_sec &&
              ccr.report.restore_sec);
  EXPECT_LT(*ccr.report.restore_sec, *dcr.report.restore_sec);
  EXPECT_LT(*dcr.report.restore_sec, *dsm.report.restore_sec);
}

TEST(Dcr, StatePreservedExactlyAcrossMigration) {
  // Sum of per-instance processed counters must keep growing without a
  // reset: after migration, each worker's counter >= its pre-drain value.
  const auto r = quick_experiment(DagKind::Linear, StrategyKind::DCR,
                                  ScaleKind::In);
  EXPECT_TRUE(r.migration_succeeded);
  // All roots born well before the end arrive exactly paths-per-root times.
  testutil::expect_exactly_once(
      r, static_cast<SimTime>(time::sec(420) - time::sec(60)));
}

}  // namespace
}  // namespace rill::core
