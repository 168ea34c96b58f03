#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::core {
namespace {

using testutil::quick_experiment;
using workloads::DagKind;
using workloads::ScaleKind;

TEST(Ccr, NoLossNoReplay) {
  const auto r = quick_experiment(DagKind::Grid, StrategyKind::CCR,
                                  ScaleKind::In);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_FALSE(r.report.recovery_sec.has_value());
}

TEST(Ccr, NoEventArrivesAfterItsCommit) {
  // The COMMIT sweep is the last event per channel; nothing may be
  // captured after a task's pending list was persisted.
  for (DagKind dag : {DagKind::Linear, DagKind::Diamond, DagKind::Grid}) {
    const auto r = quick_experiment(dag, StrategyKind::CCR, ScaleKind::In);
    EXPECT_EQ(r.post_commit_arrivals, 0u)
        << "CCR invariant violated on " << workloads::to_string(dag);
  }
}

TEST(Ccr, CaptureIsFasterThanDrain) {
  const auto ccr = quick_experiment(DagKind::Grid, StrategyKind::CCR,
                                    ScaleKind::In);
  const auto dcr = quick_experiment(DagKind::Grid, StrategyKind::DCR,
                                    ScaleKind::In);
  EXPECT_LT(ccr.report.drain_sec, dcr.report.drain_sec);
}

TEST(Ccr, RestoreBeatsOtherStrategies) {
  const auto r = quick_experiment(DagKind::Grid, StrategyKind::CCR,
                                  ScaleKind::In);
  ASSERT_TRUE(r.report.restore_sec.has_value());
  // The sink resumes from its captured events right after the rebalance —
  // well under the ~30 s worker start-up horizon.
  EXPECT_LT(*r.report.restore_sec, 15.0);
}

TEST(Ccr, CapturedEventsResumeCatchup) {
  const auto r = quick_experiment(DagKind::Diamond, StrategyKind::CCR,
                                  ScaleKind::In);
  // Old (captured) events finish after the workers restore: catchup is
  // nonzero but bounded by the worker start-up plus pipeline time.
  ASSERT_TRUE(r.report.catchup_sec.has_value());
  EXPECT_GT(*r.report.catchup_sec, 5.0);
  EXPECT_LT(*r.report.catchup_sec, 90.0);
}

TEST(Ccr, ExactlyOnceDeliveryPerSinkPath) {
  const auto r = quick_experiment(DagKind::Traffic, StrategyKind::CCR,
                                  ScaleKind::In);
  const std::size_t checked = testutil::expect_exactly_once(
      r, static_cast<SimTime>(time::sec(420) - time::sec(60)));
  EXPECT_GT(checked, 100u);
}

TEST(Ccr, OldEventsResumeAfterRebalance) {
  // Unlike DCR (which drains all old events before the rebalance), CCR's
  // captured old events finish only after the migration — the clean
  // old/new boundary the paper attributes to DCR does not exist here.
  const auto r = quick_experiment(DagKind::Grid, StrategyKind::CCR,
                                  ScaleKind::In);
  ASSERT_TRUE(r.rebalance.has_value());
  ASSERT_TRUE(r.collector.last_old_arrival().has_value());
  EXPECT_GT(*r.collector.last_old_arrival(),
            r.rebalance->command_completed_at);
}

TEST(Ccr, WorksOnScaleOutToo) {
  const auto r = quick_experiment(DagKind::Star, StrategyKind::CCR,
                                  ScaleKind::Out);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  ASSERT_TRUE(r.report.restore_sec.has_value());
  EXPECT_LT(*r.report.restore_sec, 15.0);
}

}  // namespace
}  // namespace rill::core
