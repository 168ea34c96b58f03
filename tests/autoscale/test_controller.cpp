// Policy-table pins for autoscale::decide() — pure function, no platform.
#include <gtest/gtest.h>

#include "autoscale/controller.hpp"

namespace rill::autoscale {
namespace {

AutoscaleConfig config() {
  AutoscaleConfig cfg;
  cfg.enabled = true;
  return cfg;
}

// The streaks and watermarks below are the calibrated thresholds.
static_assert(AutoscaleConfig::scale_out_windows == 2);
static_assert(AutoscaleConfig::scale_in_windows == 9);
static_assert(AutoscaleConfig::queue_high == 40);
static_assert(AutoscaleConfig::queue_low == 4);

Signals steady() {
  Signals s;
  s.ok_streak = 3;  // healthy but below the scale-in streak
  s.tier = PoolTier::Default;
  return s;
}

TEST(Decide, SteadyStateDoesNothing) {
  const Decision d = decide(steady(), config());
  EXPECT_EQ(d.action, Action::None);
  EXPECT_EQ(d.desired, Action::None);
  EXPECT_EQ(d.reason, "steady");
}

TEST(Decide, SloBurnWithKeyedStateScalesOutViaFgm) {
  Signals s = steady();
  s.violated_streak = 2;
  s.ok_streak = 0;
  s.keyed = true;
  const Decision d = decide(s, config());
  EXPECT_EQ(d.action, Action::ScaleOut);
  EXPECT_EQ(d.target, PoolTier::Wide);
  EXPECT_EQ(d.strategy, core::StrategyKind::FGM);
  EXPECT_EQ(d.reason, "slo_burning");
}

TEST(Decide, SloBurnWithoutKeyedStateScalesOutViaCcr) {
  Signals s = steady();
  s.violated_streak = 2;
  s.ok_streak = 0;
  s.keyed = false;
  const Decision d = decide(s, config());
  EXPECT_EQ(d.action, Action::ScaleOut);
  EXPECT_EQ(d.strategy, core::StrategyKind::CCR);
}

TEST(Decide, OneViolatedWindowIsNotEnough) {
  Signals s = steady();
  s.violated_streak = 1;
  s.ok_streak = 0;
  EXPECT_EQ(decide(s, config()).action, Action::None);
}

TEST(Decide, QueueSpikeScalesOutBeforeTheSloBurns) {
  Signals s = steady();
  s.queue_depth_max = 40;
  const Decision d = decide(s, config());
  EXPECT_EQ(d.action, Action::ScaleOut);
  EXPECT_EQ(d.reason, "queue_high");
}

TEST(Decide, AlreadyWideNeverScalesOutAgain) {
  Signals s = steady();
  s.violated_streak = 5;
  s.ok_streak = 0;
  s.tier = PoolTier::Wide;
  EXPECT_EQ(decide(s, config()).desired, Action::None);
}

TEST(Decide, QuietStreakScalesInOneTierAtATime) {
  Signals s;
  s.ok_streak = 9;
  s.tier = PoolTier::Wide;
  const Decision d = decide(s, config());
  EXPECT_EQ(d.action, Action::ScaleIn);
  EXPECT_EQ(d.target, PoolTier::Default);  // not straight to Packed
  // Unkeyed scale-in falls back to CCR (capture-assisted, shortest pause
  // of the checkpointed strategies).
  EXPECT_EQ(d.strategy, core::StrategyKind::CCR);

  s.tier = PoolTier::Default;
  EXPECT_EQ(decide(s, config()).target, PoolTier::Packed);
  s.tier = PoolTier::Packed;
  EXPECT_EQ(decide(s, config()).desired, Action::None);
}

TEST(Decide, KeyedScaleInRefusesToStopTheWorld) {
  // The bugfix this PR is named for: "load is low, a drain is affordable"
  // still silences the sink for the whole restore.  Keyed scale-in must go
  // fluid (FGM), never drain-based.
  Signals s;
  s.ok_streak = 9;
  s.tier = PoolTier::Wide;
  s.keyed = true;
  const Decision d = decide(s, config());
  EXPECT_EQ(d.action, Action::ScaleIn);
  EXPECT_EQ(d.strategy, core::StrategyKind::FGM);
}

TEST(Decide, ScaleInRequiresDrainedQueuesAndEmptyBacklog) {
  Signals s;
  s.ok_streak = 9;
  s.tier = PoolTier::Default;
  s.queue_depth_max = 5;  // above queue_low
  EXPECT_EQ(decide(s, config()).action, Action::None);
  s.queue_depth_max = 0;
  s.backlog = 1;
  EXPECT_EQ(decide(s, config()).action, Action::None);
  s.backlog = 0;
  EXPECT_EQ(decide(s, config()).action, Action::ScaleIn);
}

TEST(Decide, BusyMigrationSuppressesButRecordsTheIntent) {
  Signals s = steady();
  s.violated_streak = 2;
  s.ok_streak = 0;
  s.migrating = true;
  const Decision d = decide(s, config());
  EXPECT_EQ(d.action, Action::None);
  EXPECT_EQ(d.desired, Action::ScaleOut);
  EXPECT_EQ(d.reason, "busy");
}

TEST(Decide, CooldownSuppressesAfterTheBusyGuard) {
  Signals s = steady();
  s.violated_streak = 2;
  s.ok_streak = 0;
  s.cooling_down = true;
  const Decision d = decide(s, config());
  EXPECT_EQ(d.action, Action::None);
  EXPECT_EQ(d.desired, Action::ScaleOut);
  EXPECT_EQ(d.reason, "cooldown");

  // Busy wins over cooldown when both hold (it is evaluated first).
  s.migrating = true;
  EXPECT_EQ(decide(s, config()).reason, "busy");
}

TEST(Decide, ForcedStrategyOverridesTheTable) {
  AutoscaleConfig cfg = config();
  cfg.force_strategy = core::StrategyKind::DSM;
  Signals s = steady();
  s.violated_streak = 2;
  s.ok_streak = 0;
  s.keyed = true;
  EXPECT_EQ(decide(s, cfg).strategy, core::StrategyKind::DSM);
}

}  // namespace
}  // namespace rill::autoscale
