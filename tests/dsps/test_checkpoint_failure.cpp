// Checkpoint-protocol failure paths: a dead task makes the PREPARE wave
// time out, the coordinator retries the wave `checkpoint_wave_retries`
// times, then rolls back, and the strategies surface the failure instead
// of losing data silently.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::dsps {
namespace {

struct FailureFixture : ::testing::Test {
  // Short ack timeout so failing waves resolve quickly in the test.
  dsps::PlatformConfig cfg = [] {
    dsps::PlatformConfig c;
    c.ack_timeout = time::sec(5);
    return c;
  }();
  testutil::Harness h{testutil::mini_chain(), cfg};

  void kill_first_worker() { testutil::kill_worker(h.p(), 0); }
};

TEST_F(FailureFixture, PrepareWaveFailsWithDeadTask) {
  h.p().start();
  h.run_for(time::sec(5));
  h.p().pause_sources();
  kill_first_worker();

  bool done = false, ok = true;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave, [&](bool s) {
    done = true;
    ok = s;
  });
  h.run_for(time::sec(20));
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(h.p().coordinator().last_committed(), 0u);
  EXPECT_GE(h.p().coordinator().stats().waves_rolled_back, 1u);
  // The wave was retried before the coordinator gave up.
  EXPECT_EQ(h.p().coordinator().stats().wave_retries, 2u);
}

TEST_F(FailureFixture, CaptureRollbackResumesSurvivors) {
  h.p().start();
  h.run_for(time::sec(5));
  h.p().pause_sources();
  kill_first_worker();

  bool done = false, ok = true;
  h.p().coordinator().run_checkpoint(CheckpointMode::Capture, [&](bool s) {
    done = true;
    ok = s;
  });
  h.run_for(time::sec(20));
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  // The surviving worker got the broadcast ROLLBACK: capture flag off,
  // pending list re-queued for normal processing.
  const Executor& survivor = h.p().executor(h.p().worker_instances()[1]);
  EXPECT_FALSE(survivor.capturing());
  EXPECT_TRUE(survivor.pending_capture().empty());
}

TEST_F(FailureFixture, DcrMigrationReportsFailureAndUnpauses) {
  auto strategy = core::make_strategy(core::StrategyKind::DCR);
  strategy->configure(h.p());
  h.p().start();
  h.run_for(time::sec(5));
  kill_first_worker();

  const auto target = h.p().cluster().provision_n(cluster::VmType::D3, 1, "d3");
  MigrationPlan plan;
  plan.target_vms = target;
  plan.scheduler = &h.scheduler;
  bool done = false, ok = true;
  strategy->migrate(h.p(), std::move(plan), [&](bool s) {
    done = true;
    ok = s;
  });
  h.run_for(time::sec(30));
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);  // drain cannot complete with a dead task
  EXPECT_TRUE(strategy->phases().aborted);
  // The sources resumed — a failed migration must not wedge the dataflow.
  EXPECT_FALSE(h.p().spout(h.p().topology().sources()[0]).paused());
}

TEST_F(FailureFixture, NextCheckpointSucceedsAfterRecovery) {
  h.p().start();
  h.run_for(time::sec(5));
  h.p().pause_sources();

  Executor& ex = h.p().executor(h.p().worker_instances()[0]);
  const SlotId slot = ex.slot();
  h.p().cluster().vacate(slot);
  ex.kill();

  bool first_ok = true;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool s) { first_ok = s; });
  h.run_for(time::sec(20));
  ASSERT_FALSE(first_ok);

  // Worker comes back (fresh state); the next wave commits.
  ex.respawn(slot);
  h.p().cluster().occupy(slot, ex.id());
  ex.set_ready(false);

  bool second_ok = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool s) { second_ok = s; });
  h.run_for(time::sec(10));
  EXPECT_TRUE(second_ok);
  EXPECT_GE(h.p().coordinator().last_committed(), 1u);
}

}  // namespace
}  // namespace rill::dsps
