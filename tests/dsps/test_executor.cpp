// Direct executor lifecycle tests: Dead/Starting/Running transitions,
// transport buffering, capture mechanics, pend-until-init, epoch safety.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::dsps {
namespace {

struct ExecutorFixture : ::testing::Test {
  testutil::Harness h{testutil::mini_chain()};

  Executor& first_worker() {
    return h.p().executor(h.p().worker_instances()[0]);
  }
  Executor& second_worker() {
    return h.p().executor(h.p().worker_instances()[1]);
  }

  Event user_event(std::uint64_t n) {
    Event ev;
    ev.id = h.p().fresh_event_id();
    ev.root = ev.id;
    ev.origin = ev.id;
    ev.born_at = h.engine.now();
    ev.emitted_at = h.engine.now();
    ev.key = n;
    return ev;
  }
};

TEST_F(ExecutorFixture, DeployedWorkerIsRunning) {
  EXPECT_EQ(first_worker().life(), LifeState::Running);
  EXPECT_TRUE(first_worker().ready());
  EXPECT_FALSE(first_worker().awaiting_init());
  EXPECT_EQ(first_worker().logic_version(), 1);
}

TEST_F(ExecutorFixture, ProcessesEnqueuedEventAfterServiceTime) {
  Executor& ex = first_worker();
  ex.enqueue(user_event(1));
  EXPECT_EQ(ex.stats().processed, 0u);
  h.run_for(time::ms(99));
  EXPECT_EQ(ex.stats().processed, 0u);  // still in service
  h.run_for(time::ms(5));
  EXPECT_EQ(ex.stats().processed, 1u);
  EXPECT_EQ(ex.state().get("processed"), 1);
}

TEST_F(ExecutorFixture, QueueIsFifoSingleThreaded) {
  Executor& ex = first_worker();
  for (int i = 0; i < 5; ++i) ex.enqueue(user_event(static_cast<std::uint64_t>(i)));
  EXPECT_EQ(ex.queue_depth(), 4u);  // one in service
  h.run_for(time::ms(250));
  EXPECT_EQ(ex.stats().processed, 2u);  // 100 ms each, strictly serial
  h.run_for(time::ms(300));
  EXPECT_EQ(ex.stats().processed, 5u);
}

TEST_F(ExecutorFixture, DeadWorkerDropsDeliveries) {
  Executor& ex = first_worker();
  h.p().cluster().vacate(ex.slot());
  ex.kill();
  ex.enqueue(user_event(1));
  EXPECT_EQ(ex.stats().lost_enqueue, 1u);
  EXPECT_EQ(h.collector.lost_user_events(), 1u);
  h.run_for(time::sec(1));
  EXPECT_EQ(ex.stats().processed, 0u);
}

TEST_F(ExecutorFixture, StartingWorkerBuffersUserDropsControl) {
  Executor& ex = first_worker();
  const SlotId slot = ex.slot();
  h.p().cluster().vacate(slot);
  ex.kill();
  ex.respawn(slot);
  h.p().cluster().occupy(slot, ex.id());
  EXPECT_EQ(ex.life(), LifeState::Starting);

  ex.enqueue(user_event(1));  // buffered in transport
  Event init;
  init.id = h.p().fresh_event_id();
  init.root = init.id;
  init.control = ControlKind::Init;
  ex.enqueue(init);  // dropped: task not active yet
  EXPECT_EQ(ex.stats().lost_control_enqueue, 1u);
  EXPECT_EQ(ex.stats().lost_enqueue, 0u);  // user delivery was buffered

  ex.set_ready(false);
  h.run_for(time::ms(200));
  EXPECT_EQ(ex.stats().processed, 1u);  // buffered event flushed + processed
}

TEST_F(ExecutorFixture, KillMidServiceLosesTheEvent) {
  Executor& ex = first_worker();
  ex.enqueue(user_event(1));
  h.run_for(time::ms(50));  // half-way through service
  h.p().cluster().vacate(ex.slot());
  ex.kill();
  h.run_for(time::ms(200));
  EXPECT_EQ(ex.stats().processed, 0u);
  EXPECT_EQ(h.collector.lost_user_events(), 1u);
}

TEST_F(ExecutorFixture, AwaitingInitPendsUserEvents) {
  Executor& ex = first_worker();
  const SlotId slot = ex.slot();
  h.p().cluster().vacate(slot);
  ex.kill();
  ex.respawn(slot);
  h.p().cluster().occupy(slot, ex.id());
  ex.set_ready(/*awaiting_init=*/true);

  ex.enqueue(user_event(1));
  ex.enqueue(user_event(2));
  h.run_for(time::sec(1));
  EXPECT_EQ(ex.stats().processed, 0u);  // pended, not processed
  EXPECT_TRUE(ex.awaiting_init());
}

TEST_F(ExecutorFixture, CaptureFlagSnapshotsInsteadOfProcessing) {
  Executor& ex = first_worker();

  Event prepare;
  prepare.id = h.p().fresh_event_id();
  prepare.root = prepare.id;
  prepare.control = ControlKind::Prepare;
  prepare.wiring = CheckpointMode::Capture;
  prepare.checkpoint_id = 1;
  ex.enqueue(prepare);
  h.run_for(time::ms(10));
  EXPECT_TRUE(ex.capturing());

  ex.enqueue(user_event(1));
  ex.enqueue(user_event(2));
  h.run_for(time::sec(1));
  EXPECT_EQ(ex.stats().processed, 0u);
  EXPECT_EQ(ex.stats().captured, 2u);
  ASSERT_EQ(ex.pending_capture().size(), 2u);
  EXPECT_EQ(ex.pending_capture()[0].key, 1u);
  EXPECT_EQ(ex.pending_capture()[1].key, 2u);
}

TEST_F(ExecutorFixture, CurrentEventFinishesBeforeCapture) {
  Executor& ex = first_worker();
  ex.enqueue(user_event(7));  // enters service immediately
  h.run_for(time::ms(10));

  Event prepare;
  prepare.id = h.p().fresh_event_id();
  prepare.root = prepare.id;
  prepare.control = ControlKind::Prepare;
  prepare.wiring = CheckpointMode::Capture;
  prepare.checkpoint_id = 1;
  ex.enqueue(prepare);
  h.run_for(time::ms(200));
  // The in-service event completed normally (CCR: "processing only the
  // one possible event that a task is currently executing").
  EXPECT_EQ(ex.stats().processed, 1u);
  EXPECT_TRUE(ex.capturing());
}

TEST_F(ExecutorFixture, KillClearsStateAndCaptures) {
  Executor& ex = first_worker();
  ex.enqueue(user_event(1));
  h.run_for(time::ms(200));
  EXPECT_GT(ex.state().get("processed"), 0);

  h.p().cluster().vacate(ex.slot());
  ex.kill();
  EXPECT_EQ(ex.state().get("processed"), 0);
  EXPECT_TRUE(ex.pending_capture().empty());
  EXPECT_FALSE(ex.capturing());
}

TEST_F(ExecutorFixture, RollbackRequeuesCapturedEvents) {
  Executor& ex = first_worker();
  Event prepare;
  prepare.id = h.p().fresh_event_id();
  prepare.root = prepare.id;
  prepare.control = ControlKind::Prepare;
  prepare.wiring = CheckpointMode::Capture;
  prepare.checkpoint_id = 1;
  ex.enqueue(prepare);
  h.run_for(time::ms(10));
  ex.enqueue(user_event(1));
  h.run_for(time::ms(10));
  ASSERT_EQ(ex.pending_capture().size(), 1u);

  Event rollback;
  rollback.id = h.p().fresh_event_id();
  rollback.root = rollback.id;
  rollback.control = ControlKind::Rollback;
  rollback.checkpoint_id = 1;
  ex.enqueue(rollback);
  h.run_for(time::ms(300));
  EXPECT_FALSE(ex.capturing());
  EXPECT_TRUE(ex.pending_capture().empty());
  EXPECT_EQ(ex.stats().processed, 1u);  // captured event resumed locally
}

}  // namespace
}  // namespace rill::dsps
