#include <gtest/gtest.h>

#include <vector>

#include "test_util.hpp"

namespace rill::dsps {
namespace {

using testutil::Harness;

TEST(Checkpoint, WaveModePersistsAllStatefulTasks) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));

  bool done = false, ok = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave, [&](bool success) {
    done = true;
    ok = success;
  });
  h.run_for(time::sec(5));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(h.p().coordinator().last_committed(), 1u);
  EXPECT_EQ(h.p().coordinator().last_committed_wiring(), CheckpointMode::Wave);

  // Both stateful workers persisted a blob under wave id 1.
  for (const InstanceRef& ref : h.p().worker_instances()) {
    const auto raw =
        h.p().store().peek(CheckpointBlob::key(1, ref.task, ref.replica));
    ASSERT_TRUE(raw.has_value());
    const CheckpointBlob blob = CheckpointBlob::deserialize(*raw);
    EXPECT_GT(blob.state.get("processed"), 0);
    EXPECT_TRUE(blob.pending.empty());  // wave mode captures no events
  }
}

TEST(Checkpoint, PrepareIsRearguardBehindInFlightEvents) {
  // The snapshot taken at PREPARE must cover every event emitted before
  // the wave started: pause the source, run a wave, then compare the
  // persisted counter with the executor's live counter.
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();

  bool done = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool) { done = true; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(done);

  for (const InstanceRef& ref : h.p().worker_instances()) {
    const Executor& ex = h.p().executor(ref);
    const auto raw =
        h.p().store().peek(CheckpointBlob::key(1, ref.task, ref.replica));
    ASSERT_TRUE(raw.has_value());
    const CheckpointBlob blob = CheckpointBlob::deserialize(*raw);
    // Dataflow was drained: snapshot equals live state, queue is empty.
    EXPECT_EQ(blob.state, ex.state());
    EXPECT_EQ(ex.queue_depth(), 0u);
  }
}

TEST(Checkpoint, CaptureModeSnapshotsInFlightEvents) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();

  bool done = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Capture,
                                     [&](bool) { done = true; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(h.p().coordinator().last_committed_wiring(),
            CheckpointMode::Capture);

  // Every instance persisted a blob; total captured events may be zero at
  // low rates, but the capture flag must have engaged everywhere.
  std::size_t total_pending = 0;
  for (const InstanceRef& ref : h.p().worker_and_sink_instances()) {
    const auto raw =
        h.p().store().peek(CheckpointBlob::key(1, ref.task, ref.replica));
    if (raw.has_value()) {
      total_pending += CheckpointBlob::deserialize(*raw).pending.size();
    }
    EXPECT_TRUE(h.p().executor(ref).capturing());
  }
  // No invariant violation: nothing arrived after its COMMIT.
  for (const InstanceRef& ref : h.p().worker_and_sink_instances()) {
    EXPECT_EQ(h.p().executor(ref).stats().post_commit_arrivals, 0u);
  }
  (void)total_pending;
}

TEST(Checkpoint, BarrierAlignmentInMultiInputTask) {
  // D receives from B and C: its COMMIT must wait for both copies, so the
  // persisted blob exists and contains a consistent state.
  Harness h(testutil::mini_diamond());
  h.p().start();
  h.run_for(time::sec(10));

  bool done = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool) { done = true; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(done);
  const TaskId d = [&] {
    for (const TaskDef& def : h.p().topology().tasks()) {
      if (def.name == "D") return def.id;
    }
    throw std::logic_error("no D");
  }();
  for (int r = 0; r < h.p().topology().task(d).parallelism; ++r) {
    EXPECT_TRUE(
        h.p().store().peek(CheckpointBlob::key(1, d, r)).has_value());
  }
}

TEST(Checkpoint, CaptureWaveBroadcastsPrepareAndSweepsCommit) {
  // A Capture wave's PREPARE goes straight to every instance, once.  Its
  // COMMIT sweeps the dataflow, so an instance sees one copy per upstream
  // channel and nothing from the coordinator beyond the entry tasks: a
  // broadcast COMMIT could overtake a user event still on the wire.
  Harness h(testutil::mini_diamond());
  obs::Tracer tracer;
  h.p().set_tracer(&tracer);
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();
  bool ok = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Capture,
                                     [&](bool s) { ok = s; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(ok);
  for (const InstanceRef& ref : h.p().worker_and_sink_instances()) {
    const obs::Track track =
        obs::instance_track(h.p().executor(ref).id().value);
    int prepares = 0, commits = 0;
    for (const obs::Tracer::Record& r : tracer.records()) {
      if (r.track != track) continue;
      if (r.name == "PREPARE") ++prepares;
      if (r.name == "COMMIT") ++commits;
    }
    EXPECT_EQ(prepares, 1);
    EXPECT_EQ(commits, h.p().control_fanin(ref.task));
  }
}

TEST(Checkpoint, InitCopiesOfOneWaveRootAreForwardedOnce) {
  // Each D replica gets an INIT copy from B and one from C.  It forwards
  // the first and only acks the second, so the sink receives one copy per
  // D replica.  No instance was killed, so every copy counts as a
  // duplicate INIT: each instance's count is its barrier fan-in.
  Harness h(testutil::mini_diamond());
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();
  bool committed = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool ok) { committed = ok; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(committed);
  bool restored = false;
  h.p().coordinator().run_init(1, CheckpointMode::Wave, /*resend_period=*/0,
                               [&](bool ok) { restored = ok; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(restored);
  for (const InstanceRef& ref : h.p().worker_and_sink_instances()) {
    EXPECT_EQ(h.p().executor(ref).stats().duplicate_inits,
              static_cast<std::uint64_t>(h.p().control_fanin(ref.task)))
        << h.p().topology().task(ref.task).name << "[" << ref.replica << "]";
  }
}

TEST(Checkpoint, PeriodicWavesAdvanceCommittedId) {
  Harness h(testutil::mini_chain());
  h.p().set_user_acking(true);
  h.p().coordinator().start_periodic();
  h.p().start();
  h.run_for(time::sec(95));  // three 30 s intervals
  EXPECT_GE(h.p().coordinator().stats().waves_committed, 3u);
  EXPECT_GE(h.p().coordinator().last_committed(), 3u);
  h.p().coordinator().stop_periodic();
}

TEST(Checkpoint, InitRestoresCommittedState) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();

  bool chk = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool) { chk = true; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(chk);

  // Simulate loss: wipe a worker's state by kill+respawn on its own slot.
  const InstanceRef victim = h.p().worker_instances()[0];
  Executor& ex = h.p().executor(victim);
  const TaskState before = ex.state();
  const SlotId slot = ex.slot();
  h.p().cluster().vacate(slot);
  ex.kill();
  ex.respawn(slot);
  h.p().cluster().occupy(slot, ex.id());
  ex.set_ready(/*awaiting_init=*/true);
  EXPECT_EQ(ex.state().get("processed"), 0);

  bool inited = false;
  h.p().coordinator().run_init(h.p().coordinator().last_committed(),
                               CheckpointMode::Wave, time::sec(1),
                               [&](bool ok) { inited = ok; });
  h.run_for(time::sec(10));
  EXPECT_TRUE(inited);
  EXPECT_EQ(ex.state(), before);
  EXPECT_FALSE(ex.awaiting_init());
}

TEST(Checkpoint, InitResendsUntilWorkerReady) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();
  bool chk = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool) { chk = true; });
  h.run_for(time::sec(5));
  ASSERT_TRUE(chk);

  // Kill a worker and only bring it back 5 s later: the 1 s re-send loop
  // must keep trying and finish shortly after it comes up.
  const InstanceRef victim = h.p().worker_instances()[0];
  Executor& ex = h.p().executor(victim);
  const SlotId slot = ex.slot();
  h.p().cluster().vacate(slot);
  ex.kill();
  ex.respawn(slot);
  h.p().cluster().occupy(slot, ex.id());

  bool inited = false;
  SimTime init_done = 0;
  h.p().coordinator().run_init(h.p().coordinator().last_committed(),
                               CheckpointMode::Wave, time::sec(1),
                               [&](bool ok) {
                                 inited = ok;
                                 init_done = h.engine.now();
                               });
  const SimTime ready_at = h.engine.now() + static_cast<SimTime>(time::sec(5));
  h.engine.schedule_detached(time::sec(5), [&ex] { ex.set_ready(true); });
  h.run_for(time::sec(20));
  ASSERT_TRUE(inited);
  EXPECT_GE(init_done, ready_at);
  EXPECT_LT(init_done, ready_at + static_cast<SimTime>(time::sec(3)));
  EXPECT_GT(h.p().coordinator().stats().init_attempts, 3u);
}

TEST(Checkpoint, SecondCheckpointUsesNewWaveId) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(5));
  bool first = false, second = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool) { first = true; });
  h.run_for(time::sec(5));
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave,
                                     [&](bool) { second = true; });
  h.run_for(time::sec(5));
  EXPECT_TRUE(first && second);
  EXPECT_EQ(h.p().coordinator().last_committed(), 2u);
  EXPECT_EQ(h.p().coordinator().stats().waves_committed, 2u);
}

TEST(Checkpoint, DestructorCancelsInFlightInitTimers) {
  // Regression (found by rill_lint R6): tearing down a platform while an
  // INIT session is in flight must cancel the resend and deadline timers —
  // both capture `this` and would fire into a destroyed coordinator if the
  // engine keeps running after the platform is gone.  Compare how many
  // pending engine callbacks teardown cancels with and without an in-flight
  // INIT session: the two timers are the only extra cancellations.
  const auto pending_drop_on_teardown = [](bool with_init) {
    Harness h(testutil::mini_chain());
    h.p().start();
    h.run_for(time::sec(10));
    h.p().pause_sources();
    h.run_for(time::sec(30));
    if (with_init) {
      h.p().coordinator().run_init(1, CheckpointMode::Wave, time::sec(1),
                                   [](bool) {}, time::sec(60));
    }
    const std::size_t before = h.engine.pending();
    h.platform.reset();
    return before - h.engine.pending();
  };
  const std::size_t control = pending_drop_on_teardown(false);
  const std::size_t with_init = pending_drop_on_teardown(true);
  EXPECT_EQ(with_init, control + 2u);
}

TEST(Checkpoint, TeardownWithoutInitSessionSparesOtherTimers) {
  // Regression: the coordinator's destructor cancels its INIT resend and
  // deadline timers even when no INIT session ever armed them.  Those
  // default TimerIds must not name a live callback, or tearing down a
  // platform cancels whatever waits in the engine's first slot.
  sim::Engine engine;
  int fired = 0;
  engine.schedule_detached(time::sec(1), [&] { ++fired; });
  {
    Platform platform(engine, PlatformConfig{});
    platform.setup_infrastructure();
    Topology topo("one-worker");
    const TaskId src = topo.add_source("src");
    const TaskId worker = topo.add_worker("A");
    const TaskId sink = topo.add_sink("sink");
    topo.add_edge(src, worker);
    topo.add_edge(worker, sink);
    topo.validate();
    const std::vector<VmId> vms =
        platform.cluster().provision_n(cluster::VmType::D2, 1, "w");
    RoundRobinScheduler scheduler;
    platform.deploy(std::move(topo), vms, scheduler);
    ASSERT_EQ(engine.pending(), 1u);
  }
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(Checkpoint, ConcurrentCheckpointRejected) {
  // A request made while a wave is in flight waits and commits after it;
  // a third, made while one waits, is refused at once.
  Harness h(testutil::mini_chain());
  h.p().start();
  CheckpointCoordinator& coord = h.p().coordinator();
  std::vector<int> done;  // in order: +n committed, -n refused or failed
  for (int n = 1; n <= 3; ++n) {
    coord.run_checkpoint(CheckpointMode::Wave,
                         [&done, n](bool ok) { done.push_back(ok ? n : -n); });
  }
  EXPECT_EQ(done, std::vector<int>{-3});
  h.run_for(time::sec(5));
  EXPECT_EQ(done, (std::vector<int>{-3, 1, 2}));
  EXPECT_EQ(coord.last_committed(), 2u);
  EXPECT_EQ(coord.stats().waves_started, 2u);
  EXPECT_EQ(coord.stats().waves_committed, 2u);
}

TEST(Checkpoint, WaveKeepsItsWiringWhenTheSessionChanges) {
  // A strategy may configure the platform while a wave is in flight (an
  // autoscale trigger on a periodic tick).  The wave finishes as it was
  // sent: its PREPARE copies, still on the wire, keep the Wave wiring, so
  // no executor snapshots early and starts capturing, and COMMIT clears.
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  bool done = false, ok = false;
  h.p().coordinator().run_checkpoint(CheckpointMode::Wave, [&](bool s) {
    done = true;
    ok = s;
  });
  core::make_strategy(core::StrategyKind::CCR)->configure(h.p());
  h.run_for(time::sec(1));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(h.p().coordinator().stats().wave_retries, 0u);
  for (const InstanceRef& ref : h.p().worker_and_sink_instances()) {
    EXPECT_FALSE(h.p().executor(ref).capturing());
  }
}

}  // namespace
}  // namespace rill::dsps
