// Failure injection outside planned migrations: an unplanned worker crash.
//
// This probes the trade-off the paper highlights in §2: DSM pays for
// always-on acking + periodic checkpoints but survives crashes; DCR/CCR
// turn user acking off ("avoid the overheads for reliability if the user
// does not require them for normal operations") and therefore lose the
// crashed worker's in-flight events.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill {
namespace {

using dsps::InstanceRef;

struct CrashRun {
  std::uint64_t replayed{0};
  std::uint64_t lost{0};
  std::uint64_t unreached_roots{0};
};

CrashRun crash_worker_under(core::StrategyKind kind) {
  testutil::Harness h(testutil::mini_chain());
  auto strategy = core::make_strategy(kind);
  strategy->configure(h.p());
  h.p().start();
  // Stop mid-service (not on a tick boundary) so the crash catches
  // in-flight work; 40 s is past the first periodic checkpoint for DSM.
  h.run_for(time::sec_f(40.03));

  // Crash the first worker.  It stays DEAD until the supervisor notices
  // (3 s) and respawns it; it is serving again 2 s later and re-inits
  // from the last checkpoint (if any).  Deliveries during the dead window
  // are gone — broken connections, exactly like a real worker crash.
  dsps::Executor& victim = h.p().executor(h.p().worker_instances()[0]);
  const SlotId slot = victim.slot();
  h.p().cluster().vacate(slot);
  victim.kill();
  h.engine.schedule_detached(time::sec(3), [&h, &victim, slot] {
    victim.respawn(slot);
    h.p().cluster().occupy(slot, victim.id());
  });
  h.engine.schedule_detached(time::sec(5), [&victim] {
    victim.set_ready(/*awaiting_init=*/true);
  });
  h.engine.schedule_detached(time::sec(6), [&h] {
    dsps::CheckpointCoordinator& coord = h.p().coordinator();
    coord.run_init(coord.last_committed(), coord.last_committed_wiring(),
                   time::sec(1), [](bool) {});
  });

  h.run_for(time::sec(120));
  h.p().pause_sources();
  h.run_for(time::sec(60));

  CrashRun out;
  out.replayed = h.collector.replayed_messages();
  out.lost = h.collector.lost_user_events();
  for (const auto& [origin, rec] : h.collector.roots()) {
    if (rec.sink_arrivals == 0) ++out.unreached_roots;
  }
  return out;
}

TEST(FailureInjection, DsmRecoversCrashedWorkerEvents) {
  const CrashRun r = crash_worker_under(core::StrategyKind::DSM);
  // Events died with the worker but the acker replayed them: every root
  // eventually reached the sink.
  EXPECT_GT(r.lost, 0u);
  EXPECT_GT(r.replayed, 0u);
  EXPECT_EQ(r.unreached_roots, 0u);
}

TEST(FailureInjection, CcrWithoutAckingLosesCrashedEvents) {
  const CrashRun r = crash_worker_under(core::StrategyKind::CCR);
  // No acking in normal operation: the crashed worker's events are gone
  // for good — the price of skipping always-on reliability.
  EXPECT_GT(r.lost, 0u);
  EXPECT_EQ(r.replayed, 0u);
  EXPECT_GT(r.unreached_roots, 0u);
}

TEST(FailureInjection, DcrWithoutAckingLosesCrashedEvents) {
  const CrashRun r = crash_worker_under(core::StrategyKind::DCR);
  EXPECT_GT(r.lost, 0u);
  EXPECT_EQ(r.replayed, 0u);
  EXPECT_GT(r.unreached_roots, 0u);
}

TEST(FailureInjection, CrashDuringCcrMigrationStillRecovers) {
  // A worker that dies *during* the migration is simply the migration
  // itself (all workers are killed); the checkpointed capture protects it.
  // Here we crash the sink-side VM's neighbour right after the COMMIT by
  // re-killing one respawned worker before it turns ready — the 1 s INIT
  // re-sends must still converge once it comes up.
  testutil::Harness h(testutil::mini_chain());
  auto strategy = core::make_strategy(core::StrategyKind::CCR);
  strategy->configure(h.p());
  h.p().start();
  h.run_for(time::sec(20));

  const auto target = h.p().cluster().provision_n(cluster::VmType::D3, 1, "d3");
  dsps::MigrationPlan plan;
  plan.target_vms = target;
  plan.scheduler = &h.scheduler;
  bool ok = false;
  strategy->migrate(h.p(), std::move(plan), [&](bool s) { ok = s; });

  // 12 s in: the rebalance is done, workers are Starting.  Delay one
  // worker by an extra 60 s (double crash / very slow host).
  h.engine.schedule_detached(time::sec(12), [&h] {
    dsps::Executor& ex = h.p().executor(h.p().worker_instances()[0]);
    if (ex.life() == dsps::LifeState::Starting) {
      // Simulate a start-up crash loop: it comes up much later.
      h.engine.schedule_detached(time::sec(60), [&ex] {
        if (!ex.ready()) ex.set_ready(true);
      });
    }
  });

  h.run_for(time::sec(200));
  EXPECT_TRUE(ok);
  EXPECT_EQ(h.collector.lost_user_events(), 0u);
  EXPECT_EQ(h.collector.replayed_messages(), 0u);
}

}  // namespace
}  // namespace rill
