// The noisy-neighbour model (PlatformConfig::vm_steal_permille) reads the
// busy executors on a VM from a count the executors keep as they turn busy
// or idle and as a busy one changes slot.  This test runs the closed loop
// the model exists for: the Keyed dataflow under a flash crowd, with the
// autoscaler moving instances fluidly (FGM, whose finalize can rebind an
// executor in the middle of a tuple), periodic checkpoint waves (control
// events keep an executor busy too) and two worker crashes (kill and
// respawn).  After every engine event it checks user_service_time() for
// every executor against the scan the count replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "autoscale/controller.hpp"
#include "chaos/injector.hpp"
#include "core/controller.hpp"
#include "core/strategy.hpp"
#include "dsps/platform.hpp"
#include "metrics/collector.hpp"
#include "workloads/dags.hpp"
#include "workloads/scenario.hpp"
#include "workloads/traffic.hpp"

namespace rill::dsps {
namespace {

/// The base service time dilated by every *other* busy executor whose slot
/// is on `ex`'s VM, counted by walking all of them.
SimDuration scanned_service_time(Platform& p,
                                 const std::vector<const Executor*>& all,
                                 const Executor& ex) {
  const TaskDef& def = p.topology().task(ex.task());
  if (p.config().vm_steal_permille <= 0) return def.service_time;
  const VmId vm = p.cluster().vm_of(ex.slot());
  std::int64_t busy_neighbours = 0;
  for (const Executor* other : all) {
    if (other == &ex || !other->busy()) continue;
    if (p.cluster().vm_of(other->slot()) == vm) ++busy_neighbours;
  }
  return def.service_time + def.service_time * p.config().vm_steal_permille *
                                busy_neighbours / 1000;
}

::testing::AssertionResult every_executor_matches(
    Platform& p, const std::vector<const Executor*>& all) {
  for (const Executor* ex : all) {
    const SimDuration counted = p.user_service_time(*ex);
    const SimDuration scanned = scanned_service_time(p, all, *ex);
    if (counted != scanned) {
      return ::testing::AssertionFailure()
             << "instance " << ex->id().value << " on VM "
             << p.cluster().vm_of(ex->slot()).value << ": counted " << counted
             << " us, scanned " << scanned << " us";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(NoisyNeighbour, CountMatchesScanEveryEvent) {
  sim::Engine engine;
  PlatformConfig pcfg;
  pcfg.seed = 3;
  pcfg.vm_steal_permille = 600;
  pcfg.respawn_restore = true;
  Platform platform(engine, pcfg);
  platform.setup_infrastructure();
  Topology topo = workloads::build_dag(workloads::DagKind::Keyed,
                                       pcfg.source_rate);
  const workloads::VmPlan plan = workloads::vm_plan_for(topo);
  RoundRobinScheduler scheduler;
  platform.deploy(std::move(topo),
                  platform.cluster().provision_n(cluster::VmType::D2,
                                                 plan.default_d2_vms, "d2"),
                  scheduler);

  // The runner's closed loop: the autoscaler reads the collector's
  // sink-arrival log, owns every migration and picks FGM for the keyed
  // dataflow.  The bound strategy is DSM only because it runs the periodic
  // checkpoint waves.
  metrics::Collector collector;
  platform.set_listener(&collector);
  auto strategy = core::make_strategy(core::StrategyKind::DSM);
  strategy->configure(platform);
  core::MigrationController migrations(platform, *strategy);
  autoscale::AutoscaleConfig acfg;
  acfg.enabled = true;
  acfg.target_p99_us = 1'500'000;
  autoscale::AutoscaleController autoscaler(platform, migrations, collector,
                                            plan, acfg);

  workloads::TrafficConfig tcfg;
  tcfg.enabled = true;
  tcfg.base_rate = 2.0;
  tcfg.zipf_s = 1.2;
  tcfg.crowds.push_back({/*at=*/150.0, /*ramp=*/10.0, /*hold=*/90.0,
                         /*fall=*/20.0, /*multiplier=*/18.0});
  workloads::TrafficDriver traffic(platform, tcfg);

  chaos::ChaosPlan faults;
  faults.crash_worker(time::sec(100));
  faults.crash_worker(time::sec(240));
  chaos::ChaosInjector injector(faults, pcfg.seed);
  injector.arm(platform);

  platform.start();
  traffic.start();
  autoscaler.start();

  std::vector<const Executor*> all;
  for (const InstanceRef ref : platform.worker_and_sink_instances()) {
    all.push_back(&platform.executor(ref));
  }
  std::vector<bool> was_busy(all.size());
  std::vector<SlotId> was_at(all.size());
  // Steps in which an executor that was busy going in left on another
  // slot: a rebind in the middle of a tuple, which only fgm_finalize does.
  std::uint64_t rebound_while_busy = 0;
  std::uint64_t steps = 0;
  ASSERT_TRUE(every_executor_matches(platform, all)) << "after deploy";
  const auto end = static_cast<SimTime>(time::sec(420));
  while (engine.now() < end) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      was_busy[i] = all[i]->busy();
      was_at[i] = all[i]->slot();
    }
    if (!engine.step()) break;
    ++steps;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (was_busy[i] && all[i]->slot() != was_at[i]) ++rebound_while_busy;
    }
    ASSERT_TRUE(every_executor_matches(platform, all))
        << "after event " << steps << " at " << time::at_sec(engine.now())
        << " s";
  }
  autoscaler.stop();
  traffic.stop();
  platform.stop();

  // The run reached every path that writes busy() or slot().
  std::uint64_t fgm_batches = 0;
  for (const Executor* ex : all) fgm_batches += ex->stats().fgm_batches_moved;
  EXPECT_GT(fgm_batches, 0u);
  EXPECT_GT(platform.coordinator().stats().waves_committed, 0u);
  EXPECT_EQ(injector.stats().workers_crashed, 2);
  EXPECT_GT(rebound_while_busy, 0u);
}

}  // namespace
}  // namespace rill::dsps
