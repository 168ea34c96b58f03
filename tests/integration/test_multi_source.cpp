// Multi-source topologies: the platform must pause/resume every spout,
// align checkpoint waves across independently-fed entry tasks, and keep
// the reliability guarantees.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill {
namespace {

/// meters → join ← weather: two independent sources feeding one join.
dsps::Topology dual_source() {
  dsps::Topology t("dual");
  const TaskId meters = t.add_source("meters");
  const TaskId weather = t.add_source("weather");
  const TaskId parse_m = t.add_worker("parse_m");
  const TaskId parse_w = t.add_worker("parse_w");
  dsps::TaskDef join;
  join.name = "join";
  join.parallelism = 2;  // 16 ev/s combined
  const TaskId j = t.add_task(std::move(join));
  const TaskId sink = t.add_sink("sink");
  t.add_edge(meters, parse_m);
  t.add_edge(weather, parse_w);
  t.add_edge(parse_m, j);
  t.add_edge(parse_w, j);
  t.add_edge(j, sink);
  t.validate();
  return t;
}

TEST(MultiSource, BothStreamsReachTheSink) {
  testutil::Harness h(dual_source());
  h.p().start();
  h.run_for(time::sec(30));
  // Two 8 ev/s sources → ~16 ev/s at the sink.
  EXPECT_NEAR(static_cast<double>(h.collector.sink_arrivals()), 16.0 * 30,
              25.0);
  EXPECT_EQ(h.p().spouts().size(), 2u);
}

TEST(MultiSource, PausePausesBoth) {
  testutil::Harness h(dual_source());
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();
  for (dsps::Spout* s : h.p().spouts()) EXPECT_TRUE(s->paused());
  h.run_for(time::sec(2));
  const auto n = h.collector.sink_arrivals();
  h.run_for(time::sec(5));
  EXPECT_EQ(h.collector.sink_arrivals(), n);
  h.p().unpause_sources();
  for (dsps::Spout* s : h.p().spouts()) EXPECT_FALSE(s->paused());
}

TEST(MultiSource, CheckpointWaveAlignsAcrossSources) {
  testutil::Harness h(dual_source());
  h.p().start();
  h.run_for(time::sec(10));
  h.p().pause_sources();
  bool done = false, ok = false;
  h.p().coordinator().run_checkpoint(dsps::CheckpointMode::Wave,
                                     [&](bool s) {
                                       done = true;
                                       ok = s;
                                     });
  h.run_for(time::sec(5));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  // Both entry tasks and the join replicas persisted blobs.
  for (const dsps::InstanceRef& ref : h.p().worker_instances()) {
    EXPECT_TRUE(h.p()
                    .store()
                    .peek(dsps::CheckpointBlob::key(1, ref.task, ref.replica))
                    .has_value());
  }
}

TEST(MultiSource, CcrMigratesWithoutLoss) {
  testutil::Harness h(dual_source());
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
  h.run_for(time::sec(150));
  ASSERT_TRUE(ok);
  EXPECT_EQ(h.collector.lost_user_events(), 0u);
  EXPECT_EQ(h.collector.replayed_messages(), 0u);

  // Exactly-once per origin (1 sink path per source here).
  h.p().pause_sources();
  h.run_for(time::sec(90));
  testutil::expect_exactly_once(h.collector, 1, kSimTimeMax);
}

TEST(MultiSource, ControlFaninCountsSourceEdges) {
  testutil::Harness h(dual_source());
  const auto& topo = h.p().topology();
  for (const dsps::TaskDef& def : topo.tasks()) {
    if (def.name == "parse_m" || def.name == "parse_w") {
      EXPECT_EQ(h.p().control_fanin(def.id), 1);
    }
    if (def.name == "join") {
      EXPECT_EQ(h.p().control_fanin(def.id), 2);  // parse_m + parse_w
    }
  }
  EXPECT_EQ(h.p().entry_tasks().size(), 2u);
}

}  // namespace
}  // namespace rill
