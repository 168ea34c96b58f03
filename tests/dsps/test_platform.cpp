#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "test_util.hpp"

namespace rill::dsps {
namespace {

using testutil::Harness;

TEST(Platform, DeployPinsIoAndPlacesWorkers) {
  Harness h(testutil::mini_chain());
  Platform& p = h.p();

  // Source and sink slots live on the I/O VM.
  const Spout& spout = p.spout(p.topology().sources()[0]);
  EXPECT_EQ(p.cluster().vm_of(spout.slot()), p.io_vm());
  for (const InstanceRef& ref : p.sink_instances()) {
    EXPECT_EQ(p.cluster().vm_of(p.executor(ref).slot()), p.io_vm());
  }
  // Workers are on the worker pool, all ready, none awaiting init.
  for (const InstanceRef& ref : p.worker_instances()) {
    const Executor& ex = p.executor(ref);
    EXPECT_TRUE(ex.ready());
    EXPECT_FALSE(ex.awaiting_init());
    EXPECT_NE(p.cluster().vm_of(ex.slot()), p.io_vm());
    EXPECT_NE(p.cluster().vm_of(ex.slot()), p.store_vm());
  }
}

TEST(Platform, FreshEventIdsAreUnique) {
  Harness h(testutil::mini_chain());
  std::set<EventId> seen;
  for (int i = 0; i < 100000; ++i) {
    EXPECT_TRUE(seen.insert(h.p().fresh_event_id()).second);
  }
}

TEST(Platform, EndToEndFlowReachesSink) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  // 8 ev/s for 10 s through a 2-worker chain: sink sees most of them.
  EXPECT_GT(h.collector.sink_arrivals(), 60u);
  EXPECT_EQ(h.collector.lost_user_events(), 0u);
  // Steady-state latency ≈ 2×100 ms service + sink + network.
  const auto median = h.collector.latency().median_ms(0, h.engine.now());
  ASSERT_TRUE(median.has_value());
  EXPECT_GT(*median, 200.0);
  EXPECT_LT(*median, 400.0);
}

TEST(Platform, SinkArrivalsMatchPathsPerRoot) {
  Harness h(testutil::mini_diamond());
  h.p().start();
  h.run_for(time::sec(30));
  const auto paths = workloads::sink_paths(h.p().topology());
  EXPECT_EQ(paths, 2u);
  const std::size_t settled = testutil::expect_exactly_once(
      h.collector, paths,
      h.engine.now() - static_cast<SimTime>(time::sec(5)));
  EXPECT_GT(settled, 100u);
}

TEST(Platform, ShuffleGroupingBalancesReplicas) {
  Topology t = testutil::mini_diamond();  // D has 2 replicas at 8 ev/s
  Harness h(std::move(t));
  h.p().start();
  h.run_for(time::sec(30));
  const TaskId d = [&] {
    for (const TaskDef& def : h.p().topology().tasks()) {
      if (def.name == "D") return def.id;
    }
    throw std::logic_error("no D");
  }();
  const auto& s0 = h.p().executor(InstanceRef{d, 0}).stats();
  const auto& s1 = h.p().executor(InstanceRef{d, 1}).stats();
  EXPECT_GT(s0.processed, 0u);
  EXPECT_GT(s1.processed, 0u);
  const double ratio =
      static_cast<double>(s0.processed) / static_cast<double>(s1.processed);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(Platform, ControlFaninCountsUpstreamInstances) {
  Harness h(testutil::mini_diamond());
  const Topology& t = h.p().topology();
  auto find = [&](std::string_view name) {
    for (const TaskDef& def : t.tasks()) {
      if (def.name == name) return def.id;
    }
    throw std::logic_error("not found");
  };
  EXPECT_EQ(h.p().control_fanin(find("A")), 1);     // coordinator injects 1
  EXPECT_EQ(h.p().control_fanin(find("B")), 1);     // A has 1 instance
  EXPECT_EQ(h.p().control_fanin(find("D")), 2);     // B + C
  EXPECT_EQ(h.p().control_fanin(find("sink")), 2);  // D has 2 instances
}

TEST(Platform, EntryTasksAreSourceFed) {
  Harness h(testutil::mini_diamond());
  const auto entries = h.p().entry_tasks();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(h.p().topology().task(entries[0]).name, "A");
}

/// The instance lists Platform builds at deploy, recomputed by walking the
/// topology the way the accessors document.
struct TopologyWalk {
  std::vector<InstanceRef> worker_and_sink;
  std::vector<InstanceRef> workers;
  std::vector<InstanceRef> sinks;
  std::vector<TaskId> entries;
};

TopologyWalk walk(const Topology& t) {
  TopologyWalk w;
  for (TaskId id : t.topo_order()) {
    const TaskDef& def = t.task(id);
    if (def.kind == TaskKind::Source) continue;
    for (int r = 0; r < def.parallelism; ++r) {
      w.worker_and_sink.push_back(InstanceRef{id, r});
      if (def.kind == TaskKind::Worker) w.workers.push_back(InstanceRef{id, r});
    }
    const std::vector<TaskId> ups = t.upstream(id);
    if (std::any_of(ups.begin(), ups.end(), [&](TaskId up) {
          return t.task(up).kind == TaskKind::Source;
        })) {
      w.entries.push_back(id);
    }
  }
  for (TaskId id : t.sinks()) {
    for (int r = 0; r < t.task(id).parallelism; ++r) {
      w.sinks.push_back(InstanceRef{id, r});
    }
  }
  return w;
}

void expect_lists_match_walk(Topology topo, const std::string& name) {
  SCOPED_TRACE(name);
  Harness h(std::move(topo));
  Platform& p = h.p();
  const TopologyWalk w = walk(p.topology());
  EXPECT_EQ(p.worker_and_sink_instances(), w.worker_and_sink);
  EXPECT_EQ(p.worker_instances(), w.workers);
  EXPECT_EQ(p.sink_instances(), w.sinks);
  EXPECT_EQ(p.entry_tasks(), w.entries);
  std::vector<TaskId> sources = p.topology().sources();
  std::sort(sources.begin(), sources.end());
  std::vector<Spout*> spouts;
  for (TaskId src : sources) spouts.push_back(&p.spout(src));
  EXPECT_EQ(p.spouts(), spouts);
  // Built once: every call returns the same list.
  EXPECT_EQ(&p.worker_instances(), &p.worker_instances());
  EXPECT_EQ(&p.spouts(), &p.spouts());
}

TEST(Platform, InstanceListsMatchTheTopologyWalk) {
  for (const workloads::DagKind kind :
       {workloads::DagKind::Linear, workloads::DagKind::Diamond,
        workloads::DagKind::Star, workloads::DagKind::Traffic,
        workloads::DagKind::Grid, workloads::DagKind::Keyed}) {
    expect_lists_match_walk(workloads::build_dag(kind),
                            std::string(workloads::to_string(kind)));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_lists_match_walk(workloads::build_random_dag(seed),
                            "random dag seed " + std::to_string(seed));
  }
  // Two sources and two sinks, the sinks added out of topology order.
  Topology t("two-by-two");
  const TaskId s1 = t.add_source("s1");
  const TaskId k2 = t.add_sink("k2");
  const TaskId a = t.add_worker("A", 2);
  const TaskId s2 = t.add_source("s2");
  const TaskId b = t.add_worker("B", 3);
  const TaskId k1 = t.add_sink("k1");
  t.add_edge(s1, a);
  t.add_edge(s2, b);
  t.add_edge(a, b);
  t.add_edge(a, k1);
  t.add_edge(b, k2);
  t.validate();
  expect_lists_match_walk(std::move(t), "two-by-two");
}

TEST(Platform, FractionalSelectivityEmitsDeterministically) {
  Topology t("sel");
  const TaskId s = t.add_source("s");
  TaskDef def;
  def.name = "half";
  def.selectivity = 0.5;
  const TaskId w = t.add_task(std::move(def));
  const TaskId k = t.add_sink("k");
  t.add_edge(s, w);
  t.add_edge(w, k);
  t.validate();

  Harness h(std::move(t));
  h.p().start();
  h.run_for(time::sec(20));
  // 8 ev/s × 20 s × 0.5 ≈ 80 sink arrivals.
  EXPECT_NEAR(static_cast<double>(h.collector.sink_arrivals()), 80.0, 8.0);
}

TEST(Platform, SelectivityAccumulatesInWholePerMille) {
  // A double accumulator summing 0.1 reaches only 0.9999999999999999 after
  // ten inputs, so it emitted 99 children per 1000 (the first on input 11);
  // 0.3 gave 299.  Whole per-mille has no drift.
  for (const auto& [selectivity, children, first] :
       {std::tuple{0.1, 100, 10}, std::tuple{0.3, 300, 4},
        std::tuple{2.0, 2000, 1}}) {
    Topology t("sel");
    const TaskId s = t.add_source("s");
    TaskDef def;
    def.name = "w";
    def.selectivity = selectivity;
    const TaskId w = t.add_task(std::move(def));
    const TaskId k = t.add_sink("k");
    t.add_edge(s, w);
    t.add_edge(w, k);
    t.validate();

    Harness h(std::move(t));
    Executor& ex = h.p().executor(InstanceRef{w, 0});
    const Event parent;
    int emitted = 0;
    int first_at = 0;
    for (int input = 1; input <= 1000; ++input) {
      const int n = h.p().emit_user_children(ex, parent);
      if (n > 0 && first_at == 0) first_at = input;
      emitted += n;
    }
    EXPECT_EQ(emitted, children) << "selectivity " << selectivity;
    EXPECT_EQ(first_at, first) << "selectivity " << selectivity;
  }
}

TEST(Platform, ExecutorLookupRejectsRefsWithoutAnExecutor) {
  Harness h(testutil::mini_diamond());  // D has two replicas
  Platform& p = h.p();
  const Platform& cp = p;
  const Topology& t = p.topology();
  for (const InstanceRef& ref : p.worker_and_sink_instances()) {
    EXPECT_EQ(p.executor(ref).ref(), ref);
  }
  const TaskId src = t.sources()[0];
  const TaskId d = [&] {
    for (const TaskDef& def : t.tasks()) {
      if (def.name == "D") return def.id;
    }
    throw std::logic_error("no D");
  }();
  const int parallelism = t.task(d).parallelism;
  ASSERT_EQ(parallelism, 2);
  const auto past_end = static_cast<std::uint32_t>(t.tasks().size());
  for (const InstanceRef& bad :
       {InstanceRef{src, 0}, InstanceRef{d, parallelism}, InstanceRef{d, -1},
        InstanceRef{TaskId{past_end}, 0}}) {
    EXPECT_THROW((void)p.executor(bad), std::logic_error);
    EXPECT_THROW((void)cp.executor(bad), std::logic_error);
  }
}

TEST(Platform, StatefulWorkersCountProcessedEvents) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  const auto workers = h.p().worker_instances();
  for (const InstanceRef& ref : workers) {
    const Executor& ex = h.p().executor(ref);
    EXPECT_EQ(static_cast<std::uint64_t>(ex.state().get("processed")),
              ex.stats().processed);
    EXPECT_GT(ex.stats().processed, 0u);
  }
}

TEST(Platform, PauseStopsFlowUnpauseResumes) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(5));
  h.p().pause_sources();
  h.run_for(time::sec(2));  // drain
  const auto arrived = h.collector.sink_arrivals();
  h.run_for(time::sec(5));
  EXPECT_EQ(h.collector.sink_arrivals(), arrived);  // fully drained, no flow
  h.p().unpause_sources();
  h.run_for(time::sec(5));
  EXPECT_GT(h.collector.sink_arrivals(), arrived);
}

TEST(Platform, DeployRequiresInfrastructure) {
  sim::Engine engine;
  Platform p(engine, PlatformConfig{});
  RoundRobinScheduler sched;
  EXPECT_THROW(p.deploy(testutil::mini_chain(), {}, sched), std::logic_error);
  EXPECT_THROW(p.start(), std::logic_error);
}

TEST(Platform, DoubleDeployThrows) {
  Harness h(testutil::mini_chain());
  EXPECT_THROW(
      h.p().deploy(testutil::mini_chain(), h.worker_vms, h.scheduler),
      std::logic_error);
}

}  // namespace
}  // namespace rill::dsps
