#include <gtest/gtest.h>

#include <string>

#include "dsps/topology.hpp"
#include "test_util.hpp"
#include "workloads/dags.hpp"

namespace rill::dsps {
namespace {

TEST(Topology, ValidChainValidates) {
  Topology t = testutil::mini_chain();
  EXPECT_TRUE(t.validated());
  EXPECT_EQ(t.tasks().size(), 4u);
  EXPECT_EQ(t.sources().size(), 1u);
  EXPECT_EQ(t.sinks().size(), 1u);
  EXPECT_EQ(t.workers().size(), 2u);
}

TEST(Topology, RejectsEmpty) {
  Topology t("empty");
  EXPECT_THROW(t.validate(), TopologyError);
}

TEST(Topology, RejectsSourceWithInEdge) {
  Topology t("bad");
  const TaskId s1 = t.add_source("s1");
  const TaskId s2 = t.add_source("s2");
  const TaskId sink = t.add_sink("sink");
  t.add_edge(s1, s2);
  t.add_edge(s2, sink);
  EXPECT_THROW(t.validate(), TopologyError);
}

TEST(Topology, RejectsSinkWithOutEdge) {
  Topology t("bad");
  const TaskId s = t.add_source("s");
  const TaskId k = t.add_sink("k");
  const TaskId w = t.add_worker("w");
  t.add_edge(s, k);
  t.add_edge(k, w);
  t.add_edge(w, k);  // also creates a cycle, but kind check fires first
  EXPECT_THROW(t.validate(), TopologyError);
}

TEST(Topology, RejectsUnreachableWorker) {
  Topology t("bad");
  const TaskId s = t.add_source("s");
  const TaskId k = t.add_sink("k");
  t.add_worker("orphan");
  t.add_edge(s, k);
  EXPECT_THROW(t.validate(), TopologyError);
}

TEST(Topology, RejectsCycle) {
  Topology t("cyclic");
  const TaskId s = t.add_source("s");
  const TaskId a = t.add_worker("a");
  const TaskId b = t.add_worker("b");
  const TaskId k = t.add_sink("k");
  t.add_edge(s, a);
  t.add_edge(a, b);
  t.add_edge(b, a);
  t.add_edge(b, k);
  EXPECT_THROW(t.validate(), TopologyError);
}

TEST(Topology, RejectsSelfLoopAndDuplicateEdges) {
  Topology t("bad");
  const TaskId s = t.add_source("s");
  const TaskId a = t.add_worker("a");
  EXPECT_THROW(t.add_edge(a, a), TopologyError);
  t.add_edge(s, a);
  EXPECT_THROW(t.add_edge(s, a), TopologyError);
}

TEST(Topology, FrozenAfterValidate) {
  Topology t = testutil::mini_chain();
  EXPECT_THROW(t.add_worker("late"), TopologyError);
}

TEST(Topology, TopoOrderRespectsEdges) {
  Topology t = testutil::mini_diamond();
  const auto& order = t.topo_order();
  auto pos = [&](std::string_view name) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (t.task(order[i]).name == name) return i;
    }
    return std::size_t(-1);
  };
  EXPECT_LT(pos("src"), pos("A"));
  EXPECT_LT(pos("A"), pos("B"));
  EXPECT_LT(pos("A"), pos("C"));
  EXPECT_LT(pos("B"), pos("D"));
  EXPECT_LT(pos("C"), pos("D"));
  EXPECT_LT(pos("D"), pos("sink"));
}

TEST(Topology, OutEdgesKeepInsertionOrderBeforeAndAfterValidate) {
  // Emit order follows out_edges(), so it is part of the determinism
  // contract; build_random_dag also reads it before validating.
  Topology t("fan");
  const TaskId s = t.add_source("s");
  const TaskId a = t.add_worker("a");
  const TaskId b = t.add_worker("b");
  const TaskId c = t.add_worker("c");
  const TaskId k = t.add_sink("k");
  // Interleaved across tasks, and not in the targets' id order.
  const EdgeId sc = t.add_edge(s, c);
  const EdgeId ck = t.add_edge(c, k);
  const EdgeId sa = t.add_edge(s, a);
  const EdgeId ab = t.add_edge(a, b);
  const EdgeId sb = t.add_edge(s, b);
  const EdgeId bk = t.add_edge(b, k);
  const EdgeId ak = t.add_edge(a, k);
  const auto check = [&] {
    EXPECT_EQ(t.out_edges(s), (std::vector<EdgeId>{sc, sa, sb}));
    EXPECT_EQ(t.out_edges(a), (std::vector<EdgeId>{ab, ak}));
    EXPECT_EQ(t.out_edges(b), (std::vector<EdgeId>{bk}));
    EXPECT_EQ(t.out_edges(c), (std::vector<EdgeId>{ck}));
    EXPECT_TRUE(t.out_edges(k).empty());
  };
  check();
  t.validate();
  check();
}

TEST(Topology, InputRateDuplicatesAcrossOutEdges) {
  Topology t = testutil::mini_diamond();
  // A duplicates to B and C; D receives B + C = 2× source rate.
  auto find = [&](std::string_view name) {
    for (const TaskDef& d : t.tasks()) {
      if (d.name == name) return d.id;
    }
    throw std::logic_error("not found");
  };
  EXPECT_DOUBLE_EQ(t.input_rate(find("A"), 8.0), 8.0);
  EXPECT_DOUBLE_EQ(t.input_rate(find("B"), 8.0), 8.0);
  EXPECT_DOUBLE_EQ(t.input_rate(find("D"), 8.0), 16.0);
  EXPECT_DOUBLE_EQ(t.input_rate(find("sink"), 8.0), 16.0);
}

TEST(Topology, SelectivityScalesRates) {
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
  EXPECT_DOUBLE_EQ(t.input_rate(k, 8.0), 4.0);
}

TEST(Topology, AutosizeOneInstancePer8EvPerSec) {
  Topology t = testutil::mini_diamond();
  const int total = t.autosize_parallelism(8.0);
  EXPECT_EQ(total, 2 + 1 + 1 + 1);  // D at 16 ev/s needs 2 instances
}

/// "name:parallelism:input-rate" for every task, in id order.
std::string sizing(const Topology& t, double source_rate) {
  std::string out;
  for (const TaskDef& d : t.tasks()) {
    if (!out.empty()) out += ' ';
    out += d.name + ":" + std::to_string(d.parallelism) + ":" +
           std::to_string(t.input_rate(d.id, source_rate));
  }
  return out;
}

TEST(Topology, AutosizePinsEveryDagKind) {
  // Table 1's sizing at the paper rate and at the 4x rate of the grid-ccr
  // benchmark.  Keyed has explicit parallelism and is not autosized.
  using workloads::DagKind;
  const struct {
    DagKind kind;
    double rate;
    const char* want;
  } cases[] = {
      {DagKind::Linear, 8.0,
       "src:1:8.000000 T1:1:8.000000 T2:1:8.000000 T3:1:8.000000 "
       "T4:1:8.000000 T5:1:8.000000 sink:1:8.000000"},
      {DagKind::Linear, 32.0,
       "src:1:32.000000 T1:4:32.000000 T2:4:32.000000 T3:4:32.000000 "
       "T4:4:32.000000 T5:4:32.000000 sink:1:32.000000"},
      {DagKind::Diamond, 8.0,
       "src:1:8.000000 A:1:8.000000 B:1:8.000000 C:1:8.000000 D:1:8.000000 "
       "E:4:32.000000 sink:1:32.000000"},
      {DagKind::Diamond, 32.0,
       "src:1:32.000000 A:4:32.000000 B:4:32.000000 C:4:32.000000 "
       "D:4:32.000000 E:16:128.000000 sink:1:128.000000"},
      {DagKind::Star, 8.0,
       "src:1:8.000000 A:1:8.000000 B:1:8.000000 Hub:2:16.000000 "
       "D:2:16.000000 E:2:16.000000 sink:1:32.000000"},
      {DagKind::Star, 32.0,
       "src:1:32.000000 A:4:32.000000 B:4:32.000000 Hub:8:64.000000 "
       "D:8:64.000000 E:8:64.000000 sink:1:128.000000"},
      {DagKind::Traffic, 8.0,
       "src:1:8.000000 parse:1:8.000000 speed1:1:8.000000 speed2:1:8.000000 "
       "dens1:1:8.000000 dens2:1:8.000000 flow1:1:8.000000 flow2:1:8.000000 "
       "aggregate:3:24.000000 match1:1:8.000000 match2:1:8.000000 "
       "route:1:8.000000 sink:1:32.000000"},
      {DagKind::Traffic, 32.0,
       "src:1:32.000000 parse:4:32.000000 speed1:4:32.000000 "
       "speed2:4:32.000000 dens1:4:32.000000 dens2:4:32.000000 "
       "flow1:4:32.000000 flow2:4:32.000000 aggregate:12:96.000000 "
       "match1:4:32.000000 match2:4:32.000000 route:4:32.000000 "
       "sink:1:128.000000"},
      {DagKind::Grid, 8.0,
       "src:1:8.000000 meter1:1:8.000000 meter2:1:8.000000 "
       "weather1:1:8.000000 weather2:1:8.000000 parse1:1:8.000000 "
       "avg1:1:8.000000 parse2:1:8.000000 avg2:1:8.000000 interp:1:8.000000 "
       "regress:1:8.000000 forecast:1:8.000000 alerts:1:8.000000 "
       "join:2:16.000000 predict:3:24.000000 publish:4:32.000000 "
       "sink:1:32.000000"},
      {DagKind::Grid, 32.0,
       "src:1:32.000000 meter1:4:32.000000 meter2:4:32.000000 "
       "weather1:4:32.000000 weather2:4:32.000000 parse1:4:32.000000 "
       "avg1:4:32.000000 parse2:4:32.000000 avg2:4:32.000000 "
       "interp:4:32.000000 regress:4:32.000000 forecast:4:32.000000 "
       "alerts:4:32.000000 join:8:64.000000 predict:12:96.000000 "
       "publish:16:128.000000 sink:1:128.000000"},
      {DagKind::Keyed, 8.0,
       "src:1:8.000000 parse:6:8.000000 count:8:8.000000 sink:1:8.000000"},
      {DagKind::Keyed, 32.0,
       "src:1:32.000000 parse:6:32.000000 count:8:32.000000 "
       "sink:1:32.000000"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(workloads::to_string(c.kind)) + " at " +
                 std::to_string(c.rate));
    EXPECT_EQ(sizing(workloads::build_dag(c.kind, c.rate), c.rate), c.want);
  }
}

TEST(Topology, AutosizeUsesFractionalSelectivity) {
  // src → half (selectivity 0.5) → {x, y} → sink: x and y see half the
  // source rate; the sink sees both.
  Topology t("sel");
  const TaskId s = t.add_source("s");
  TaskDef def;
  def.name = "half";
  def.selectivity = 0.5;
  const TaskId h = t.add_task(std::move(def));
  const TaskId x = t.add_worker("x");
  const TaskId y = t.add_worker("y");
  const TaskId k = t.add_sink("k");
  t.add_edge(s, h);
  t.add_edge(h, x);
  t.add_edge(h, y);
  t.add_edge(x, k);
  t.add_edge(y, k);
  t.validate();
  EXPECT_EQ(t.autosize_parallelism(40.0), 5 + 3 + 3);
  EXPECT_EQ(sizing(t, 40.0),
            "s:1:40.000000 half:5:40.000000 x:3:20.000000 y:3:20.000000 "
            "k:1:40.000000");
}

TEST(Topology, CriticalPathLength) {
  EXPECT_EQ(testutil::mini_chain().critical_path_length(), 4);
  EXPECT_EQ(testutil::mini_diamond().critical_path_length(), 5);
}

TEST(Topology, ParallelismMustBePositive) {
  Topology t("bad");
  TaskDef def;
  def.name = "w";
  def.parallelism = 0;
  EXPECT_THROW(t.add_task(std::move(def)), TopologyError);
}

TEST(Topology, UnknownIdsThrow) {
  Topology t("x");
  t.add_source("s");
  EXPECT_THROW((void)t.task(TaskId{99}), TopologyError);
  EXPECT_THROW(t.add_edge(TaskId{0}, TaskId{99}), TopologyError);
  EXPECT_THROW((void)t.edge(EdgeId{0}), TopologyError);
}

}  // namespace
}  // namespace rill::dsps
