#include <gtest/gtest.h>

#include "dsps/topology.hpp"
#include "test_util.hpp"

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
