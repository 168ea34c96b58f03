#include <gtest/gtest.h>

#include <cstdint>

#include "workloads/scenario.hpp"
#include "workloads/dags.hpp"

namespace rill::workloads {
namespace {

// gtest prints a parameter that has no printer as its raw bytes, and that
// dump is part of each test's listed name. The padding after `dag` is a
// member so those bytes are always zero, not leftover stack contents.
struct Table1Row {
  DagKind dag;
  std::uint8_t pad[3];
  int slots;
  int default_d2;
  int scale_in_d3;
  int scale_out_d1;
};
static_assert(sizeof(Table1Row) == 20, "Table1Row must have no implicit padding");

class Table1Plans : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Plans, MatchesPaperTable1) {
  const Table1Row row = GetParam();
  const VmPlan plan = vm_plan_for(build_dag(row.dag, 8.0));
  EXPECT_EQ(plan.slots, row.slots);
  EXPECT_EQ(plan.default_d2_vms, row.default_d2);
  EXPECT_EQ(plan.scale_in_d3_vms, row.scale_in_d3);
  EXPECT_EQ(plan.scale_out_d1_vms, row.scale_out_d1);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1Plans,
    ::testing::Values(Table1Row{DagKind::Linear, {}, 5, 3, 2, 5},
                      Table1Row{DagKind::Diamond, {}, 8, 4, 2, 8},
                      Table1Row{DagKind::Star, {}, 8, 4, 2, 8},
                      Table1Row{DagKind::Grid, {}, 21, 11, 6, 21},
                      Table1Row{DagKind::Traffic, {}, 13, 7, 4, 13}),
    [](const ::testing::TestParamInfo<Table1Row>& info) {
      return std::string(to_string(info.param.dag));
    });

TEST(Scenario, TargetTypesMatchPaper) {
  EXPECT_EQ(target_vm_type(ScaleKind::In), cluster::VmType::D3);
  EXPECT_EQ(target_vm_type(ScaleKind::Out), cluster::VmType::D1);
}

TEST(Scenario, TargetCountsFollowPlan) {
  const VmPlan plan = vm_plan_for(build_dag(DagKind::Grid, 8.0));
  EXPECT_EQ(target_vm_count(plan, ScaleKind::In), 6);
  EXPECT_EQ(target_vm_count(plan, ScaleKind::Out), 21);
}

TEST(Scenario, SlotCapacityIsPreserved) {
  // "The total number of slots used does not change" — target pools always
  // have at least as many slots as instances.
  for (DagKind dag : all_dags()) {
    const auto topo = build_dag(dag, 8.0);
    const VmPlan plan = vm_plan_for(topo);
    EXPECT_GE(plan.scale_in_d3_vms * 4, plan.slots);
    EXPECT_EQ(plan.scale_out_d1_vms, plan.slots);
    EXPECT_GE(plan.default_d2_vms * 2, plan.slots);
  }
}

TEST(Scenario, NamesRender) {
  EXPECT_EQ(to_string(ScaleKind::In), "scale-in");
  EXPECT_EQ(to_string(ScaleKind::Out), "scale-out");
}

}  // namespace
}  // namespace rill::workloads
