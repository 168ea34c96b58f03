// Property suite for the reliability invariants (DESIGN.md §7), swept over
// every (DAG × scale × strategy × seed) cell.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill {
namespace {

using core::StrategyKind;
using workloads::DagKind;
using workloads::ScaleKind;

struct Cell {
  DagKind dag;
  ScaleKind scale;
  StrategyKind strategy;
  std::uint64_t seed;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return std::string(workloads::to_string(info.param.dag)) + "_" +
         (info.param.scale == ScaleKind::In ? "in" : "out") + "_" +
         std::string(core::to_string(info.param.strategy)) + "_s" +
         std::to_string(info.param.seed);
}

class ReliabilitySweep : public ::testing::TestWithParam<Cell> {};

TEST_P(ReliabilitySweep, DeliveryGuaranteesHold) {
  const Cell cell = GetParam();
  const auto r = testutil::quick_experiment(cell.dag, cell.strategy,
                                            cell.scale, cell.seed);
  ASSERT_TRUE(r.migration_succeeded);

  // Ignore roots born in the final stretch that may still be in flight
  // when the run ends.
  const SimTime settle = static_cast<SimTime>(time::sec(420) - time::sec(90));

  if (cell.strategy == StrategyKind::DCR ||
      cell.strategy == StrategyKind::CCR) {
    // Exactly-once: zero loss, zero replay, every settled root arrives
    // exactly once per source→sink path.
    EXPECT_EQ(r.report.lost_events, 0u);
    EXPECT_EQ(r.report.replayed_messages, 0u);
    EXPECT_EQ(r.lost_at_kill, 0u);
    EXPECT_EQ(r.post_commit_arrivals, 0u);
    testutil::expect_exactly_once(r, settle);
  } else {
    // DSM: at-least-once.  Losses happen, but every settled origin root
    // reaches the sink at least paths times (replays may duplicate).
    EXPECT_GT(r.report.replayed_messages, 0u);
    testutil::expect_at_least_once(r, settle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ReliabilitySweep,
    ::testing::Values(
        // Every DAG under CCR scale-in (the headline strategy).
        Cell{DagKind::Linear, ScaleKind::In, StrategyKind::CCR, 42},
        Cell{DagKind::Diamond, ScaleKind::In, StrategyKind::CCR, 42},
        Cell{DagKind::Star, ScaleKind::In, StrategyKind::CCR, 42},
        Cell{DagKind::Traffic, ScaleKind::In, StrategyKind::CCR, 42},
        Cell{DagKind::Grid, ScaleKind::In, StrategyKind::CCR, 42},
        // Scale-out coverage.
        Cell{DagKind::Linear, ScaleKind::Out, StrategyKind::CCR, 42},
        Cell{DagKind::Grid, ScaleKind::Out, StrategyKind::CCR, 42},
        // DCR both ways.
        Cell{DagKind::Diamond, ScaleKind::In, StrategyKind::DCR, 42},
        Cell{DagKind::Grid, ScaleKind::In, StrategyKind::DCR, 42},
        Cell{DagKind::Traffic, ScaleKind::Out, StrategyKind::DCR, 42},
        // DSM at-least-once.
        Cell{DagKind::Linear, ScaleKind::In, StrategyKind::DSM, 42},
        Cell{DagKind::Grid, ScaleKind::In, StrategyKind::DSM, 42},
        Cell{DagKind::Star, ScaleKind::Out, StrategyKind::DSM, 42},
        // Seed variation on the trickiest cells.
        Cell{DagKind::Grid, ScaleKind::In, StrategyKind::CCR, 7},
        Cell{DagKind::Grid, ScaleKind::In, StrategyKind::CCR, 1001},
        Cell{DagKind::Grid, ScaleKind::In, StrategyKind::DCR, 7},
        Cell{DagKind::Grid, ScaleKind::In, StrategyKind::DSM, 7}),
    cell_name);

TEST(ReliabilityEdge, HighRateCcrStillExactlyOnce) {
  workloads::ExperimentConfig cfg;
  cfg.dag = DagKind::Linear;
  cfg.strategy = StrategyKind::CCR;
  cfg.scale = ScaleKind::In;
  cfg.platform.source_rate = 16.0;  // double the paper's rate
  cfg.run_duration = time::sec(360);
  cfg.migrate_at = time::sec(60);
  const auto r = workloads::run_experiment(cfg);
  ASSERT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.post_commit_arrivals, 0u);
}

TEST(ReliabilityEdge, DeepLinearDcrDrainsCompletely) {
  workloads::ExperimentConfig cfg;
  cfg.custom_topology = workloads::build_linear_n(50);
  cfg.strategy = StrategyKind::DCR;
  cfg.run_duration = time::sec(360);
  cfg.migrate_at = time::sec(60);
  const auto r = workloads::run_experiment(cfg);
  ASSERT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  // 50 tasks × 100 ms: the drain takes several seconds.
  EXPECT_GT(r.report.drain_sec, 3.0);
}

}  // namespace
}  // namespace rill
