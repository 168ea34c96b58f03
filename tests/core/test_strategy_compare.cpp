#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "test_util.hpp"

namespace rill::core {
namespace {

using testutil::quick_experiment;
using workloads::DagKind;
using workloads::ScaleKind;

TEST(StrategyFactory, ProducesAllKinds) {
  for (StrategyKind k :
       {StrategyKind::DSM, StrategyKind::DCR, StrategyKind::CCR}) {
    const auto s = make_strategy(k);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), k);
    EXPECT_FALSE(s->name().empty());
  }
}

TEST(StrategyNames, AreStable) {
  EXPECT_EQ(to_string(StrategyKind::DSM), "DSM");
  EXPECT_EQ(to_string(StrategyKind::DCR), "DCR");
  EXPECT_EQ(to_string(StrategyKind::CCR), "CCR");
}

/// The session profile configure() leaves behind.  DSM and DSM-T ack user
/// events and run periodic checkpoints; DCR, CCR and FGM do neither.
class StrategySession : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategySession, ConfigureSetsTheSessionProfile) {
  const StrategyKind k = GetParam();
  const bool dsm = k == StrategyKind::DSM || k == StrategyKind::DSM_T;
  testutil::Harness h(testutil::mini_chain());
  // Start every knob at the opposite value, so configure() must set each.
  h.p().set_user_acking(!dsm);
  if (dsm) {
    h.p().coordinator().stop_periodic();
  } else {
    h.p().coordinator().start_periodic();
  }

  const auto s = make_strategy(k);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), k);
  s->configure(h.p());
  EXPECT_EQ(h.p().user_acking(), dsm);
  EXPECT_EQ(h.p().coordinator().periodic_running(), dsm);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StrategySession,
    ::testing::Values(StrategyKind::DSM, StrategyKind::DSM_T,
                      StrategyKind::DCR, StrategyKind::CCR, StrategyKind::FGM),
    [](const ::testing::TestParamInfo<StrategyKind>& i) {
      std::string name(to_string(i.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// The paper's headline orderings, swept over (DAG × scale) cells.
struct CompareParams {
  workloads::DagKind dag;
  workloads::ScaleKind scale;
};

class StrategyOrdering : public ::testing::TestWithParam<CompareParams> {};

TEST_P(StrategyOrdering, RestoreCcrBelowDcrBelowDsm) {
  const auto [dag, scale] = GetParam();
  const auto dsm = quick_experiment(dag, StrategyKind::DSM, scale);
  const auto dcr = quick_experiment(dag, StrategyKind::DCR, scale);
  const auto ccr = quick_experiment(dag, StrategyKind::CCR, scale);

  ASSERT_TRUE(dsm.report.restore_sec && dcr.report.restore_sec &&
              ccr.report.restore_sec);
  EXPECT_LT(*ccr.report.restore_sec, *dcr.report.restore_sec)
      << workloads::to_string(dag);
  EXPECT_LT(*dcr.report.restore_sec, *dsm.report.restore_sec)
      << workloads::to_string(dag);

  // Reliability column: DSM replays, the others never.
  EXPECT_GT(dsm.report.replayed_messages, 0u);
  EXPECT_EQ(dcr.report.replayed_messages, 0u);
  EXPECT_EQ(ccr.report.replayed_messages, 0u);

  // Recovery exists only for DSM.
  EXPECT_TRUE(dsm.report.recovery_sec.has_value());
  EXPECT_FALSE(dcr.report.recovery_sec.has_value());
  EXPECT_FALSE(ccr.report.recovery_sec.has_value());

  // Rebalance duration is strategy-independent (paper: ≈7.26 s).
  for (const auto* r : {&dsm, &dcr, &ccr}) {
    EXPECT_GT(r->report.rebalance_sec, 5.5);
    EXPECT_LT(r->report.rebalance_sec, 9.5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, StrategyOrdering,
    ::testing::Values(CompareParams{DagKind::Linear, ScaleKind::In},
                      CompareParams{DagKind::Diamond, ScaleKind::In},
                      CompareParams{DagKind::Star, ScaleKind::Out},
                      CompareParams{DagKind::Traffic, ScaleKind::Out},
                      CompareParams{DagKind::Grid, ScaleKind::In}),
    [](const ::testing::TestParamInfo<CompareParams>& info) {
      return std::string(workloads::to_string(info.param.dag)) + "_" +
             (info.param.scale == ScaleKind::In ? "in" : "out");
    });

TEST(StrategyCompare, StabilizationDsmIsWorst) {
  const auto dsm = quick_experiment(DagKind::Grid, StrategyKind::DSM,
                                    ScaleKind::In, 42, time::sec(700),
                                    time::sec(60));
  const auto dcr = quick_experiment(DagKind::Grid, StrategyKind::DCR,
                                    ScaleKind::In, 42, time::sec(700),
                                    time::sec(60));
  const auto ccr = quick_experiment(DagKind::Grid, StrategyKind::CCR,
                                    ScaleKind::In, 42, time::sec(700),
                                    time::sec(60));
  ASSERT_TRUE(dsm.report.stabilization_sec.has_value());
  ASSERT_TRUE(dcr.report.stabilization_sec.has_value());
  ASSERT_TRUE(ccr.report.stabilization_sec.has_value());
  EXPECT_GT(*dsm.report.stabilization_sec, *dcr.report.stabilization_sec);
  EXPECT_LE(*ccr.report.stabilization_sec, *dcr.report.stabilization_sec);
}

TEST(StrategyCompare, DrainTimeGrowsWithCriticalPath) {
  // §5.1: the DCR/CCR drain-time gap is proportional to the DAG's critical
  // path; Linear-50 shows a much larger delta than Linear-5.
  auto drain_for = [](int n, StrategyKind k) {
    workloads::ExperimentConfig cfg;
    cfg.custom_topology = workloads::build_linear_n(n);
    cfg.strategy = k;
    cfg.scale = ScaleKind::In;
    cfg.run_duration = time::sec(300);
    cfg.migrate_at = time::sec(60);
    return workloads::run_experiment(cfg).report.drain_sec;
  };
  const double dcr5 = drain_for(5, StrategyKind::DCR);
  const double ccr5 = drain_for(5, StrategyKind::CCR);
  const double dcr50 = drain_for(50, StrategyKind::DCR);
  const double ccr50 = drain_for(50, StrategyKind::CCR);

  EXPECT_GT(dcr5, ccr5);
  EXPECT_GT(dcr50, ccr50);
  // The delta grows markedly with depth (paper: 0.65 s → 4.35 s).
  EXPECT_GT(dcr50 - ccr50, 3.0 * (dcr5 - ccr5));
}

}  // namespace
}  // namespace rill::core
