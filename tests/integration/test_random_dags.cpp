// Property sweep over randomly generated layered DAGs: the reliability
// guarantees must hold for topologies nobody hand-tuned.
#include <gtest/gtest.h>

#include <string>

#include "test_util.hpp"

namespace rill {
namespace {

using core::StrategyKind;

TEST(RandomDags, GeneratorProducesValidTopologies) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const dsps::Topology t = workloads::build_random_dag(seed);
    EXPECT_TRUE(t.validated());
    EXPECT_GE(t.worker_instances(), 4);
    EXPECT_GE(workloads::sink_paths(t), 1u);
    // Every worker reachable and co-reachable (validate() enforces), and
    // the critical path is bounded by layers + source + sink.
    EXPECT_LE(t.critical_path_length(), 6);
  }
}

TEST(RandomDags, GeneratorIsDeterministic) {
  const dsps::Topology a = workloads::build_random_dag(99);
  const dsps::Topology b = workloads::build_random_dag(99);
  EXPECT_EQ(a.tasks().size(), b.tasks().size());
  EXPECT_EQ(a.edges().size(), b.edges().size());
  EXPECT_EQ(workloads::sink_paths(a), workloads::sink_paths(b));
}

class RandomDagReliability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagReliability, CcrExactlyOnceOnArbitraryShapes) {
  workloads::ExperimentConfig cfg;
  cfg.custom_topology = workloads::build_random_dag(GetParam());
  cfg.strategy = StrategyKind::CCR;
  cfg.platform.seed = GetParam() * 7 + 1;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  const auto r = workloads::run_experiment(cfg);

  ASSERT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.post_commit_arrivals, 0u);
  SCOPED_TRACE("dag seed " + std::to_string(GetParam()));
  testutil::expect_exactly_once(
      r, static_cast<SimTime>(time::sec(420) - time::sec(90)));
}

TEST_P(RandomDagReliability, DcrDrainsCleanlyOnArbitraryShapes) {
  workloads::ExperimentConfig cfg;
  cfg.custom_topology = workloads::build_random_dag(GetParam() + 1000);
  cfg.strategy = StrategyKind::DCR;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  const auto r = workloads::run_experiment(cfg);

  ASSERT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_FALSE(r.report.recovery_sec.has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagReliability,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull));

}  // namespace
}  // namespace rill
