// FGM, the fluid key-batched migration strategy: no pause, no kill, state
// moves one key-range partition at a time through the store while the
// dataflow keeps running.  These tests pin the strategy's contract —
// exactly-once with zero loss and zero replay, every batch moved exactly
// once, diverted tuples released rather than dropped, and a failed batch
// transfer aborting cleanly with only the unmoved ranges left to resume.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::core {
namespace {

using testutil::expect_exactly_once;
using testutil::quick_experiment;
using workloads::DagKind;
using workloads::ScaleKind;

/// Batches per migrating instance: the configured key ranges plus the
/// reserved (non-keyed) bucket moved last.
std::uint64_t batches_per_instance(const workloads::ExperimentConfig& cfg) {
  return static_cast<std::uint64_t>(cfg.platform.fgm_batch_keys) + 1;
}

/// Roots born before this have settled by the end of the 420 s run.
constexpr auto kSettle =
    static_cast<SimTime>(time::sec(420) - time::sec(120));

TEST(Fgm, NoLossNoReplayNoKill) {
  const auto r = quick_experiment(DagKind::Grid, StrategyKind::FGM,
                                  ScaleKind::In);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_EQ(r.accounting_violations, 0u);
  EXPECT_GT(r.fgm_batches_moved, 0u);
  // The "rebalance" only placed shadow slots: nothing was killed and no
  // queued event was thrown away.
  ASSERT_TRUE(r.rebalance.has_value());
  EXPECT_EQ(r.rebalance->killed_at, 0u);
  EXPECT_EQ(r.rebalance->events_lost_in_queues, 0u);
  expect_exactly_once(r, kSettle);
}

TEST(Fgm, MovesEveryBatchExactlyOnce) {
  workloads::ExperimentConfig cfg;
  cfg.dag = DagKind::Grid;
  cfg.strategy = StrategyKind::FGM;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = 42;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  const auto r = workloads::run_experiment(cfg);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.fgm_batches_moved,
            static_cast<std::uint64_t>(r.worker_instances) *
                batches_per_instance(cfg));
}

TEST(Fgm, OutputNeverGoesSilent) {
  // CCR/DCR pause the sources, so the sink falls silent for tens of
  // seconds.  FGM never pauses: output resumes (continues) essentially
  // immediately after the request.
  const auto r = quick_experiment(DagKind::Grid, StrategyKind::FGM,
                                  ScaleKind::In);
  ASSERT_TRUE(r.report.restore_sec.has_value());
  EXPECT_LT(*r.report.restore_sec, 2.0);
  const auto ccr = quick_experiment(DagKind::Grid, StrategyKind::CCR,
                                    ScaleKind::In);
  ASSERT_TRUE(ccr.report.restore_sec.has_value());
  EXPECT_LT(*r.report.restore_sec, *ccr.report.restore_sec);
}

TEST(Fgm, WorksOnScaleOutToo) {
  const auto r = quick_experiment(DagKind::Star, StrategyKind::FGM,
                                  ScaleKind::Out);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_EQ(r.accounting_violations, 0u);
}

/// src → parse → count(keyed, fieldsGrouping) → sink: the count layer owns
/// per-key "key/<n>" counters, so FGM actually has per-key ranges to move
/// (the stock DAGs only exercise the reserved bucket).
workloads::ExperimentConfig keyed_cfg() {
  workloads::ExperimentConfig cfg;
  cfg.strategy = StrategyKind::FGM;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = 42;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);

  dsps::Topology t("keyed-chain");
  const TaskId src = t.add_source("src");
  const TaskId parse = t.add_worker("parse");
  dsps::TaskDef count;
  count.name = "count";
  count.keyed_state = true;
  const TaskId cnt = t.add_task(std::move(count));
  const TaskId sink = t.add_sink("sink");
  t.add_edge(src, parse);
  t.add_edge(parse, cnt, dsps::Grouping::Fields);
  t.add_edge(cnt, sink);
  t.validate();
  t.autosize_parallelism(cfg.platform.source_rate);
  cfg.custom_topology = std::move(t);
  return cfg;
}

TEST(Fgm, KeyedStateLandsIntactOnShadows) {
  workloads::ExperimentConfig cfg = keyed_cfg();
  const auto r = workloads::run_experiment(cfg);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_EQ(r.accounting_violations, 0u);
  EXPECT_EQ(r.fgm_batches_moved,
            static_cast<std::uint64_t>(r.worker_instances) *
                batches_per_instance(cfg));
  expect_exactly_once(r, kSettle);
}

TEST(Fgm, StoreOutageAbortsThenRetryResumesUnmovedRanges) {
  workloads::ExperimentConfig cfg;
  cfg.dag = DagKind::Linear;
  cfg.strategy = StrategyKind::FGM;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = 42;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  cfg.controller.max_attempts = 2;
  cfg.controller.fallback_to_dsm = false;
  // Shadows come up ~37 s after the request (7 s command + ~30 s worker
  // startup), so the outage must stretch past that to cover the first
  // attempt's batch transfers.  The retry fires after it lifts and resumes
  // from whatever ranges are still unmoved — shadows stay warm in between.
  cfg.chaos.kv_outage(time::sec(60), time::sec(60));

  const auto r = workloads::run_experiment(cfg);

  EXPECT_GT(r.chaos.kv_outage_hits, 0u);
  EXPECT_EQ(r.recovery.attempts, 2);
  EXPECT_EQ(r.recovery.aborted_attempts, 1);
  EXPECT_TRUE(r.migration_succeeded);
  EXPECT_FALSE(r.recovery.fell_back);

  // The abort itself is bloodless: sources never paused, nothing killed,
  // moved ranges stayed moved — so across both attempts every batch still
  // lands exactly once and no event is lost or replayed.
  EXPECT_EQ(r.fgm_batches_moved,
            static_cast<std::uint64_t>(r.worker_instances) *
                batches_per_instance(cfg));
  EXPECT_EQ(r.report.lost_events, 0u);
  EXPECT_EQ(r.report.replayed_messages, 0u);
  EXPECT_EQ(r.lost_at_kill, 0u);
  EXPECT_EQ(r.accounting_violations, 0u);
  expect_exactly_once(r, kSettle);
}

}  // namespace
}  // namespace rill::core
