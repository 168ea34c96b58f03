// Incremental (delta) checkpointing: dirty-key deltas ride the COMMIT
// waves, restores walk the chain back to a full base, compaction bounds the
// chain and garbage-collects superseded blobs — and restores still
// reconstruct the exact committed state, chaos included.
#include <gtest/gtest.h>

#include "chaos/injector.hpp"
#include "test_util.hpp"

namespace rill::dsps {
namespace {

using testutil::Harness;

/// src → parse → count(keyed) → sink with a large, cold keyspace: each
/// event touches one "key/<k>" counter, so between waves only the keys
/// delivered in that window are dirty and deltas stay small.
Topology cold_keyed_chain() {
  Topology t("cold-keyed");
  const TaskId src = t.add_source("src");
  const TaskId parse = t.add_worker("parse");
  TaskDef count;
  count.name = "count";
  count.keyed_state = true;
  const TaskId cnt = t.add_task(std::move(count));
  const TaskId sink = t.add_sink("sink");
  t.add_edge(src, parse);
  t.add_edge(parse, cnt, Grouping::Fields);
  t.add_edge(cnt, sink);
  t.validate();
  return t;
}

PlatformConfig delta_cfg() {
  PlatformConfig cfg;
  cfg.ckpt_delta = true;
  cfg.key_cardinality = 100000;  // round-robin keys never repeat in-test
  return cfg;
}

/// Run one checkpoint to completion with `mode`'s wiring; returns its
/// success verdict.
bool run_wave(Harness& h, CheckpointMode mode = CheckpointMode::Wave) {
  bool done = false, ok = false;
  h.p().coordinator().run_checkpoint(mode, [&](bool success) {
    done = true;
    ok = success;
  });
  h.run_for(time::sec(5));
  EXPECT_TRUE(done);
  return ok;
}

TaskId find_task(const Topology& t, std::string_view name) {
  for (const TaskDef& def : t.tasks()) {
    if (def.name == name) return def.id;
  }
  throw std::logic_error("task not found");
}

TEST(DeltaCheckpoint, SecondWavePersistsADeltaAgainstTheFirst) {
  Harness h(cold_keyed_chain(), delta_cfg());
  h.p().start();
  h.run_for(time::sec(60));
  ASSERT_TRUE(run_wave(h));       // wave 1: no base yet → full
  h.run_for(time::sec(10));       // touch ~80 of ~480 keys
  ASSERT_TRUE(run_wave(h));       // wave 2: small dirty set → delta

  const TaskId cnt = find_task(h.p().topology(), "count");
  const auto raw1 = h.p().store().peek(CheckpointBlob::key(1, cnt, 0));
  const auto raw2 = h.p().store().peek(CheckpointBlob::key(2, cnt, 0));
  ASSERT_TRUE(raw1.has_value());
  ASSERT_TRUE(raw2.has_value());
  EXPECT_EQ(CheckpointBlob::delta_base_of(*raw1), std::nullopt);
  EXPECT_EQ(CheckpointBlob::delta_base_of(*raw2), 1u);
  EXPECT_LT(raw2->size(), raw1->size() / 2);  // the point of the exercise

  const CheckpointStats& cs = h.p().coordinator().stats();
  EXPECT_GE(cs.full_blobs, 1u);
  EXPECT_GE(cs.delta_blobs, 1u);
  EXPECT_GT(cs.delta_bytes, 0u);
  EXPECT_GE(cs.max_chain_len, 1u);
}

TEST(DeltaCheckpoint, HotStateFallsBackToFullBlobs) {
  // mini_chain state is three always-dirty counters: a delta would be as
  // large as the full map, so the ratio guard must keep every blob full.
  Harness h(testutil::mini_chain(), delta_cfg());
  h.p().start();
  h.run_for(time::sec(30));
  ASSERT_TRUE(run_wave(h));
  h.run_for(time::sec(10));
  ASSERT_TRUE(run_wave(h));

  const CheckpointStats& cs = h.p().coordinator().stats();
  EXPECT_EQ(cs.delta_blobs, 0u);
  EXPECT_GE(cs.full_blobs, 2u);
}

TEST(DeltaCheckpoint, RestoreWalksTheChainToItsFullBase) {
  Harness h(cold_keyed_chain(), delta_cfg());
  h.p().start();
  h.run_for(time::sec(60));
  ASSERT_TRUE(run_wave(h));  // 1: full
  h.run_for(time::sec(10));
  ASSERT_TRUE(run_wave(h));  // 2: delta on 1
  h.run_for(time::sec(10));
  h.p().pause_sources();
  h.run_for(time::sec(3));   // drain so the snapshot equals the live state
  ASSERT_TRUE(run_wave(h));  // 3: delta on 2
  ASSERT_EQ(h.p().coordinator().last_committed(), 3u);

  // Wipe every worker, then restore from the chain 3 → 2 → 1.
  std::map<InstanceRef, TaskState> expected;
  for (const InstanceRef& ref : h.p().worker_instances()) {
    expected[ref] = h.p().executor(ref).state();
    Executor& ex = h.p().executor(ref);
    const SlotId slot = ex.slot();
    h.p().cluster().vacate(slot);
    ex.kill();
    ex.respawn(slot);
    h.p().cluster().occupy(slot, ex.id());
    ex.set_ready(/*awaiting_init=*/true);
  }

  bool inited = false;
  h.p().coordinator().run_init(3, CheckpointMode::Wave, time::sec(1),
                               [&](bool ok) { inited = ok; });
  h.run_for(time::sec(10));
  ASSERT_TRUE(inited);
  for (const InstanceRef& ref : h.p().worker_instances()) {
    EXPECT_EQ(h.p().executor(ref).state(), expected[ref])
        << "task " << ref.task.value << " replica " << ref.replica;
  }
  // The keyed worker's chain needed two extra fetches (3→2, 2→1).
  EXPECT_GE(h.p().coordinator().stats().init_chain_fetches, 2u);
}

TEST(DeltaCheckpoint, CompactionForcesFullAndCollectsSupersededBlobs) {
  PlatformConfig cfg = delta_cfg();
  cfg.ckpt_full_every = 3;
  Harness h(cold_keyed_chain(), cfg);
  h.p().start();
  h.run_for(time::sec(60));
  for (std::uint64_t wave = 1; wave <= 5; ++wave) {
    ASSERT_TRUE(run_wave(h));
    h.run_for(time::sec(5));
  }
  const TaskId cnt = find_task(h.p().topology(), "count");

  // Chain layout: 1 full, 2–3 deltas, 4 forced full (every 3rd blob), 5
  // delta on 4.
  const auto raw4 = h.p().store().peek(CheckpointBlob::key(4, cnt, 0));
  const auto raw5 = h.p().store().peek(CheckpointBlob::key(5, cnt, 0));
  ASSERT_TRUE(raw4.has_value());
  ASSERT_TRUE(raw5.has_value());
  EXPECT_EQ(CheckpointBlob::delta_base_of(*raw4), std::nullopt);
  EXPECT_EQ(CheckpointBlob::delta_base_of(*raw5), 4u);

  // Wave 5's persist saw last_committed == 4, whose chain is just {4}:
  // blobs 1–3 are superseded and must be gone from the store.
  EXPECT_FALSE(h.p().store().peek(CheckpointBlob::key(1, cnt, 0)).has_value());
  EXPECT_FALSE(h.p().store().peek(CheckpointBlob::key(2, cnt, 0)).has_value());
  EXPECT_FALSE(h.p().store().peek(CheckpointBlob::key(3, cnt, 0)).has_value());
  EXPECT_GE(h.p().coordinator().stats().gc_deleted, 3u);
  EXPECT_LE(h.p().coordinator().stats().max_chain_len, 2u);
}

TEST(DeltaCheckpoint, RestoreSurvivesAKvOutageMidInit) {
  // A store outage across the INIT window: chain fetches fail, the wave is
  // withheld and re-sent, and once the store recovers the restored state
  // still matches the committed snapshot exactly.
  Harness h(cold_keyed_chain(), delta_cfg());
  chaos::ChaosPlan plan;
  plan.kv_outage(time::sec(84), time::sec(6), -1);
  chaos::ChaosInjector injector(plan, /*seed=*/7);
  injector.arm(h.p());
  h.p().start();
  h.run_for(time::sec(60));
  ASSERT_TRUE(run_wave(h));  // 1: full
  h.run_for(time::sec(10));
  h.p().pause_sources();
  h.run_for(time::sec(3));
  ASSERT_TRUE(run_wave(h));  // 2: delta on 1

  std::map<InstanceRef, TaskState> expected;
  for (const InstanceRef& ref : h.p().worker_instances()) {
    expected[ref] = h.p().executor(ref).state();
    Executor& ex = h.p().executor(ref);
    const SlotId slot = ex.slot();
    h.p().cluster().vacate(slot);
    ex.kill();
    ex.respawn(slot);
    h.p().cluster().occupy(slot, ex.id());
    ex.set_ready(/*awaiting_init=*/true);
  }

  // INIT starts at t = 84 s, dead centre of the outage window: the first
  // fetch attempts are swallowed and only a later re-sent wave restores.
  h.run_for(time::sec(1));
  bool inited = false;
  h.p().coordinator().run_init(2, CheckpointMode::Wave, time::sec(1),
                               [&](bool ok) { inited = ok; });
  h.run_for(time::sec(30));
  ASSERT_TRUE(inited);
  EXPECT_GT(injector.stats().kv_outage_hits, 0u);
  for (const InstanceRef& ref : h.p().worker_instances()) {
    EXPECT_EQ(h.p().executor(ref).state(), expected[ref])
        << "task " << ref.task.value << " replica " << ref.replica;
  }
}

// Migration end-to-end with a delta on the wire: a manual wave first gives
// the JIT checkpoint a base, so the migration commits a *delta* blob and
// the post-kill restore walks the chain — under a store outage at COMMIT.
// State equality is audited by conservation: summed per-key counts across
// replicas must equal the events emitted, despite kill + chain restore.
TEST(DeltaCheckpoint, KeyedStateSurvivesMigrationRestoredFromADelta) {
  for (const core::StrategyKind kind :
       {core::StrategyKind::DCR, core::StrategyKind::CCR}) {
    SCOPED_TRACE(std::string(core::to_string(kind)));
    Harness h(cold_keyed_chain(), delta_cfg());
    chaos::ChaosPlan plan;
    plan.kv_outage(time::sec(41), time::sec(2), -1);
    chaos::ChaosInjector injector(plan, /*seed=*/3);
    injector.arm(h.p());
    auto strategy = core::make_strategy(kind);
    strategy->configure(h.p());
    const CheckpointMode mode = kind == core::StrategyKind::CCR
                                    ? CheckpointMode::Capture
                                    : CheckpointMode::Wave;
    h.p().start();
    h.run_for(time::sec(30));
    ASSERT_TRUE(run_wave(h, mode));  // cid 1: full base for the JIT delta
    h.run_for(time::sec(5));   // now 40 s; migration's COMMIT meets the outage

    const auto target =
        h.p().cluster().provision_n(cluster::VmType::D3, 1, "d3");
    MigrationPlan mplan;
    mplan.target_vms = target;
    mplan.scheduler = &h.scheduler;
    bool done = false;
    strategy->migrate(h.p(), std::move(mplan), [&](bool ok) { done = ok; });
    h.run_for(time::sec(120));
    ASSERT_TRUE(done);
    EXPECT_GE(h.p().coordinator().stats().delta_blobs, 1u);
    EXPECT_GE(h.p().coordinator().stats().init_chain_fetches, 1u);

    h.p().pause_sources();
    h.run_for(time::sec(90));  // drain the post-unpause backlog
    const TaskId cnt = find_task(h.p().topology(), "count");
    std::int64_t sum = 0;
    const TaskState& st = h.p().executor(InstanceRef{cnt, 0}).state();
    for (const auto& [k, v] : st.counters) {
      if (k.rfind("key/", 0) == 0) sum += v;
    }
    const auto emitted =
        h.p().spout(h.p().topology().sources()[0]).stats().emitted;
    EXPECT_EQ(sum, static_cast<std::int64_t>(emitted));
  }
}

// Full-experiment sweep: DCR and CCR migrations with delta checkpointing
// on, under a store outage straddling the JIT COMMIT.  Exactly-once and
// the executor conservation ledger must hold exactly as with full blobs.
TEST(DeltaCheckpoint, MigrationsKeepExactlyOnceUnderChaos) {
  for (const core::StrategyKind strategy :
       {core::StrategyKind::DCR, core::StrategyKind::CCR}) {
    workloads::ExperimentConfig cfg;
    cfg.dag = workloads::DagKind::Grid;
    cfg.strategy = strategy;
    cfg.scale = workloads::ScaleKind::In;
    cfg.platform.seed = 11;
    cfg.platform.ckpt_delta = true;
    cfg.platform.key_cardinality = 5000;
    cfg.run_duration = time::sec(420);
    cfg.migrate_at = time::sec(60);
    cfg.chaos.kv_outage(time::sec(60), time::sec(2), -1);
    const auto r = workloads::run_experiment(cfg);
    SCOPED_TRACE(std::string(core::to_string(strategy)));
    EXPECT_TRUE(r.migration_succeeded);
    EXPECT_EQ(r.report.lost_events, 0u);
    EXPECT_EQ(r.report.replayed_messages, 0u);
    EXPECT_EQ(r.lost_at_kill, 0u);
    EXPECT_EQ(r.post_commit_arrivals, 0u);
    EXPECT_EQ(r.accounting_violations, 0u);
    testutil::expect_exactly_once(r, static_cast<SimTime>(time::sec(300)));
  }
}

}  // namespace
}  // namespace rill::dsps
