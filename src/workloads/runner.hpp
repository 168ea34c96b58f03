// ExperimentRunner: one paper experiment end to end.
//
// Deploys a DAG on the default D2 pool, warms it up, provisions the target
// VMs, enacts the migration with the chosen strategy at `migrate_at`, runs
// to `run_duration` (paper: request at 3 min, 12 min total) and distils a
// MigrationReport plus the raw series/counters the tests and benches use.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autoscale/controller.hpp"
#include "chaos/injector.hpp"
#include "chaos/plan.hpp"
#include "ckpt/policy.hpp"
#include "ckpt/recovery.hpp"
#include "core/controller.hpp"
#include "core/strategy.hpp"
#include "dsps/checkpoint.hpp"
#include "dsps/config.hpp"
#include "dsps/rebalance.hpp"
#include "dsps/topology.hpp"
#include "kvstore/store.hpp"
#include "metrics/collector.hpp"
#include "metrics/report.hpp"
#include "obs/slo.hpp"
#include "workloads/dags.hpp"
#include "workloads/scenario.hpp"
#include "workloads/traffic.hpp"

namespace rill::obs {
class Tracer;
class MetricsRegistry;
class LatencyAttributor;
}  // namespace rill::obs

namespace rill::workloads {

struct ExperimentConfig {
  DagKind dag{DagKind::Grid};
  core::StrategyKind strategy{core::StrategyKind::CCR};
  ScaleKind scale{ScaleKind::In};

  /// Platform constants; `platform.source_rate` drives the workload.
  dsps::PlatformConfig platform{};

  SimDuration run_duration = time::sec(720);
  SimDuration migrate_at = time::sec(180);

  /// Override the DAG with a custom topology (e.g. Linear-50).  The Table-1
  /// VM plan is derived from it.
  std::optional<dsps::Topology> custom_topology;

  /// Recovery supervision: transactional retries and the DSM fallback.
  core::ControllerConfig controller{};

  /// Faults to inject (empty = no chaos, byte-identical to the seed runs).
  chaos::ChaosPlan chaos{};

  /// Adaptive checkpoint policy (tentpole): disabled by default so the
  /// static-interval baseline stays byte-identical.  When enabled the
  /// policy retunes checkpoint_interval / ckpt_full_every /
  /// ckpt_delta_max_ratio at epoch boundaries from measured MTTF/MTTR.
  ckpt::PolicyConfig ckpt_policy{};

  /// Flight recorder: optional span tracer and per-task metrics registry,
  /// owned by the caller.  nullptr = observability off (the default; the
  /// simulation schedule is identical either way).
  obs::Tracer* tracer{nullptr};
  obs::MetricsRegistry* metrics{nullptr};

  /// Per-tuple latency attribution: optional 1-in-N sampler + ledger,
  /// owned by the caller.  Passive (schedules nothing, draws no RNG), so
  /// the event schedule is identical with or without it; the report gains
  /// the per-cause breakdown when attached.
  obs::LatencyAttributor* attributor{nullptr};

  /// Windowed SLO monitoring over the sink-arrival log; computed post-run
  /// and exported as slo.* instruments when `metrics` is attached.
  obs::SloConfig slo{};

  /// Time-varying traffic (diurnal / flash crowds / Zipf keys).  Disabled
  /// by default: the spouts keep their static source_rate and round-robin
  /// keys, byte-identical to every pre-traffic baseline.
  TrafficConfig traffic{};

  /// Closed-loop SLO-driven elasticity.  When enabled the `migrate_at` /
  /// `strategy` / `scale` fields above are ignored — the controller decides
  /// when to migrate, to which tier, and with which strategy.
  autoscale::AutoscaleConfig autoscale{};
};

struct ExperimentResult {
  std::string dag_name;
  core::StrategyKind strategy{};
  ScaleKind scale{};

  metrics::MigrationReport report;
  metrics::Collector collector;
  core::PhaseTimes phases;
  std::optional<dsps::RebalanceRecord> rebalance;

  VmPlan vm_plan;
  int worker_instances{0};
  std::uint64_t sink_paths{0};
  double expected_output_rate{0.0};
  bool migration_succeeded{false};

  // Raw platform aggregates for invariant checks.
  std::uint64_t events_emitted{0};
  std::uint64_t events_lost{0};
  std::uint64_t post_commit_arrivals{0};  ///< CCR invariant, must be 0
  std::uint64_t lost_at_kill{0};          ///< 0 for DCR/CCR
  std::uint64_t transport_overflow{0};    ///< Starting-buffer cap drops
  std::uint64_t fgm_batches_moved{0};     ///< FGM key-batches landed on shadows
  std::uint64_t fgm_diverted{0};          ///< tuples held while their batch flew
  /// Executors whose conservation ledger failed to balance at teardown:
  ///   delivered + init_replays == processed + lost_enqueue + lost_at_kill
  ///                               + transport_overflow + capture_handoff
  ///                               + still-buffered user events.
  /// Every delivered user event must end in exactly one terminal bucket, so
  /// this must be 0 in every run, chaos included.
  std::uint64_t accounting_violations{0};
  std::uint64_t delivered{0};             ///< user events entering enqueue()
  std::uint64_t init_replays{0};          ///< events re-injected by restores
  std::uint64_t capture_handoff{0};       ///< captured events durably handed off
  double billed_cents{0.0};

  // Fault-recovery observability.
  core::RecoveryStats recovery;
  chaos::ChaosStats chaos;
  /// Adaptive-policy decisions (zeros when the policy is disabled).
  ckpt::PolicyStats ckpt_policy;
  /// Closed recovery windows (kill → last INIT-restore completion).
  std::vector<ckpt::RecoveryRecord> recoveries;
  dsps::CheckpointStats checkpoint;
  kvstore::StoreStats store;
  /// Per-shard breakdown of `store` (one entry per store VM; a single
  /// entry for the unsharded baseline).
  std::vector<kvstore::StoreStats> store_shards;
  /// Raw INIT-session instants (the report only carries first_init_sec).
  /// init_completed_at − last_init_attempt_at is the final INIT round trip
  /// (delivery + per-task state fetch + ack) — the segment the sharded
  /// prefetch shortens.
  std::optional<SimTime> first_init_received;
  std::optional<SimTime> init_completed_at;
  std::optional<SimTime> last_init_attempt_at;

  /// Closed-loop controller accounting (zeros when autoscale was off).
  autoscale::AutoscaleStats autoscale;
  /// The controller's SLO series, finalized at run end (autoscale runs
  /// only): closed windows and integer burn rate.
  std::uint64_t slo_windows{0};
  std::uint64_t slo_burn_per_mille{0};
  /// One char per closed window, in order: '.' healthy, 'X' violated.
  std::string slo_strip;
};

/// Run one experiment.  Deterministic for a fixed config (seed included).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace rill::workloads
