// Closed-loop SLO-driven autoscaling (ROADMAP item 2).
//
// The AutoscaleController closes the loop the paper leaves open: once per
// decision period it folds the sink arrivals the run's metrics::Collector
// logged since the last tick into an OnlineSloMonitor, samples queue
// depths and source backlogs, and decides whether to move the worker pool
// between three VM tiers —
//
//   Packed (D3, ⌈slots/4⌉ VMs)  ←  Default (D2, ⌈slots/2⌉)  →  Wide (D1, slots)
//
// — and with WHICH migration strategy.  The slot count never changes
// (Table 1); elasticity is re-packing the same instances onto more or
// fewer, bigger or smaller VMs, trading noisy-neighbour dilation against
// cost exactly as the paper's scale-out/in experiments do.
//
// Strategy selection (the paper's §6 "which mechanism when" made code):
//   * scale-out while the SLO is burning and the dataflow holds keyed
//     state → FGM: fluid key-batch moves, no stop-the-world pause;
//   * scale-out otherwise → CCR: fastest checkpoint-assisted restore;
//   * scale-in keyed → FGM as well: the tempting "load is low, a
//     stop-the-world drain is affordable" shortcut is a bug — DCR/CCR
//     pause for the whole restore, and tens of seconds of sink silence
//     burn SLO windows no matter how low the rate is;
//   * scale-in unkeyed → CCR (FGM needs key batches to move fluidly);
//   * if the chosen strategy exhausts its attempts, the underlying
//     MigrationController degrades to DSM — the fallback of last resort.
//
// Guards, in evaluation order: a migration in flight suppresses the
// trigger (counted; the MigrationController runs one at a time), then a
// cooldown window after every trigger absorbs the decision noise while
// the dataflow stabilises.  Hysteresis is asymmetric: scale-out needs
// `scale_out_windows` consecutive violated windows OR a queue-depth
// spike; scale-in needs a (longer) `scale_in_windows` healthy streak AND
// drained queues AND an empty source backlog.
//
// decide() is a pure function of (Signals, AutoscaleConfig) so the policy
// table is unit-testable without a platform.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/pinned.hpp"
#include "common/time.hpp"
#include "core/controller.hpp"
#include "core/strategy.hpp"
#include "dsps/scheduler.hpp"
#include "obs/slo.hpp"
#include "sim/engine.hpp"
#include "workloads/scenario.hpp"

namespace rill::metrics {
class Collector;
}

namespace rill::obs {
class MetricsRegistry;
}

namespace rill::autoscale {

/// Worker-pool packing tiers (Table 1 geometries).
enum class PoolTier : std::uint8_t { Packed, Default, Wide };

[[nodiscard]] std::string_view to_string(PoolTier t) noexcept;

struct AutoscaleConfig {
  /// Master switch; off = the controller never schedules anything and the
  /// run is byte-identical to a controller-less one.
  bool enabled{false};
  /// SLO: per-window p99 target fed to the online monitor.
  std::uint64_t target_p99_us{1'500'000};
  /// SLO window width, seconds of sim time.
  static constexpr std::uint64_t window_sec = 10;
  /// How often the controller wakes up to decide.
  static constexpr SimDuration decision_period = time::sec(5);
  /// Minimum gap after a trigger before the next one.
  SimDuration cooldown{time::sec(60)};
  /// Scale-out hysteresis: consecutive violated windows required.
  static constexpr int scale_out_windows = 2;
  /// Scale-in hysteresis: consecutive healthy windows required.
  static constexpr int scale_in_windows = 9;
  /// Queue-depth watermarks (max over worker executors): at or above
  /// `queue_high` the controller scales out even before the SLO burns;
  /// scale-in additionally requires the max depth at or below `queue_low`.
  static constexpr std::uint64_t queue_high = 40;
  static constexpr std::uint64_t queue_low = 4;
  /// Pin every trigger to one strategy (per-strategy experiment rows);
  /// nullopt = pick per situation (FGM/CCR/DCR table above).
  std::optional<core::StrategyKind> force_strategy;
};

enum class Action : std::uint8_t { None, ScaleOut, ScaleIn };

[[nodiscard]] std::string_view to_string(Action a) noexcept;

/// Everything decide() looks at, gathered once per decision tick.
struct Signals {
  int violated_streak{0};           ///< closed violated windows at the tail
  int ok_streak{0};                 ///< closed healthy windows at the tail
  std::uint64_t queue_depth_max{0}; ///< max executor queue depth
  std::uint64_t backlog{0};         ///< total source backlog
  bool keyed{false};                ///< dataflow holds fields-grouped state
  PoolTier tier{PoolTier::Default};
  bool migrating{false};            ///< a migration is in flight
  bool cooling_down{false};
};

struct Decision {
  Action action{Action::None};   ///< what to do after the guards
  Action desired{Action::None};  ///< pre-guard intent (for suppression stats)
  core::StrategyKind strategy{core::StrategyKind::CCR};
  PoolTier target{PoolTier::Default};
  std::string_view reason;       ///< static string, for traces/tests
};

/// The policy table, pure in its inputs.
[[nodiscard]] Decision decide(const Signals& s, const AutoscaleConfig& cfg);

/// One enacted trigger, for the report and the sweep tests.
struct AutoscaleEvent {
  SimTime at{0};
  Action action{Action::None};
  core::StrategyKind strategy{core::StrategyKind::CCR};
  PoolTier from{PoolTier::Default};
  PoolTier to{PoolTier::Default};
  bool succeeded{false};  ///< filled when the migration's on_done fires
};

struct AutoscaleStats {
  std::uint64_t decisions{0};             ///< decision ticks evaluated
  std::uint64_t scale_outs{0};
  std::uint64_t scale_ins{0};
  std::uint64_t fgm_chosen{0};
  std::uint64_t ccr_chosen{0};
  std::uint64_t dcr_chosen{0};
  std::uint64_t suppressed_cooldown{0};   ///< intents absorbed by cooldown
  std::uint64_t suppressed_busy{0};       ///< intents absorbed by the guard
  std::uint64_t failed{0};                ///< triggers whose migration failed
  std::vector<AutoscaleEvent> events;
};

/// The closed-loop controller.  Reads the sink-arrival log of the run's
/// collector (which must outlive it); call start() after Platform::start().
class RILL_PINNED AutoscaleController {
 public:
  AutoscaleController(dsps::Platform& platform,
                      core::MigrationController& migrations,
                      metrics::Collector& collector, workloads::VmPlan plan,
                      AutoscaleConfig config);

  void start();
  /// Stops the ticks and folds the arrivals logged since the last one.
  void stop();

  [[nodiscard]] const AutoscaleStats& stats() const noexcept { return stats_; }
  [[nodiscard]] obs::OnlineSloMonitor& slo() noexcept { return slo_; }

  /// Export autoscale.* counters into the registry (post-run).
  void export_to(obs::MetricsRegistry& reg) const;

 private:
  /// Record the collector's sink arrivals from index `fed_` on.
  void feed();
  void tick();
  [[nodiscard]] Signals gather();
  void enact(const Decision& d, SimTime now);

  dsps::Platform& platform_;
  core::MigrationController& migrations_;
  metrics::Collector& collector_;
  workloads::VmPlan plan_;
  AutoscaleConfig config_;
  obs::OnlineSloMonitor slo_;
  std::size_t fed_{0};  ///< collector latency samples already recorded
  dsps::RoundRobinScheduler scheduler_;  ///< outlives every enacted plan
  sim::PeriodicTimer timer_;
  PoolTier tier_{PoolTier::Default};
  SimTime cooldown_until_{0};
  /// Completion instant of the last enacted migration.  SLO windows that
  /// started before it are tainted by the migration's own sink silence
  /// (the stop-the-world restore reads as a breach) and must not feed the
  /// next decision's streaks — otherwise every DCR scale-in manufactures
  /// the violated streak that triggers a spurious scale-out (thrash).
  SimTime settled_at_{0};
  bool keyed_{false};
  AutoscaleStats stats_;
};

}  // namespace rill::autoscale
