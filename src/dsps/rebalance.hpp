// The rebalance engine — Storm's `rebalance` command.
//
// Kills the task instances being migrated (dropping their input queues and
// in-memory state, exactly the loss DSM relies on the acker to repair),
// reschedules them onto the target VM set, and rewires the dataflow.  The
// command itself completes after ≈7.26 s (paper §5.1: "remains relatively
// constant across dataflows, VM counts and strategies"), after which each
// respawned worker becomes ready following an additional start-up delay —
// the paper's tasks "waiting to be initialized with INIT events".
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "common/pinned.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "dsps/scheduler.hpp"

namespace rill::dsps {

class Platform;

/// The already-decided new schedule (the paper treats planning as a
/// solved precursor problem; we enact it).
struct MigrationPlan {
  /// VMs that will host the worker instances after migration.  Must be
  /// provisioned before the rebalance is invoked.
  std::vector<VmId> target_vms;
  /// Scheduler used to place instances on the target VMs (Storm default:
  /// round-robin).
  const Scheduler* scheduler{nullptr};
  /// Release the vacated worker VMs once the command completes (scale-in
  /// billing benefit).
  bool release_old_vms{true};
  /// Task-logic upgrades applied when the replacement workers spawn (the
  /// paper's "updating the task logic by re-wiring the DAG on the fly").
  /// Old events drained by DCR run entirely under the old version; events
  /// captured by CCR resume under the new one.
  std::vector<std::pair<TaskId, int>> logic_updates;
  /// When set, only these instances are killed and re-placed; everything
  /// else keeps its current slot (the abort path re-pinning just the
  /// placements whose restore failed).  Absent = all worker instances,
  /// the historical behaviour.
  std::optional<std::vector<InstanceRef>> instances;
};

struct RebalanceRecord {
  SimTime invoked_at{0};
  SimTime killed_at{0};
  SimTime command_completed_at{0};
  int instances_migrated{0};
  std::uint64_t events_lost_in_queues{0};
};

class RILL_PINNED Rebalancer {
 public:
  explicit Rebalancer(Platform& platform);

  /// Enact the plan.  `timeout` reproduces Storm's rebalance timeout
  /// argument: sources are paused for that long before the kill so
  /// in-flight events may drain (the paper uses 0 everywhere, but the
  /// knob exists for the ablation bench).  `on_command_complete` runs when
  /// the command returns — workers may still be starting up at that point.
  void rebalance(const MigrationPlan& plan, SimDuration timeout,
                 std::function<void()> on_command_complete);

  /// Snapshot of where every worker instance currently lives.  Recorded
  /// before a migration so the abort path can re-pin the old placement.
  [[nodiscard]] Placement current_placement() const;

  // ---- FGM fluid migration (StrategyKind::FGM) ----
  /// Phase 1 of a fluid migration: occupy a shadow slot on the target VMs
  /// for every worker instance (plan scheduler, same vacant-slot order as a
  /// kill-based rebalance) and start the shadow workers.  Nothing is killed
  /// and sources never pause.  `on_shadow_ready(ref)` fires per instance
  /// once its shadow worker finished starting up — batch moves may begin.
  /// Instances still carrying fgm state from an aborted attempt resume with
  /// their existing shadow (no second slot, no extra start-up draw).
  void prepare_shadows(const MigrationPlan& plan,
                       std::function<void(InstanceRef)> on_shadow_ready);
  /// Phase 3: every batch moved.  Swaps each executor onto its shadow slot,
  /// vacates the old slots, applies logic updates, adopts the target VM
  /// pool and releases the old VMs.
  void finalize_fluid(const MigrationPlan& plan);
  /// A batch transfer failed: close the command, leaving shadows up and
  /// unmoved ranges on their old slots so a retry resumes incrementally.
  void abort_fluid();

  [[nodiscard]] bool in_progress() const noexcept { return in_progress_; }
  [[nodiscard]] const std::optional<RebalanceRecord>& last() const noexcept {
    return last_;
  }

 private:
  /// The prelude both commands share: the in-progress and scheduler
  /// guards, a fresh RebalanceRecord and the span, whose args are
  /// {target_vms} plus {timeout_sec} when `timeout` is set.
  void begin_command(const MigrationPlan& plan, const char* span_name,
                     std::optional<SimDuration> timeout);
  /// Close the command and its span, appending the arg `key`=`value`.
  void end_command(const char* key, int value);
  /// Rebalance command latency: max(2 s, N(mean, stddev)).
  [[nodiscard]] double draw_command_sec();
  /// The worker start-up model, one delay per worker in placement order:
  /// U(min, max), plus a contention term per worker of the placement on
  /// the same VM, plus — with worker_slow_start_prob — a U(slow_min,
  /// slow_max) straggler tail.
  [[nodiscard]] std::vector<SimDuration> draw_startup_delays(
      const Placement& placement);
  void kill_and_redeploy(const MigrationPlan& plan,
                         std::function<void()> on_command_complete);
  /// Poll (control-plane cadence) until a resumed instance's shadow from a
  /// previous fluid attempt is up, then fire the ready callback.
  void wait_shadow_ready(InstanceRef ref, std::uint64_t epoch,
                         std::function<void(InstanceRef)> ready);

  Platform& platform_;
  bool in_progress_{false};
  std::optional<RebalanceRecord> last_;
  /// Open flight-recorder span for the in-progress command.
  std::uint64_t trace_span_{~0ull};
};

}  // namespace rill::dsps
