// Migration strategies — the paper's primary contribution.
//
// A MigrationStrategy configures the platform's reliability machinery for
// normal operation (acking scope, periodic checkpoints) and then enacts a
// user migration request end to end:
//
//   DSM  (baseline) : rebalance immediately; acking + periodic checkpoints
//                     repair losses afterwards (§2).
//   DSM-T           : DSM whose rebalance first pauses the sources for a
//                     user-estimated timeout (§2).
//   DCR             : pause → drain via PREPARE sweep → JIT COMMIT →
//                     rebalance → INIT (1 s re-sends) → unpause (§3.1).
//   CCR             : pause → broadcast PREPARE, capture in-flight events →
//                     COMMIT sweep persists state + pending lists →
//                     rebalance → broadcast INIT, resume captured events →
//                     unpause (§3.2).
//   FGM             : shadow workers, then keyed state moves one key-range
//                     batch at a time; no pause, no kill.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "common/time.hpp"
#include "dsps/platform.hpp"

namespace rill::core {

enum class StrategyKind : std::uint8_t {
  DSM,    ///< default Storm migration (rebalance timeout 0)
  DSM_T,  ///< Storm migration with a user-estimated rebalance timeout (§2)
  DCR,
  CCR,
  FGM,  ///< fluid key-batched migration: no pause, no kill (Megaphone-style)
};

[[nodiscard]] std::string_view to_string(StrategyKind k) noexcept;

/// Timestamps of the strategy's internal phases, for the §4 metrics.
struct PhaseTimes {
  SimTime request_at{0};
  std::optional<SimTime> checkpoint_started;
  std::optional<SimTime> checkpoint_done;
  std::optional<SimTime> rebalance_invoked;
  std::optional<SimTime> rebalance_completed;
  std::optional<SimTime> init_complete;
  std::optional<SimTime> sources_unpaused;

  /// Transactional abort bookkeeping: the attempt was rolled back either
  /// before anything moved (checkpoint failed) or after the rebalance
  /// (restore failed → re-pinned onto the old placement).
  bool aborted{false};
  std::optional<SimTime> aborted_at;
  std::optional<SimTime> repinned_at;

  /// Abort latency (§4-style recovery metric): abort decision →
  /// sources flowing again on the old placement.
  [[nodiscard]] std::optional<double> abort_latency_sec() const {
    if (!aborted_at || !sources_unpaused) return std::nullopt;
    return time::to_sec(
        static_cast<SimDuration>(*sources_unpaused - *aborted_at));
  }

  /// Drain/Capture duration (§4 metric 2): request → rebalance invocation.
  [[nodiscard]] std::optional<double> drain_sec() const {
    if (!rebalance_invoked) return std::nullopt;
    return time::to_sec(
        static_cast<SimDuration>(*rebalance_invoked - request_at));
  }
};

class MigrationStrategy {
 public:
  virtual ~MigrationStrategy() = default;

  [[nodiscard]] virtual StrategyKind kind() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept {
    return to_string(kind());
  }

  /// Set the platform's session knobs: DSM and DSM-T ack every user event
  /// and run periodic checkpoints, the others do neither.  Call once after
  /// deploy, before start; MigrationController calls it again before every
  /// request, so it is idempotent.
  void configure(dsps::Platform& platform) const;

  /// Enact a migration.  `done(success)` fires when the strategy considers
  /// the migration complete (all tasks initialised and, for DCR/CCR,
  /// sources unpaused).  The plan's scheduler must outlive the migration.
  virtual void migrate(dsps::Platform& platform, dsps::MigrationPlan plan,
                       std::function<void(bool)> done) = 0;

  [[nodiscard]] const PhaseTimes& phases() const noexcept { return phases_; }

 protected:
  /// Start a migration's phase record: reset phases_, stamp request_at and
  /// emit the `request` instant.  Every migrate() opens with this.
  void begin_phases(dsps::Platform& platform);

  PhaseTimes phases_;
};

/// Factory for the paper strategies.  DSM_T gets a default 10 s timeout;
/// use make_dsm_timeout_strategy for a specific estimate.
[[nodiscard]] std::unique_ptr<MigrationStrategy> make_strategy(StrategyKind k);

/// DSM with Storm's rebalance-timeout argument: sources pause for
/// `timeout` before the kill so in-flight events may drain.  The paper
/// (§2) notes users under-estimate (messages lost anyway) or
/// over-estimate (dataflow idles) this value — the ablation bench sweeps it.
[[nodiscard]] std::unique_ptr<MigrationStrategy> make_dsm_timeout_strategy(
    SimDuration timeout);

}  // namespace rill::core
