// Migration report: the paper's §4 metrics for one experiment, plus
// fixed-width table rendering shared by the benches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace rill::metrics {

/// All §4 metrics for one migration run, in seconds relative to the
/// migration request (except where noted).
struct MigrationReport {
  std::string dag;
  std::string strategy;
  std::string scale;

  /// 1) Restore Duration: request → first sink output.
  std::optional<double> restore_sec;
  /// 2) Drain/Capture Duration: request → rebalance invocation (0 for DSM).
  double drain_sec{0.0};
  /// 3) Rebalance Duration: rebalance command invoke → complete.
  double rebalance_sec{0.0};
  /// 4) Catchup time: request → last pre-migration event at the sink.
  std::optional<double> catchup_sec;
  /// 5) Recovery time: request → last replayed event at the sink.
  std::optional<double> recovery_sec;
  /// 6) Rate stabilization: request → start of a 60 s window with output
  /// within ±20 % of expected.
  std::optional<double> stabilization_sec;
  /// 7) Message loss/recovery count: replayed user-event emissions.
  std::uint64_t replayed_messages{0};
  std::uint64_t lost_events{0};

  /// Auxiliary: request → first INIT received by any task (§5.1 analysis).
  std::optional<double> first_init_sec;
  /// End-to-end latency percentiles over the whole run (ms; the sorted
  /// value at 0-based index ⌊q·n⌋, see LatencySeries::percentile_ms).
  /// The tails expose DSM's replay-induced spread where the median hides it.
  std::optional<double> latency_p50_ms;
  std::optional<double> latency_p95_ms;
  std::optional<double> latency_p99_ms;
  /// Expected steady-state output rate (ev/s) at the sinks.
  double expected_output_rate{0.0};

  // ---- fault-recovery metrics (chaos layer) ----
  /// Migration attempts started by the controller (incl. DSM fallback).
  int migration_attempts{1};
  /// Attempts that aborted and rolled back to the old placement.
  int aborted_attempts{0};
  /// The controller degraded to DSM after exhausting its attempts.
  bool fell_back_to_dsm{false};
  /// First abort decision → sources flowing again on the old placement.
  std::optional<double> abort_latency_sec;
  /// Faults the chaos injector armed, and raw fault hits (drops, outage
  /// swallows, delays, crashes).
  int faults_injected{0};
  std::uint64_t fault_hits{0};
  /// Store client retries and checkpoint wave retries absorbed.
  std::uint64_t kv_retries{0};
  std::uint64_t wave_retries{0};

  // ---- per-tuple latency attribution (obs::LatencyAttributor) ----
  /// One row per cause (queue / service / network / pause / chaos):
  /// nearest-rank percentiles over the sampled tuples' per-cause totals.
  /// Integer µs throughout (R3: no float accumulation in reports).  Empty
  /// when no attributor was attached — the JSON then renders byte-identical
  /// to pre-attribution reports.
  struct CauseBreakdown {
    std::string cause;
    std::uint64_t p50_us{0};
    std::uint64_t p95_us{0};
    std::uint64_t p99_us{0};
    std::uint64_t total_us{0};
  };
  std::vector<CauseBreakdown> attribution;
  /// Sampled tuples that completed (reached a sink).
  std::uint64_t sampled_tuples{0};

  // ---- closed-loop autoscaling (autoscale::AutoscaleController) ----
  /// Plain-counter mirror of AutoscaleStats (the metrics layer stays
  /// independent of src/autoscale/).  Absent when the controller was off,
  /// so every pre-autoscale report renders byte-identical.
  struct AutoscaleSummary {
    std::uint64_t decisions{0};
    std::uint64_t scale_outs{0};
    std::uint64_t scale_ins{0};
    std::uint64_t fgm_chosen{0};
    std::uint64_t ccr_chosen{0};
    std::uint64_t dcr_chosen{0};
    std::uint64_t suppressed{0};  ///< cooldown + busy-guard suppressions
    std::uint64_t failed{0};
    std::uint64_t slo_windows{0};         ///< closed SLO windows
    std::uint64_t slo_burn_per_mille{0};  ///< violated / closed, per mille
  };
  std::optional<AutoscaleSummary> autoscale;
};

/// Render a fixed-width text table.  `rows` are pre-formatted cells.
std::string render_table(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows);

/// "12.3" / "-" formatting for optional metrics.
std::string fmt_opt(std::optional<double> v, int precision = 1);
std::string fmt(double v, int precision = 1);

}  // namespace rill::metrics
