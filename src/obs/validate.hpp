// TraceValidator: reconstructs the paper's §4 drain / rebalance / restore
// durations from the flight-recorder trace alone and cross-checks them
// against the sink-side metrics::Collector report.
//
// The two measurement paths are independent witnesses: the Collector sees
// only sink arrivals, the tracer sees only instrumented control-plane
// events plus the compact sink-arrival log.  If they disagree beyond a
// small tolerance, either the instrumentation or the report math drifted —
// tests treat that as failure, which keeps the tracer honest as a source
// for Fig 7-style timelines.
//
// Reconstruction contract (mirrors workloads::run_experiment):
//  * request_at   = ts of the LAST "strategy"/"request" instant — phases
//                   are re-stamped per attempt, so after abort + retry or a
//                   DSM fallback only the final attempt's stamp counts.
//  * rebalance    = the LAST "rebalance" span: duration is its dur, and
//                   drain is its ts minus request_at.
//  * killed_at    = ts of the LAST "rebalance"/"kill" instant.
//  * restore      = first sink arrival STRICTLY after killed_at, minus
//                   request_at (upper_bound over the sink-arrival log, the
//                   same strictly-after rule as Collector).
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace rill::metrics {
struct MigrationReport;
}

namespace rill::obs {

class Tracer;

struct ReconstructedTimes {
  std::optional<double> request_at_sec;
  std::optional<double> drain_sec;
  std::optional<double> rebalance_sec;
  std::optional<double> restore_sec;
};

class TraceValidator {
 public:
  /// Largest gap, seconds, check() lets a duration differ between the
  /// trace and the report.
  static constexpr double kToleranceSec = 0.5;

  explicit TraceValidator(const Tracer& tracer) : tracer_(tracer) {}

  [[nodiscard]] ReconstructedTimes reconstruct() const;

  /// Compare against a Collector-derived report.  Returns one human-readable
  /// line per divergence beyond kToleranceSec (empty == consistent).
  /// A duration present on one side but missing on the other is a
  /// divergence too.
  [[nodiscard]] std::vector<std::string> check(
      const metrics::MigrationReport& report) const;

  /// Durations (seconds, record order) of the closed kill→restore
  /// "recovery" spans the RecoveryTracker emits on the checkpoint lane.
  /// Tests cross-check these against the tracker's own RecoveryRecords —
  /// the trace and the in-memory records are independent witnesses of the
  /// same windows.
  [[nodiscard]] std::vector<double> recovery_spans_sec() const;

 private:
  const Tracer& tracer_;
};

}  // namespace rill::obs
