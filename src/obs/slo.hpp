// Windowed SLO monitor over the sink-arrival latency log.
//
// Buckets sink arrivals into fixed sim-time windows (default 10 s) and
// computes nearest-rank p50/p95/p99 per window, flags windows whose p99
// exceeds the target, merges consecutive violated windows into violation
// runs, and reports an integer burn rate (violated windows per mille).
//
// Empty windows *between* the first and last arrival are counted as
// violated when a target is set: a migration that silences the sinks for
// 30 s is an SLO breach even though no sample exceeded the target.
//
// The autoscale controller feeds it the collector's log at each tick and
// decides on the closed windows.  After a run, the runner exports the same
// series into --task-metrics JSON (slo.* instruments); rill_trace and
// bench_autoscale rebuild it offline from a trace or an arrival log.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace rill::obs {

class MetricsRegistry;

struct SloConfig {
  /// p99 target per window, µs.  0 disables violation flagging (the
  /// window series is still computed).
  std::uint64_t target_p99_us{0};
  /// Window width, seconds of sim time.
  std::uint64_t window_sec{10};
};

struct SloWindow {
  std::uint64_t start_sec{0};  ///< window start, seconds from sim start
  std::uint64_t count{0};
  std::uint64_t p50_us{0};
  std::uint64_t p95_us{0};
  std::uint64_t p99_us{0};
  bool violated{false};
};

/// A maximal run of consecutive violated windows, [start_sec, end_sec).
struct SloViolation {
  std::uint64_t start_sec{0};
  std::uint64_t end_sec{0};
};

/// The monitor evaluates only *closed* windows, so it can be queried
/// mid-run (the autoscale controller's live signal):
///
///  * a window closes when sim time passes its end (advance_to) or a later
///    sample arrives;
///  * the current, not-yet-elapsed window is never counted — violated or
///    otherwise — since its emptiness (or a low sample count) proves
///    nothing yet;
///  * leading empty windows (before the first sample ever) do not exist:
///    the series starts at the first arrival's window;
///  * empty closed windows after traffic has started count as violated
///    while the run is live (sink silence IS a breach online);
///  * finalize() trims trailing empty windows (the silence past the last
///    arrival is the shutdown, not a breach).
///
/// Samples must arrive in non-decreasing arrival order (the sink feed is
/// causal); a sample implicitly closes every window it has passed.  To
/// build a finished run's series, record every arrival, advance_to(last
/// arrival + one window) so the window holding the last arrival closes,
/// then finalize().
class OnlineSloMonitor {
 public:
  explicit OnlineSloMonitor(SloConfig config);

  /// Feed one sink arrival.  Arrivals must be non-decreasing.
  void record(SimTime arrival, std::uint64_t latency_us);

  /// Close every window whose end lies at or before `now`.
  void advance_to(SimTime now);

  /// Trim trailing empty closed windows (run over; the silence past the
  /// last arrival is the shutdown, not a breach).  Call once at run end.
  void finalize();

  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }
  /// Closed windows so far, oldest first.
  [[nodiscard]] const std::vector<SloWindow>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] std::uint64_t violated_windows() const noexcept;
  /// violated / closed windows, per mille (integer; R3-clean).
  [[nodiscard]] std::uint64_t burn_per_mille() const noexcept;
  /// Consecutive violated windows at the tail of the closed series.
  [[nodiscard]] int violated_streak() const noexcept;
  /// Consecutive non-violated windows at the tail of the closed series.
  [[nodiscard]] int ok_streak() const noexcept;
  /// Maximal runs of consecutive violated closed windows, oldest first.
  [[nodiscard]] std::vector<SloViolation> violations() const;

  /// Export slo.* instruments (counters + per-window percentile
  /// histograms) into the registry.
  void export_to(MetricsRegistry& reg) const;

 private:
  void close_window();

  SloConfig config_;
  std::vector<SloWindow> windows_;       ///< closed windows
  std::vector<std::uint64_t> current_;   ///< latencies in the open window
  std::uint64_t open_start_us_{0};       ///< open window start, µs
  bool opened_{false};                   ///< open_start_us_ is anchored
};

}  // namespace rill::obs
