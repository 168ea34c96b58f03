// Time-series containers for throughput and latency measurements.
//
// RateSeries buckets event counts per simulated second (the paper's Fig 7
// timeline plots); LatencySeries records (arrival, end-to-end latency)
// samples and derives the windowed averages of Fig 9.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"

namespace rill::metrics {

/// Events-per-second histogram over simulated time.
class RateSeries {
 public:
  /// Record one event at instant `t`.
  void add(SimTime t);

  /// Count in the 1-second bucket starting at `sec`.
  [[nodiscard]] std::uint64_t count_at(std::size_t sec) const;

  /// Number of buckets (== last event second + 1).
  [[nodiscard]] std::size_t seconds() const noexcept { return buckets_.size(); }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Average rate (ev/s) over [start_sec, start_sec + len).
  [[nodiscard]] double rate_over(std::size_t start_sec, std::size_t len) const;

  /// Trailing moving average ending at `sec` over `window` buckets.
  [[nodiscard]] double smoothed_rate(std::size_t sec, std::size_t window) const;

  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_{0};
};

/// The paper's rate-stabilization criterion: the rate, smoothed over a
/// trailing kStabilizationSmoothSec seconds, stays within
/// kStabilizationTolerance (a fraction, ±20 %) of the expected rate for
/// kStabilizationWindowSec (60) consecutive seconds.
inline constexpr std::size_t kStabilizationWindowSec = 60;
inline constexpr double kStabilizationTolerance = 0.2;
inline constexpr std::size_t kStabilizationSmoothSec = 5;

/// Earliest second >= `from_sec` at which the stabilization criterion above
/// holds around `expected`, with the window fully inside the series.
/// Returns the start of the stable window, or nullopt if never stable.
std::optional<std::size_t> find_stabilization(const RateSeries& series,
                                              double expected,
                                              std::size_t from_sec);

/// End-to-end latency samples with windowed aggregation.
class LatencySeries {
 public:
  /// Width of the windows windowed_avg_ms() averages over (Fig 9), seconds.
  static constexpr std::size_t kWindowSec = 10;

  void add(SimTime arrival, SimDuration latency);

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

  /// Average latency (ms) per kWindowSec window: one (window start sec,
  /// avg ms) row per non-empty window.
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> windowed_avg_ms()
      const;

  /// Median latency (ms) of samples arriving in [from, to].
  [[nodiscard]] std::optional<double> median_ms(SimTime from, SimTime to) const;

  /// Arbitrary percentile (0 < q < 1) of samples arriving in [from, to]
  /// (closed: an arrival exactly on the window-end boundary counts): the
  /// sorted value at 0-based index ⌊q·n⌋, clamped to n − 1.  This is not
  /// nearest-rank (obs::nearest_rank): the p50 of 1..100 is 51 here, 50
  /// there.  The report's latency percentiles use this rule and appear in
  /// every determinism manifest, so it stays.  p95/p99 tails make DSM's
  /// replay-induced latency spread visible where the median hides it.
  [[nodiscard]] std::optional<double> percentile_ms(double q, SimTime from,
                                                    SimTime to) const;

  /// The report's p50, p95 and p99: equal to percentile_ms(0.50 / 0.95 /
  /// 0.99, from, to), but from one copy of the window and one selection
  /// pass (rill::select_ranks).  All nullopt for an empty window.
  struct Percentiles {
    std::optional<double> p50;
    std::optional<double> p95;
    std::optional<double> p99;
  };
  [[nodiscard]] Percentiles report_percentiles_ms(SimTime from,
                                                  SimTime to) const;

  struct Sample {
    SimTime arrival;
    SimDuration latency;
  };
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

 private:
  /// Latencies of the samples arriving in [from, to], in arrival order.
  [[nodiscard]] std::vector<SimDuration> window(SimTime from,
                                                SimTime to) const;

  std::vector<Sample> samples_;  // arrival-ordered (arrivals are monotone)
};

}  // namespace rill::metrics
