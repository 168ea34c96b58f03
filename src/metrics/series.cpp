#include "metrics/series.hpp"

#include <algorithm>
#include <cmath>

#include "common/select_ranks.hpp"

namespace rill::metrics {

namespace {

/// percentile_ms's index rule: ⌊q·n⌋, clamped to n − 1 (n > 0).
std::size_t floor_rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
  return rank >= n ? n - 1 : rank;
}

}  // namespace

void RateSeries::add(SimTime t) {
  const auto sec = static_cast<std::size_t>(t / 1'000'000ull);
  if (sec >= buckets_.size()) buckets_.resize(sec + 1, 0);
  ++buckets_[sec];
  ++total_;
}

std::uint64_t RateSeries::count_at(std::size_t sec) const {
  return sec < buckets_.size() ? buckets_[sec] : 0;
}

double RateSeries::rate_over(std::size_t start_sec, std::size_t len) const {
  if (len == 0) return 0.0;
  std::uint64_t sum = 0;
  for (std::size_t s = start_sec; s < start_sec + len; ++s) sum += count_at(s);
  return static_cast<double>(sum) / static_cast<double>(len);
}

double RateSeries::smoothed_rate(std::size_t sec, std::size_t window) const {
  if (window == 0) return 0.0;
  const std::size_t start = sec + 1 >= window ? sec + 1 - window : 0;
  return rate_over(start, sec - start + 1);
}

std::optional<std::size_t> find_stabilization(const RateSeries& series,
                                              double expected,
                                              std::size_t from_sec) {
  if (expected <= 0.0) return std::nullopt;
  const std::size_t end = series.seconds();
  if (end < kStabilizationWindowSec) return std::nullopt;

  auto stable_at = [&](std::size_t s) {
    const double r = series.smoothed_rate(s, kStabilizationSmoothSec);
    return std::abs(r - expected) <= kStabilizationTolerance * expected;
  };

  std::size_t run = 0;
  for (std::size_t s = from_sec; s < end; ++s) {
    run = stable_at(s) ? run + 1 : 0;
    if (run >= kStabilizationWindowSec) {
      return s + 1 - kStabilizationWindowSec;
    }
  }
  return std::nullopt;
}

void LatencySeries::add(SimTime arrival, SimDuration latency) {
  samples_.push_back(Sample{arrival, latency});
}

std::vector<std::pair<std::size_t, double>> LatencySeries::windowed_avg_ms()
    const {
  std::vector<std::pair<std::size_t, double>> out;
  if (samples_.empty()) return out;

  std::size_t window_start = 0;
  // Accumulate in integer microseconds (R3): latencies are integral and
  // window sums stay far below 2^53, so the mean is exact and the division
  // at the report boundary yields the same bytes regardless of add order.
  std::uint64_t sum_us = 0;
  std::size_t n = 0;
  const auto flush = [&] {
    if (n > 0) {
      out.emplace_back(window_start,
                       time::to_ms(static_cast<SimDuration>(
                           static_cast<double>(sum_us) / static_cast<double>(n))));
    }
  };
  for (const Sample& s : samples_) {
    const std::size_t w =
        static_cast<std::size_t>(s.arrival / 1'000'000ull) / kWindowSec *
        kWindowSec;
    if (w != window_start) {
      flush();
      window_start = w;
      sum_us = 0;
      n = 0;
    }
    sum_us += static_cast<std::uint64_t>(s.latency);
    ++n;
  }
  flush();
  return out;
}

std::optional<double> LatencySeries::median_ms(SimTime from, SimTime to) const {
  return percentile_ms(0.5, from, to);
}

std::vector<SimDuration> LatencySeries::window(SimTime from,
                                               SimTime to) const {
  std::vector<SimDuration> vals;
  for (const Sample& s : samples_) {
    // Inclusive upper bound: the whole-run window ends exactly at the run
    // duration, and a final sink arrival landing on that boundary is a real
    // sample — excluding it reported the previous (stale) window's tail.
    if (s.arrival >= from && s.arrival <= to) vals.push_back(s.latency);
  }
  return vals;
}

std::optional<double> LatencySeries::percentile_ms(double q, SimTime from,
                                                   SimTime to) const {
  if (q <= 0.0 || q >= 1.0) return std::nullopt;
  std::vector<SimDuration> vals = window(from, to);
  if (vals.empty()) return std::nullopt;
  const std::size_t idx = floor_rank_index(vals.size(), q);
  std::nth_element(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(idx),
                   vals.end());
  return time::to_ms(vals[idx]);
}

LatencySeries::Percentiles LatencySeries::report_percentiles_ms(
    SimTime from, SimTime to) const {
  std::vector<SimDuration> vals = window(from, to);
  if (vals.empty()) return {};
  const std::size_t n = vals.size();
  const std::size_t i50 = floor_rank_index(n, 0.50);
  const std::size_t i95 = floor_rank_index(n, 0.95);
  const std::size_t i99 = floor_rank_index(n, 0.99);
  select_ranks(vals, i50, i95, i99);
  return {time::to_ms(vals[i50]), time::to_ms(vals[i95]),
          time::to_ms(vals[i99])};
}

}  // namespace rill::metrics
