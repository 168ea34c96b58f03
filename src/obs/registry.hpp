// Per-task metrics registry: counters, gauges and log-bucketed latency
// histograms.
//
// The tracer (trace.hpp) records *control-plane* happenings — migrations,
// checkpoint waves, faults — whose volume is bounded by protocol activity.
// Data-plane measurements (per-event process/emit latency, queue depths)
// would swamp a trace, so they aggregate here instead: every instrument is
// a fixed-size slot that hot paths update in O(1) with no allocation after
// the first lookup.  Instruments are owned by the registry and handed out
// as stable pointers, so executors cache them once at deploy time.
//
// Histograms bucket by floor(log2(value_us)) with 16 linear sub-buckets
// per log2 bucket: 64*16 slots cover the full uint64 range, and a
// percentile query walks the cumulative counts and returns the
// sub-bucket's upper bound — within 1/16 (6.25%) of the true value, and
// exact for values below 16 — while record() stays a shift + two
// increments with no allocation.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/select_ranks.hpp"

namespace rill::obs {

/// Zero-based index of the nearest-rank q-quantile in an ascending sample
/// of n > 0 values: rank ceil(q·n), clamped to [1, n], less one.
[[nodiscard]] inline std::size_t nearest_rank_index(std::size_t n, double q) {
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

/// Nearest-rank q-quantile of an ascending-sorted sample: the value at
/// rank ceil(q·n), clamped to [1, n].  0 for an empty sample.
[[nodiscard]] inline std::uint64_t nearest_rank(
    const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank_index(sorted.size(), q)];
}

struct NearestRanks {
  std::uint64_t p50{0};
  std::uint64_t p95{0};
  std::uint64_t p99{0};
};

/// The nearest-rank p50, p95 and p99 of `values`, by selection instead of
/// a sort (rill::select_ranks).  Equal to nearest_rank() of the sorted
/// sample; all zero for an empty one.  Reorders `values`.
[[nodiscard]] inline NearestRanks select_nearest_ranks(
    std::vector<std::uint64_t>& values) {
  if (values.empty()) return {};
  const std::size_t n = values.size();
  const std::size_t i99 = nearest_rank_index(n, 0.99);
  const std::size_t i95 = nearest_rank_index(n, 0.95);
  const std::size_t i50 = nearest_rank_index(n, 0.50);
  select_ranks(values, i50, i95, i99);
  return {values[i50], values[i95], values[i99]};
}

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { count_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return count_; }

 private:
  // Named count_, not value_: Gauge::value_ below is a double, and the
  // R3 float-accum lint keys on field names — keep integer accumulators
  // distinguishable from floating-point ones.
  std::uint64_t count_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    if (v > max_) max_ = v;
    ++samples_;
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  double value_{0.0};
  double max_{0.0};
  std::uint64_t samples_{0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;
  /// Linear sub-buckets per log2 bucket; bounds percentile error at 1/16.
  static constexpr int kSubBuckets = 16;

  void record(std::uint64_t value_us) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Upper bound of the log-linear sub-bucket holding the q-quantile
  /// observation (nearest-rank over sub-bucket counts), clamped to the
  /// observed max.  Within 6.25% above the true value; exact below 16.
  /// nullopt when empty or q out of (0, 1].
  [[nodiscard]] std::optional<std::uint64_t> percentile_us(double q) const;
  [[nodiscard]] const std::uint64_t* buckets() const noexcept {
    return buckets_;
  }

 private:
  std::uint64_t buckets_[kBuckets]{};
  std::uint64_t sub_[kBuckets * kSubBuckets]{};
  std::uint64_t count_{0};
  std::uint64_t sum_{0};
  std::uint64_t min_{~0ull};
  std::uint64_t max_{0};
};

/// Named instrument store.  std::map keeps instrument addresses stable
/// across inserts, so `counter("x")` may be cached for the whole run.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter* counter(const std::string& name) {
    return &counters_[name];
  }
  [[nodiscard]] Gauge* gauge(const std::string& name) { return &gauges_[name]; }
  [[nodiscard]] Histogram* histogram(const std::string& name) {
    return &histograms_[name];
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms serialise count/sum/min/max/mean/p50/p95/p99 — the buckets
  /// themselves stay internal.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rill::obs
