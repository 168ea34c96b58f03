// Repository benchmark: the workloads, the per-experiment correctness gate,
// the simulated end-to-end metrics and the per-layer probes.
//
// Everything runs through the public API: experiments go through
// workloads::run_experiment and are read back from ExperimentResult, the
// flight recorder, the metrics registry and the latency attributor; the
// probes time calls into each layer's public functions from here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "metrics/series.hpp"
#include "workloads/runner.hpp"

namespace rill::perfbench {

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  /// Experiments pooled into one run's simulated metrics.  Fixed per
  /// workload, so a seed reproduces them exactly whatever the wall budget.
  int experiments{1};
  /// One experiment on platform seed `seed`; `slo.target_p99_us` is the
  /// per-window p99 target of the slo_burn_permille metric.
  workloads::ExperimentConfig (*config)(std::uint64_t seed){nullptr};
};

[[nodiscard]] const std::vector<Workload>& all_workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Platform seed of experiment `i` of a run: experiment 0 uses the run's
/// seed itself, later ones step by the 64-bit golden ratio.  Nothing else
/// feeds an experiment's randomness.
[[nodiscard]] std::uint64_t experiment_seed(std::uint64_t run_seed, int i);

// ------------------------------------------------ per-experiment summaries

/// Two consecutive sink arrivals with nothing in between.
struct Silence {
  SimTime last_before{0};
  SimTime first_after{0};
  [[nodiscard]] SimDuration length() const noexcept {
    return static_cast<SimDuration>(first_after - last_before);
  }
};

/// The longest gap between consecutive sink arrivals that ends after
/// `after` (the first migration request).  nullopt when fewer than two
/// arrivals qualify.
[[nodiscard]] std::optional<Silence> longest_silence(
    const metrics::LatencySeries& latency, SimTime after);

struct ExperimentSummary {
  std::uint64_t seed{0};
  std::uint64_t delivered{0};
  std::uint64_t emitted{0};
  std::uint64_t lost{0};
  double max_silence_s{0.0};
  std::uint64_t slo_windows{0};
  std::uint64_t slo_violated{0};
  double billed_cents{0.0};
  /// Invariants this experiment broke; empty when it passed the gate.
  std::vector<std::string> gate_failures;
};

/// Distils one experiment, checks its invariants and appends its sink
/// latencies (µs) to `pooled`.
[[nodiscard]] ExperimentSummary summarize(
    const workloads::ExperimentConfig& cfg,
    const workloads::ExperimentResult& r, std::vector<SimDuration>& pooled);

/// The six simulated end-to-end metrics of a run, deterministic per seed.
struct SimMetrics {
  double max_silence_s{0.0};
  double latency_p50_ms{0.0};
  double latency_p999_ms{0.0};
  double slo_burn_permille{0.0};
  double billed_cents{0.0};
  double delivered_permille{0.0};
  std::uint64_t samples{0};

  friend bool operator==(const SimMetrics&, const SimMetrics&) = default;
};

[[nodiscard]] SimMetrics combine(const std::vector<ExperimentSummary>& runs,
                                 std::vector<SimDuration> pooled);

/// Nearest-rank percentile of an unsorted sample (0 when empty).
[[nodiscard]] double nearest_rank(std::vector<double> v, double q);

// ---------------------------------------------------------------- probes

/// What the probes need from the traced experiments.
struct ProbeShape {
  workloads::ExperimentConfig config;  ///< DAG, key and shard counts, seed
  int instances{0};                    ///< worker instances of the DAG
  std::size_t blob_bytes{64};          ///< mean persisted checkpoint blob
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// One timed probe: runs for about `budget_s` wall seconds.
struct Probe {
  const char* layer;
  std::vector<Metric> (*run)(const ProbeShape&, double budget_s);
};

[[nodiscard]] const std::vector<Probe>& all_probes();

// ---------------------------------------------------------------- heap

/// Counters kept by the benchmark's global operator new/delete hook.
struct HeapStats {
  std::uint64_t allocs{0};
  std::uint64_t live_bytes{0};
  std::uint64_t peak_bytes{0};
};
[[nodiscard]] HeapStats heap_stats() noexcept;
/// Restarts the peak at the current live size.
void heap_reset_peak() noexcept;

// ---------------------------------------------------------------- env

/// Compiler, build type, processor count and commit, as a JSON object.
[[nodiscard]] std::string env_json(const std::string& commit);
/// Why this build must not be timed (no NDEBUG, a sanitizer), or nullopt.
[[nodiscard]] std::optional<std::string> untimeable_build();

/// Monotonic wall clock in seconds.
[[nodiscard]] double wall_now();

}  // namespace rill::perfbench
