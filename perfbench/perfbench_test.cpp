// Self-test of the benchmark's own computations: the silence metric against
// the collector's per-second output series, seed plumbing, and the
// correctness gate.  Exits 1 when any check fails.
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"

namespace {

using namespace rill;
using namespace rill::perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++g_failures;
}

SimMetrics simulate(const Workload& w, std::uint64_t seed, int experiments) {
  std::vector<ExperimentSummary> runs;
  std::vector<SimDuration> pooled;
  for (int i = 0; i < experiments; ++i) {
    const workloads::ExperimentConfig cfg =
        w.config(experiment_seed(seed, i));
    runs.push_back(summarize(cfg, workloads::run_experiment(cfg), pooled));
  }
  return combine(runs, std::move(pooled));
}

void test_silence_matches_output_series(const Workload& grid) {
  const workloads::ExperimentConfig cfg = grid.config(42);
  const workloads::ExperimentResult r = workloads::run_experiment(cfg);
  const auto gap = longest_silence(r.collector.latency(),
                                   r.collector.request_time().value_or(0));
  check(gap.has_value(), "seed 42 has a silence after the request");
  if (!gap) return;

  // The silence spans whole empty seconds of the per-second sink series,
  // bracketed by non-empty ones.
  const metrics::RateSeries& out = r.collector.output();
  const std::size_t first = gap->last_before / 1'000'000;
  const std::size_t last = gap->first_after / 1'000'000;
  bool empty_between = true;
  for (std::size_t s = first + 1; s < last; ++s) {
    empty_between = empty_between && out.count_at(s) == 0;
  }
  check(out.count_at(first) > 0 && out.count_at(last) > 0,
        "the silence starts and ends in seconds with sink output");
  check(empty_between, "every second inside the silence has no sink output");
  // The longest empty stretch of the series after the request is this one.
  std::size_t longest_run = 0;
  std::size_t run = 0;
  const std::size_t request_sec = *r.collector.request_time() / 1'000'000;
  for (std::size_t s = request_sec; s < out.seconds(); ++s) {
    run = out.count_at(s) == 0 ? run + 1 : 0;
    longest_run = std::max(longest_run, run);
  }
  check(longest_run == last - first - 1,
        "no longer empty stretch exists in the output series");
  std::printf("  seed 42: %llu tuples at second %zu, none until second %zu\n",
              static_cast<unsigned long long>(out.count_at(first)), first, last);
  check(first == 68 && out.count_at(68) == 27 && last == 105,
        "seed 42 reads 27 tuples at second 68, then none until second 105");
}

void test_seed_plumbing(const Workload& grid) {
  check(experiment_seed(7, 0) == 7, "experiment 0 runs on the run's seed");
  check(experiment_seed(7, 1) != experiment_seed(8, 0) &&
            experiment_seed(7, 1) != experiment_seed(7, 2),
        "later experiments get distinct seeds");
  const SimMetrics a = simulate(grid, 1, 1);
  const SimMetrics again = simulate(grid, 1, 1);
  const SimMetrics b = simulate(grid, 2, 1);
  check(a == again, "one seed reproduces every simulated metric exactly");
  check(!(a == b), "another seed changes at least one simulated metric");
  std::printf("  max silence: seed 1 %.1f s, seed 2 %.1f s\n", a.max_silence_s,
              b.max_silence_s);
  check(std::lround(a.max_silence_s * 10) == 371 &&
            std::lround(b.max_silence_s * 10) == 381,
        "grid-ccr max silence is 37.1 s on seed 1 and 38.1 s on seed 2");
}

void test_gate(const Workload& grid) {
  const workloads::ExperimentConfig cfg = grid.config(1);
  std::vector<SimDuration> pooled;
  workloads::ExperimentResult r;
  r.migration_succeeded = true;
  check(summarize(cfg, r, pooled).gate_failures.empty(),
        "a clean result passes the gate");
  r.accounting_violations = 1;
  check(!summarize(cfg, r, pooled).gate_failures.empty(),
        "an accounting violation fails the gate");
  r.accounting_violations = 0;
  r.report.lost_events = 3;
  check(!summarize(cfg, r, pooled).gate_failures.empty(),
        "a lost event under CCR fails the gate");
  r.report.lost_events = 0;
  r.migration_succeeded = false;
  check(!summarize(cfg, r, pooled).gate_failures.empty(),
        "a failed migration fails the gate");
}

}  // namespace

int main() {
  const Workload* grid = find_workload("grid-ccr");
  if (grid == nullptr) return 1;
  test_gate(*grid);
  test_silence_matches_output_series(*grid);
  test_seed_plumbing(*grid);
  std::printf("%s\n", g_failures == 0 ? "ALL OK" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
