// Fig 9: average end-to-end latency over 10 s windows for the scale-in of
// the Grid dataflow, with the A–E phase markers the paper annotates:
//   A→B restore, B→C catchup, C→D recovery, D→E stabilization.
//
// Beyond the paper's three strategies this bench adds the FGM arm (fluid
// key-batched migration): because it never pauses the sources, its latency
// ceiling during the migration should sit orders of magnitude below CCR's
// pause-bounded spike.  `--check` gates exactly that: the FGM whole-run p99
// must come in strictly below CCR's under the 420 s seed-1 config.
#include <cstring>

#include "bench_common.hpp"

using namespace rill;

namespace {

const std::vector<core::StrategyKind> kFig9Strategies = {
    core::StrategyKind::DSM, core::StrategyKind::DCR, core::StrategyKind::CCR,
    core::StrategyKind::FGM};

/// The determinism-gate config: Grid scale-in, seed 1, 420 s run with the
/// migration requested at 60 s (shorter than run_cell's paper default so
/// the gate stays fast).
workloads::ExperimentResult run_check_cell(core::StrategyKind strategy) {
  workloads::ExperimentConfig cfg;
  cfg.dag = workloads::DagKind::Grid;
  cfg.strategy = strategy;
  cfg.scale = workloads::ScaleKind::In;
  cfg.platform.seed = 1;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  return workloads::run_experiment(cfg);
}

int run_check() {
  const auto ccr = run_check_cell(core::StrategyKind::CCR);
  const auto fgm = run_check_cell(core::StrategyKind::FGM);
  if (!fgm.migration_succeeded || !ccr.migration_succeeded) {
    std::fprintf(stderr, "FAIL: migration did not succeed (fgm=%d ccr=%d)\n",
                 fgm.migration_succeeded ? 1 : 0,
                 ccr.migration_succeeded ? 1 : 0);
    return 1;
  }
  if (!fgm.report.latency_p99_ms.has_value() ||
      !ccr.report.latency_p99_ms.has_value()) {
    std::fprintf(stderr, "FAIL: missing whole-run p99\n");
    return 1;
  }
  const double fgm_p99 = *fgm.report.latency_p99_ms;
  const double ccr_p99 = *ccr.report.latency_p99_ms;
  std::printf("fig9 check: whole-run p99 FGM %.1f ms vs CCR %.1f ms\n",
              fgm_p99, ccr_p99);
  if (fgm.report.lost_events != 0 || fgm.report.replayed_messages != 0) {
    std::fprintf(stderr, "FAIL: FGM lost %llu / replayed %llu events\n",
                 static_cast<unsigned long long>(fgm.report.lost_events),
                 static_cast<unsigned long long>(fgm.report.replayed_messages));
    return 1;
  }
  if (!(fgm_p99 < ccr_p99)) {
    std::fprintf(stderr,
                 "FAIL: fluid migration must beat the stop-the-world p99\n");
    return 1;
  }
  std::puts("fig9 check: OK (no pause beats stop-the-world)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) return run_check();

  bench::print_header(
      "Fig 9 — avg latency over 10 s windows, Grid scale-in", "Figure 9");
  for (core::StrategyKind s : kFig9Strategies) {
    obs::LatencyAttributor attributor(16);
    const auto r =
        bench::run_cell(workloads::DagKind::Grid, s, workloads::ScaleKind::In,
                        42, nullptr, 1, &attributor);
    const double req = time::at_sec(r.phases.request_at);
    std::printf("\n--- %s ---\n", std::string(core::to_string(s)).c_str());
    std::printf("markers (s since request): A=0 request, B=%s restore, "
                "C=%s catchup, D=%s recovery, E=%s stabilization\n",
                metrics::fmt_opt(r.report.restore_sec).c_str(),
                metrics::fmt_opt(r.report.catchup_sec).c_str(),
                metrics::fmt_opt(r.report.recovery_sec).c_str(),
                metrics::fmt_opt(r.report.stabilization_sec).c_str());
    // Stable median latency before the migration (the paper's horizontal
    // reference line).
    const auto stable = r.collector.latency().median_ms(
        static_cast<SimTime>(time::sec(60)), r.phases.request_at);
    std::printf("steady median latency: %s ms\n",
                metrics::fmt_opt(stable).c_str());
    // Whole-run percentiles: the p95/p99 tails separate DSM's replay
    // spread from DCR/CCR's pause-bounded latency (and FGM's near-flat
    // profile from all three).
    std::printf("whole-run latency: p50 %s ms, p95 %s ms, p99 %s ms\n",
                metrics::fmt_opt(r.report.latency_p50_ms).c_str(),
                metrics::fmt_opt(r.report.latency_p95_ms).c_str(),
                metrics::fmt_opt(r.report.latency_p99_ms).c_str());
    // Where the tail goes: per-cause attribution over the sampled tuples.
    std::printf("attribution (%llu sampled tuples, 1 in %llu):\n",
                static_cast<unsigned long long>(r.report.sampled_tuples),
                static_cast<unsigned long long>(attributor.sample_every()));
    std::printf("  %-10s %10s %10s %10s %14s\n", "cause", "p50 us", "p95 us",
                "p99 us", "total us");
    for (const auto& cb : r.report.attribution) {
      std::printf("  %-10s %10llu %10llu %10llu %14llu\n", cb.cause.c_str(),
                  static_cast<unsigned long long>(cb.p50_us),
                  static_cast<unsigned long long>(cb.p95_us),
                  static_cast<unsigned long long>(cb.p99_us),
                  static_cast<unsigned long long>(cb.total_us));
    }

    for (const auto& [win_start, avg_ms] :
         r.collector.latency().windowed_avg_ms()) {
      const double t = static_cast<double>(win_start) - req;
      if (t < -30.0 || t > 360.0) continue;
      std::printf("  t=%5.0f s  %8.0f ms  |", t, avg_ms);
      for (int i = 0; i < static_cast<int>(avg_ms / 250.0) && i < 70; ++i) {
        std::putchar('#');
      }
      std::putchar('\n');
    }
  }
  std::puts("\nShape to check: latency balloons during migration (old events"
            " carry their pause/replay delay), DSM returns to the steady"
            " line much later (~+390 s in the paper) than DCR/CCR (~+300 s)"
            " — while FGM never leaves the steady band at all.");
  return 0;
}
