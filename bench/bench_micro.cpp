// google-benchmark micro-suite: hot paths of the simulator substrate.
//
// `bench_micro --check` skips the suite and runs the observability
// overhead gate instead (see run_overhead_check below) — exit 0/1 for CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "dsps/acker.hpp"
#include "dsps/event.hpp"
#include "dsps/state.hpp"
#include "obs/attribution.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace rill;

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      engine.schedule_detached(time::us(i), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

void BM_EngineCancelHeavy(benchmark::State& state) {
  // The ack-timeout pattern: nearly every timer is cancelled before it
  // fires.  Guards the slot store and its free list against regressions —
  // the hash-map predecessor spent most of its time here in rehashing.
  for (auto _ : state) {
    sim::Engine engine;
    const int n = static_cast<int>(state.range(0));
    std::vector<sim::TimerId> timers;
    timers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      timers.push_back(engine.schedule(time::sec(30) + time::us(i), [] {}));
    }
    for (int i = 0; i < n; ++i) {
      if (i % 16 != 0) engine.cancel(timers[static_cast<std::size_t>(i)]);
    }
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineCancelHeavy)->Arg(1000)->Arg(100000);

void BM_EngineSlotReuse(benchmark::State& state) {
  // Steady-state schedule/fire churn on one engine: slots must recycle
  // through the free list without the slot store adding chunks.
  sim::Engine engine;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      engine.schedule_detached(time::us(1), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EngineSlotReuse);

// Delays of the hold model below: intra-VM transit (150 µs), inter-VM
// transit with jitter (1.2-1.5 ms) and the tasks' 100 ms service time.
constexpr SimDuration kHoldDelays[] = {
    time::us(150),  time::us(150),  time::us(1200), time::us(1300),
    time::us(1400), time::us(1500), time::ms(100),  time::ms(100)};

/// One hold-model event: it carries a tuple and, when it fires, schedules
/// its successor, so the queue stays at the depth it started with.
struct HoldEvent {
  sim::Engine* engine;
  std::uint64_t* fired;
  dsps::Event ev;
  void operator()() {
    ++*fired;
    ev.id = ev.id * 6364136223846793005ull + 1442695040888963407ull;
    engine->schedule_detached(kHoldDelays[(ev.id >> 33) % std::size(kHoldDelays)],
                              HoldEvent{engine, fired, ev});
  }
};

void BM_EngineHold(benchmark::State& state) {
  // The classic hold model at the queue depths the workloads run at: 17
  // pending on the keyed workloads, a mean of 75 and a peak of 261 on
  // grid-ccr, and 4096 to show the trend.  Each iteration fires one event.
  sim::Engine engine;
  std::uint64_t fired = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dsps::Event ev;
    ev.id = static_cast<EventId>(i + 1);
    engine.schedule_detached(kHoldDelays[static_cast<std::size_t>(i) %
                                         std::size(kHoldDelays)],
                             HoldEvent{&engine, &fired, ev});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineHold)->Arg(17)->Arg(75)->Arg(261)->Arg(4096);

void BM_AckerAddAck(benchmark::State& state) {
  sim::Engine engine;
  dsps::AckerService acker(engine, time::sec(30));
  Rng rng(7);
  for (auto _ : state) {
    const RootId root = rng.next();
    acker.register_root(root, [](RootId) {}, [](RootId) {});
    EventId prev = root;
    for (int hop = 0; hop < 16; ++hop) {
      const EventId child = rng.next();
      acker.add(root, child);
      acker.ack(root, prev);
      prev = child;
    }
    acker.ack(root, prev);
  }
  state.SetItemsProcessed(state.iterations() * 17);
}
BENCHMARK(BM_AckerAddAck);

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_CheckpointBlobSerde(benchmark::State& state) {
  dsps::CheckpointBlob blob;
  blob.checkpoint_id = 3;
  blob.state["processed"] = 123456;
  blob.state["sig"] = -42;
  blob.pending.resize(static_cast<std::size_t>(state.range(0)));
  for (auto& ev : blob.pending) {
    ev.id = 1;
    ev.root = 2;
    ev.origin = 2;
  }
  for (auto _ : state) {
    const Bytes raw = blob.serialize();
    const auto back = dsps::CheckpointBlob::deserialize(raw);
    benchmark::DoNotOptimize(back.pending.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointBlobSerde)->Arg(16)->Arg(256);

void BM_FullExperiment(benchmark::State& state) {
  // Wall-clock cost of one complete 420-simulated-second migration
  // experiment — the unit of work every figure bench runs repeatedly.
  for (auto _ : state) {
    workloads::ExperimentConfig cfg;
    cfg.dag = workloads::DagKind::Grid;
    cfg.strategy = core::StrategyKind::CCR;
    cfg.run_duration = time::sec(420);
    cfg.migrate_at = time::sec(60);
    const auto r = workloads::run_experiment(cfg);
    benchmark::DoNotOptimize(r.collector.sink_arrivals());
  }
}
BENCHMARK(BM_FullExperiment)->Unit(benchmark::kMillisecond);

void BM_FullExperimentTraced(benchmark::State& state) {
  // Same experiment with the flight recorder attached.  Compare against
  // BM_FullExperiment: the delta is the tracing overhead; the untraced
  // number must not move when tracing code is merely compiled in.
  for (auto _ : state) {
    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    workloads::ExperimentConfig cfg;
    cfg.dag = workloads::DagKind::Grid;
    cfg.strategy = core::StrategyKind::CCR;
    cfg.run_duration = time::sec(420);
    cfg.migrate_at = time::sec(60);
    cfg.tracer = &tracer;
    cfg.metrics = &registry;
    const auto r = workloads::run_experiment(cfg);
    benchmark::DoNotOptimize(tracer.records().size());
    benchmark::DoNotOptimize(r.collector.sink_arrivals());
  }
}
BENCHMARK(BM_FullExperimentTraced)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- --check

/// One CCR grid scale-in experiment; the run_experiment schedule is fully
/// deterministic, so every variant sees identical simulated work.
workloads::ExperimentResult check_run(obs::Tracer* tracer,
                                      obs::MetricsRegistry* metrics,
                                      obs::LatencyAttributor* attributor) {
  workloads::ExperimentConfig cfg;
  cfg.dag = workloads::DagKind::Grid;
  cfg.strategy = core::StrategyKind::CCR;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  cfg.tracer = tracer;
  cfg.metrics = metrics;
  cfg.attributor = attributor;
  return workloads::run_experiment(cfg);
}

/// Wall-clock of one call, milliseconds.
template <typename F>
double time_ms(F&& body) {
  // lint: wallclock-ok(overhead gate measures real elapsed time; the
  // measured simulation itself draws no wall clock)
  const auto t0 = std::chrono::steady_clock::now();
  body();
  // lint: wallclock-ok(see above)
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Observability overhead gate:
///   1. correctness — attaching a 1-in-64 attributor must not perturb the
///      run (zero-cost contract): sink-arrival count and latency
///      percentiles are identical with and without it;
///   2. disabled cost — tracer+sampler compiled in but not attached stays
///      within noise of the plain run;
///   3. sampling cost — tracing + 1-in-64 attribution costs < 5% over
///      tracing alone (plus fixed slack to ride out scheduler noise).
int run_overhead_check() {
  int failures = 0;

  // 1. Zero-perturbation: identical simulated outcomes.
  const workloads::ExperimentResult plain = check_run(nullptr, nullptr, nullptr);
  {
    obs::LatencyAttributor at(64);
    const workloads::ExperimentResult attr = check_run(nullptr, nullptr, &at);
    const bool same_arrivals = plain.collector.sink_arrivals() ==
                               attr.collector.sink_arrivals();
    const bool same_p99 =
        plain.report.latency_p99_ms == attr.report.latency_p99_ms;
    if (!same_arrivals || !same_p99) {
      std::printf("FAIL: attaching the attributor perturbed the run "
                  "(arrivals %s, p99 %s)\n",
                  same_arrivals ? "ok" : "DIFFER", same_p99 ? "ok" : "DIFFER");
      ++failures;
    } else {
      std::printf("ok: attributor attach is schedule-neutral "
                  "(%llu arrivals, %llu sampled tuples)\n",
                  static_cast<unsigned long long>(
                      plain.collector.sink_arrivals()),
                  static_cast<unsigned long long>(at.tuples().size()));
    }
    if (at.tuples().empty()) {
      std::printf("FAIL: 1-in-64 sampling produced no tuples\n");
      ++failures;
    }
  }

  // 2/3. Timing.  Fixed slack absorbs machine noise on small absolute
  // numbers; the ratio is the contract.  The repetitions run round-robin
  // (plain, traced, sampled, disabled, three times) and each configuration
  // keeps its best, so one burst of host noise costs at most one sample of
  // each instead of a whole configuration's block.
  constexpr int kPlain = 0, kTraced = 1, kSampled = 2, kDisabled = 3;
  const std::array<void (*)(), 4> configs = {
      [] {
        const auto r = check_run(nullptr, nullptr, nullptr);
        benchmark::DoNotOptimize(r.collector.sink_arrivals());
      },
      [] {
        obs::Tracer tracer;
        obs::MetricsRegistry registry;
        const auto r = check_run(&tracer, &registry, nullptr);
        benchmark::DoNotOptimize(r.collector.sink_arrivals());
        benchmark::DoNotOptimize(tracer.records().size());
      },
      [] {
        obs::Tracer tracer;
        obs::MetricsRegistry registry;
        obs::LatencyAttributor at(64);
        const auto r = check_run(&tracer, &registry, &at);
        benchmark::DoNotOptimize(r.collector.sink_arrivals());
        benchmark::DoNotOptimize(at.tuples().size());
      },
      [] {
        // Tracer and registry constructed but NOT attached: the data plane
        // pays only its nullptr guards.
        obs::Tracer tracer;
        obs::MetricsRegistry registry;
        const auto r = check_run(nullptr, nullptr, nullptr);
        benchmark::DoNotOptimize(r.collector.sink_arrivals());
      }};
  std::array<double, 4> best;
  best.fill(1e300);
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      best[c] = std::min(best[c], time_ms(configs[c]));
    }
  }
  const double base_ms = best[kPlain];
  const double traced_ms = best[kTraced];
  const double sampled_ms = best[kSampled];
  const double disabled_ms = best[kDisabled];
  std::printf("timing (best of 3, interleaved): plain %.1f ms, traced %.1f "
              "ms, traced+1/64-sampled %.1f ms, disabled %.1f ms\n",
              base_ms, traced_ms, sampled_ms, disabled_ms);

  // Disabled observability within noise of plain: 10% + 20 ms slack.
  if (disabled_ms > base_ms * 1.10 + 20.0) {
    std::printf("FAIL: disabled observability costs %.1f ms vs plain "
                "%.1f ms (> 10%% + 20 ms)\n",
                disabled_ms, base_ms);
    ++failures;
  } else {
    std::printf("ok: disabled observability within noise of plain "
                "(%.1f ms vs %.1f ms)\n", disabled_ms, base_ms);
  }

  // 1-in-64 sampling < 5% over tracing alone (+10 ms slack).
  if (sampled_ms > traced_ms * 1.05 + 10.0) {
    std::printf("FAIL: 1-in-64 attribution costs %.1f ms vs traced "
                "%.1f ms (> 5%% + 10 ms)\n",
                sampled_ms, traced_ms);
    ++failures;
  } else {
    std::printf("ok: 1-in-64 attribution within 5%% of traced "
                "(%.1f ms vs %.1f ms)\n", sampled_ms, traced_ms);
  }

  std::printf("%s\n", failures == 0 ? "OVERHEAD CHECK PASSED"
                                    : "OVERHEAD CHECK FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) return run_overhead_check();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
