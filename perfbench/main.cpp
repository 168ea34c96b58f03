// rill_perfbench: one benchmark run of a named workload.
//
//   rill_perfbench --workload grid-ccr --seed 1 --seconds 30 --trace 0
//                  [--commit SHA]
//
// --trace 0 times untraced experiments and prints the end-to-end metrics;
// --trace 1 repeats the workload's experiments with the flight recorder,
// metrics registry and a 1-in-64 latency attributor attached, runs the
// per-layer probes, and prints the per-layer metrics.  Standard output
// carries the environment stamp, then (traced) the probe spans, and last
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Exit status: 0 when every experiment passed its correctness gate, 1 when
// one failed, 2 on a usage error or a build that must not be timed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "obs/attribution.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rill;
using namespace rill::perfbench;

struct Args {
  const Workload* workload{nullptr};
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string commit{"unknown"};
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--commit SHA]\nworkloads:",
               argv0, why.c_str(), argv0);
  for (const Workload& w : all_workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fputc('\n', stderr);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + std::string(arg));
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = find_workload(value);
      if (a.workload == nullptr) {
        usage(argv[0], "unknown workload " + std::string(value));
      }
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage(argv[0], "--seed takes an integer");
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0)) {
        usage(argv[0], "--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage(argv[0], "--trace takes 0 or 1");
      }
      a.trace = value[0] == '1';
    } else if (arg == "--commit") {
      a.commit = value;
    } else {
      usage(argv[0], "unknown option " + std::string(arg));
    }
  }
  if (a.workload == nullptr) usage(argv[0], "--workload is required");
  return a;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::puts(out.c_str());
}

/// Operations are the user events emitted; a gate failure fails them all.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void add(const ExperimentSummary& s) {
    attempted += s.emitted;
    if (s.gate_failures.empty()) return;
    failed += s.emitted;
    std::string why;
    for (const std::string& f : s.gate_failures) why += " " + f;
    std::fprintf(stderr, "GATE FAIL seed %llu:%s\n",
                 static_cast<unsigned long long>(s.seed), why.c_str());
  }
};

struct TimedResult {
  workloads::ExperimentResult result;
  double wall_s{0.0};
  std::uint64_t allocs{0};
};

/// One experiment; the clock and the allocation count cover
/// run_experiment alone.
TimedResult timed_run(const workloads::ExperimentConfig& cfg) {
  const std::uint64_t a0 = heap_stats().allocs;
  const double t0 = wall_now();
  workloads::ExperimentResult r = workloads::run_experiment(cfg);
  const double wall = wall_now() - t0;
  return {std::move(r), wall, heap_stats().allocs - a0};
}

double median(std::vector<double> v) { return nearest_rank(std::move(v), 0.5); }

/// Peak resident set of this process image.  VmHWM, not getrusage: the
/// latter keeps the high-water mark of the process that exec'd us.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// Set-up cost per experiment: the run's experiments with zero simulated
/// duration (topology build, platform construction, deploy, teardown),
/// set up once each and averaged.
double setup_round(const Workload& w, std::uint64_t seed) {
  double total = 0.0;
  for (int i = 0; i < w.experiments; ++i) {
    workloads::ExperimentConfig cfg = w.config(experiment_seed(seed, i));
    cfg.run_duration = 0;
    total += timed_run(cfg).wall_s;
  }
  return total / w.experiments;
}

std::vector<Metric> sim_metrics(const SimMetrics& m) {
  return {{"max_silence_s", m.max_silence_s, "s"},
          {"latency_p50_ms", m.latency_p50_ms, "ms"},
          {"latency_p999_ms", m.latency_p999_ms, "ms"},
          {"slo_burn_permille", m.slo_burn_permille, "permille"},
          {"billed_cents", m.billed_cents, "cents"},
          {"delivered_permille", m.delivered_permille, "permille"}};
}

int run_untraced(const Args& a) {
  constexpr int kSetupsPerRound = 8;
  const Workload& w = *a.workload;
  const auto n = static_cast<std::size_t>(w.experiments);

  // Round 0 runs the experiments that give the simulated metrics; later
  // rounds repeat them until the wall budget is spent.  Other tenants of
  // the host only ever slow an experiment down, so each experiment's
  // fastest repetition is its cost, and throughput is one round's tuples
  // over the sum of those best times.
  std::vector<ExperimentSummary> runs;
  std::vector<SimDuration> pooled;
  std::vector<SimDuration> spill;
  std::vector<double> best(n, 0.0);
  std::vector<double> setups;
  std::uint64_t round_tuples = 0;
  int rounds = 0;
  Tally tally;
  const double start = wall_now();
  for (; rounds == 0 || wall_now() - start < a.seconds; ++rounds) {
    for (std::size_t i = 0; i < n; ++i) {
      const workloads::ExperimentConfig cfg =
          w.config(experiment_seed(a.seed, static_cast<int>(i)));
      const TimedResult t = timed_run(cfg);
      spill.clear();
      ExperimentSummary s =
          summarize(cfg, t.result, rounds == 0 ? pooled : spill);
      if (rounds == 0) {
        best[i] = t.wall_s;
        round_tuples += s.delivered;
        runs.push_back(s);
      } else {
        best[i] = std::min(best[i], t.wall_s);
        if (s.delivered != runs[i].delivered || s.emitted != runs[i].emitted) {
          s.gate_failures.push_back("repeat_diverged");
        }
      }
      tally.add(s);
    }
    // Set-up samples are spread over the whole run, like the experiments.
    for (int k = 0; k < kSetupsPerRound; ++k) {
      setups.push_back(setup_round(w, a.seed));
    }
  }
  const SimMetrics sim = combine(runs, std::move(pooled));
  const double rss_mb = peak_rss_mb();
  const double setup_s = median(setups);

  double best_sum = 0.0;
  for (const double b : best) best_sum += b;
  const double throughput = static_cast<double>(round_tuples) / best_sum;
  std::vector<Metric> metrics = {{"sim_tuples_per_s", throughput, "tuples/s"},
                                 {"setup_s", setup_s, "s"},
                                 {"peak_rss_mb", rss_mb, "MB"}};
  for (Metric& m : sim_metrics(sim)) metrics.push_back(std::move(m));
  std::fprintf(stderr, "%s: %d rounds of %zu experiments, %llu latency samples\n",
               std::string(w.name).c_str(), rounds, n,
               static_cast<unsigned long long>(sim.samples));
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return tally.failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------ traced run

/// Spans recorded around the calls into each layer, written out at the end.
struct Span {
  std::string name;
  double start_s{0.0};
  double end_s{0.0};
  int parent{-1};
};

class SpanLog {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), wall_now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_s = wall_now(); }

  void print() const {
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::string out = "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ',';
      out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
             "\",\"parent\":" + std::to_string(s.parent) +
             ",\"start_s\":" + number(s.start_s - origin) +
             ",\"dur_s\":" + number(s.end_s - s.start_s) + "}";
    }
    std::puts((out + "]}").c_str());
  }

 private:
  std::vector<Span> spans_;
};

/// Simulated per-layer numbers pooled over the traced experiments.
struct LayerAcc {
  std::uint64_t tuples{0};
  std::uint64_t lost_at_kill{0};
  std::uint64_t init_replays{0};
  std::vector<double> cause_ms[obs::kCauseCount];

  std::uint64_t waves{0};
  std::uint64_t wave_retries{0};
  std::uint64_t ckpt_bytes{0};
  std::uint64_t delta_blobs{0};
  std::uint64_t blobs{0};
  std::vector<double> init_rtt_ms;
  std::uint64_t replayed{0};

  std::uint64_t kv_ops{0};
  std::uint64_t kv_bytes{0};
  std::uint64_t kv_puts{0};
  std::uint64_t kv_retries{0};
  std::vector<double> shard_skew;

  std::uint64_t migrations{0};
  std::vector<double> migration_s;
  std::vector<double> drain_s;
  std::vector<double> rebalance_s;
  std::uint64_t aborted{0};
  std::uint64_t fgm_batches{0};
  std::uint64_t fgm_diverted{0};

  std::uint64_t chaos_hits{0};
  std::vector<double> recovery_s;
  std::vector<double> interval_s;

  std::uint64_t scale_outs{0};
  std::uint64_t scale_ins{0};
  std::uint64_t suppressed{0};
  std::vector<double> detect_s;

  std::uint64_t samples{0};
  std::uint64_t records{0};
  int instances{0};

  void add(const workloads::ExperimentConfig& cfg,
           const workloads::ExperimentResult& r, const obs::Tracer& tracer,
           const obs::LatencyAttributor& at) {
    tuples += r.delivered;
    lost_at_kill += r.lost_at_kill;
    init_replays += r.init_replays;
    for (const obs::TupleRecord& t : at.tuples()) {
      for (int c = 0; c < obs::kCauseCount; ++c) {
        cause_ms[c].push_back(static_cast<double>(t.cause_us[c]) / 1e3);
      }
    }

    const dsps::CheckpointStats& ck = r.checkpoint;
    waves += ck.waves_committed;
    wave_retries += ck.wave_retries;
    ckpt_bytes += ck.delta_bytes + ck.full_bytes;
    delta_blobs += ck.delta_blobs;
    blobs += ck.delta_blobs + ck.full_blobs;
    if (r.init_completed_at && r.last_init_attempt_at) {
      init_rtt_ms.push_back(time::to_ms(static_cast<SimDuration>(
          *r.init_completed_at - *r.last_init_attempt_at)));
    }
    replayed += r.report.replayed_messages;

    kv_ops += r.store.puts + r.store.gets + r.store.deletes;
    kv_bytes += r.store.bytes_written + r.store.bytes_read;
    kv_puts += r.store.puts;
    kv_retries += r.store.retries;
    std::uint64_t shard_max = 0;
    std::uint64_t shard_sum = 0;
    for (const kvstore::StoreStats& s : r.store_shards) {
      const std::uint64_t ops = s.puts + s.gets + s.deletes;
      shard_max = std::max(shard_max, ops);
      shard_sum += ops;
    }
    if (shard_sum > 0) {
      shard_skew.push_back(1000.0 * static_cast<double>(shard_max) *
                           static_cast<double>(r.store_shards.size()) /
                           static_cast<double>(shard_sum));
    }

    SimTime requested = 0;
    for (const obs::Tracer::Record& rec : tracer.records()) {
      if (rec.ph != obs::Tracer::Phase::Instant ||
          rec.track != obs::kTrackController ||
          std::string_view(rec.cat) != "controller") {
        continue;
      }
      if (rec.name == "request") requested = rec.ts;
      if (rec.name == "done") {
        ++migrations;
        migration_s.push_back(
            time::to_sec(static_cast<SimDuration>(rec.ts - requested)));
      }
    }
    if (r.phases.rebalance_invoked.has_value()) {
      drain_s.push_back(r.report.drain_sec);
      rebalance_s.push_back(r.report.rebalance_sec);
    }
    aborted += static_cast<std::uint64_t>(r.recovery.aborted_attempts);
    fgm_batches += r.fgm_batches_moved;
    fgm_diverted += r.fgm_diverted;

    chaos_hits += r.chaos.total_hits();
    for (const ckpt::RecoveryRecord& rec : r.recoveries) {
      recovery_s.push_back(time::to_sec(rec.total()));
    }
    interval_s.push_back(time::to_sec(r.ckpt_policy.last_interval > 0
                                          ? r.ckpt_policy.last_interval
                                          : cfg.platform.checkpoint_interval));

    scale_outs += r.autoscale.scale_outs;
    scale_ins += r.autoscale.scale_ins;
    suppressed += r.autoscale.suppressed_cooldown + r.autoscale.suppressed_busy;
    // Detection lag: first scale-out minus the start of the first violated
    // SLO window.  The strip's windows start at the first arrival's window.
    const auto& samples_log = r.collector.latency().samples();
    const std::size_t first_x = r.slo_strip.find('X');
    if (first_x != std::string::npos && !samples_log.empty()) {
      const std::uint64_t width = cfg.autoscale.window_sec * 1'000'000ull;
      const SimTime violated_at = samples_log.front().arrival / width * width +
                                  first_x * width;
      for (const autoscale::AutoscaleEvent& ev : r.autoscale.events) {
        if (ev.action != autoscale::Action::ScaleOut) continue;
        detect_s.push_back(time::to_sec(static_cast<SimDuration>(ev.at)) -
                           time::to_sec(static_cast<SimDuration>(violated_at)));
        break;
      }
    }

    samples += r.collector.latency().size();
    records += tracer.records().size();
    instances = r.worker_instances;
  }

  [[nodiscard]] double cause_p99(obs::Cause c) const {
    return nearest_rank(cause_ms[static_cast<int>(c)], 0.99);
  }

  [[nodiscard]] std::size_t mean_blob_bytes() const {
    if (blobs > 0) return std::max<std::size_t>(ckpt_bytes / blobs, 64);
    if (kv_puts > 0) {
      return std::max<std::size_t>(kv_bytes / kv_puts, 64);
    }
    return 64;
  }
};

int run_traced(const Args& a) {
  const Workload& w = *a.workload;
  const double start = wall_now();
  SpanLog spans;
  const int root = spans.begin("traced_run", -1);
  Tally tally;

  // Each experiment runs untraced (reference wall time, heap allocations,
  // simulated end-to-end metrics), then again with the flight recorder,
  // the registry and a 1-in-64 attributor attached.  Pairing the two keeps
  // host noise out of the overhead ratio; one discarded experiment first
  // warms the heap and caches.
  static_cast<void>(timed_run(w.config(experiment_seed(a.seed, 0))));
  std::vector<ExperimentSummary> plain_runs;
  std::vector<ExperimentSummary> traced_runs;
  std::vector<SimDuration> plain_pool;
  std::vector<SimDuration> traced_pool;
  double plain_wall = 0.0;
  double traced_wall = 0.0;
  std::uint64_t plain_allocs = 0;
  std::uint64_t plain_tuples = 0;
  std::uint64_t heap_peak = 0;
  LayerAcc acc;
  for (int i = 0; i < w.experiments; ++i) {
    workloads::ExperimentConfig cfg =
        w.config(experiment_seed(a.seed, i));
    {
      heap_reset_peak();
      const TimedResult t = timed_run(cfg);
      heap_peak = std::max(heap_peak, heap_stats().peak_bytes);
      plain_wall += t.wall_s;
      plain_allocs += t.allocs;
      plain_tuples += t.result.delivered;
      plain_runs.push_back(summarize(cfg, t.result, plain_pool));
      tally.add(plain_runs.back());
    }
    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    obs::LatencyAttributor attributor(64);
    cfg.tracer = &tracer;
    cfg.metrics = &registry;
    cfg.attributor = &attributor;
    const int span = spans.begin("workloads.run_experiment", root);
    const TimedResult t = timed_run(cfg);
    spans.end(span);
    traced_wall += t.wall_s;
    traced_runs.push_back(summarize(cfg, t.result, traced_pool));
    tally.add(traced_runs.back());
    acc.add(cfg, t.result, tracer, attributor);
  }
  const SimMetrics plain = combine(plain_runs, std::move(plain_pool));
  const SimMetrics traced = combine(traced_runs, std::move(traced_pool));
  bool correct = tally.failed == 0;
  if (!(traced == plain)) {
    // Observability must never perturb the simulation.
    std::fprintf(stderr, "GATE FAIL: tracing changed the simulated metrics\n");
    for (const ExperimentSummary& s : traced_runs) tally.failed += s.emitted;
    correct = false;
  }

  // 3. Probes share what is left of the wall budget.
  ProbeShape shape{w.config(a.seed), acc.instances, acc.mean_blob_bytes()};
  const std::vector<Probe>& probes = all_probes();
  const double left = a.seconds - (wall_now() - start);
  const double budget =
      std::max(0.2, left / static_cast<double>(probes.size()));
  std::vector<Metric> probed;
  for (const Probe& p : probes) {
    const int span = spans.begin(std::string("probe.") + p.layer, root);
    for (Metric& m : p.run(shape, budget)) probed.push_back(std::move(m));
    spans.end(span);
  }
  spans.end(root);

  auto probe = [&probed](const char* name) -> Metric {
    for (const Metric& m : probed) {
      if (m.name == name) return m;
    }
    return {name, 0.0, "ns"};
  };
  auto count = [](const char* name, std::uint64_t v) -> Metric {
    return {name, static_cast<double>(v), "count"};
  };
  const double tuples = static_cast<double>(std::max<std::uint64_t>(plain_tuples, 1));
  const std::vector<Metric> metrics = {
      probe("sim.event_ns"),
      probe("sim.event_allocs"),
      probe("net.send_ns"),
      {"net.transit_ms.p99", acc.cause_p99(obs::Cause::Network), "ms"},
      count("dsps.tuples", acc.tuples),
      probe("dsps.lookup_ns"),
      {"dsps.queue_ms.p99", acc.cause_p99(obs::Cause::Queue), "ms"},
      {"dsps.service_ms.p99", acc.cause_p99(obs::Cause::Service), "ms"},
      count("dsps.lost_at_kill", acc.lost_at_kill),
      count("dsps.init_replays", acc.init_replays),
      probe("dsps.state.update_ns"),
      probe("dsps.state.update_allocs"),
      probe("dsps.state.partition_ns_per_key"),
      count("dsps.checkpoint.waves", acc.waves),
      count("dsps.checkpoint.retries", acc.wave_retries),
      {"dsps.checkpoint.bytes", static_cast<double>(acc.ckpt_bytes), "bytes"},
      {"dsps.checkpoint.delta_permille",
       acc.blobs > 0 ? 1000.0 * static_cast<double>(acc.delta_blobs) /
                           static_cast<double>(acc.blobs)
                     : 0.0,
       "permille"},
      {"dsps.checkpoint.init_rtt_ms", median(acc.init_rtt_ms), "ms"},
      probe("dsps.checkpoint.serde_ns_per_kb"),
      probe("dsps.checkpoint.delta_ns_per_key"),
      probe("dsps.acker.edge_ns"),
      count("dsps.acker.replayed", acc.replayed),
      count("kvstore.ops", acc.kv_ops),
      {"kvstore.bytes", static_cast<double>(acc.kv_bytes), "bytes"},
      count("kvstore.retries", acc.kv_retries),
      {"kvstore.shard_skew_permille", median(acc.shard_skew), "permille"},
      probe("kvstore.op_ns"),
      count("core.migrations", acc.migrations),
      {"core.migration_s", median(acc.migration_s), "s"},
      {"core.drain_s", median(acc.drain_s), "s"},
      {"core.rebalance_s", median(acc.rebalance_s), "s"},
      count("core.aborted", acc.aborted),
      count("core.fgm_batches", acc.fgm_batches),
      count("core.fgm_diverted", acc.fgm_diverted),
      {"core.pause_ms.p99", acc.cause_p99(obs::Cause::Pause), "ms"},
      {"core.divert_ms.p99", acc.cause_p99(obs::Cause::Migration), "ms"},
      count("chaos.hits", acc.chaos_hits),
      count("ckpt.recoveries", acc.recovery_s.size()),
      {"ckpt.recovery_s.p50", median(acc.recovery_s), "s"},
      {"ckpt.recovery_s.max", nearest_rank(acc.recovery_s, 1.0), "s"},
      {"ckpt.interval_s", median(acc.interval_s), "s"},
      count("autoscale.scale_outs", acc.scale_outs),
      count("autoscale.scale_ins", acc.scale_ins),
      count("autoscale.suppressed", acc.suppressed),
      {"autoscale.detect_s", median(acc.detect_s), "s"},
      count("metrics.samples", acc.samples),
      probe("metrics.arrival_ns"),
      {"obs.overhead_permille",
       plain_wall > 0 ? 1000.0 * (traced_wall - plain_wall) / plain_wall : 0.0,
       "permille"},
      count("obs.records", acc.records),
      {"heap.allocs_per_tuple", static_cast<double>(plain_allocs) / tuples,
       "allocs/tuple"},
      {"heap.peak_mb", static_cast<double>(heap_peak) / (1024.0 * 1024.0),
       "MB"},
  };
  spans.print();
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (const auto why = untimeable_build()) {
    std::fprintf(stderr, "%s: refusing to time this build: %s\n", argv[0],
                 why->c_str());
    return 2;
  }
  std::printf("{\"env\":%s}\n", env_json(args.commit).c_str());
  std::fflush(stdout);
  return args.trace ? run_traced(args) : run_untraced(args);
}
