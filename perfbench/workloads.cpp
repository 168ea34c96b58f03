#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "obs/slo.hpp"

namespace rill::perfbench {

namespace {

constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kSloWindowSec = 10;

workloads::ExperimentConfig grid_ccr(std::uint64_t seed) {
  // The paper's Grid scale-in under CCR at 4x its 8 ev/s.  32 ev/s is the
  // highest multiple at which the backlog paused during the migration still
  // drains at backlog_pump_rate; at 40 ev/s the p50 jumps from 1.0 s to 6 s.
  workloads::ExperimentConfig cfg;
  cfg.dag = workloads::DagKind::Grid;
  cfg.strategy = core::StrategyKind::CCR;
  cfg.scale = workloads::ScaleKind::In;
  cfg.platform.seed = seed;
  cfg.platform.source_rate = 32.0;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  // The steady p99 is 1.79 s; a 1.5 s target would burn every window.
  cfg.slo.target_p99_us = 3'000'000;
  return cfg;
}

workloads::ExperimentConfig keyed_storm(std::uint64_t seed) {
  // bench_ckpt_policy's crash storm moved onto keyed state: DSM with delta
  // checkpoints on a 4-shard store, the adaptive policy and respawn-restore,
  // seven worker kills 62 s apart.
  workloads::ExperimentConfig cfg;
  cfg.dag = workloads::DagKind::Keyed;
  cfg.strategy = core::StrategyKind::DSM;
  cfg.scale = workloads::ScaleKind::In;
  cfg.platform.seed = seed;
  cfg.platform.source_rate = 20.0;
  cfg.platform.key_cardinality = 4096;
  cfg.platform.kv_shards = 4;
  cfg.platform.ckpt_delta = true;
  cfg.platform.checkpoint_interval = time::sec(15);
  cfg.platform.respawn_restore = true;
  cfg.platform.backlog_pump_rate = 80.0;
  cfg.run_duration = time::sec(600);
  cfg.migrate_at = time::sec(60);
  cfg.ckpt_policy.enabled = true;
  cfg.ckpt_policy.rto = time::sec(45);
  cfg.ckpt_policy.retune_epoch = time::sec(20);
  for (int i = 0; i < 7; ++i) {
    cfg.chaos.crash_worker(time::sec(182) +
                           static_cast<SimTime>(i) * time::sec(62));
  }
  cfg.slo.target_p99_us = 1'500'000;
  return cfg;
}

workloads::ExperimentConfig keyed_autoscale(std::uint64_t seed) {
  // bench_autoscale's controller arm with the Zipf skew raised to 1.2, the
  // hot-key condition the closed loop loses on today.
  workloads::ExperimentConfig cfg;
  cfg.dag = workloads::DagKind::Keyed;
  cfg.platform.seed = seed;
  cfg.platform.vm_steal_permille = 600;
  cfg.run_duration = time::sec(900);
  cfg.traffic.enabled = true;
  cfg.traffic.base_rate = 2.0;
  cfg.traffic.diurnal_amplitude = 0.5;
  cfg.traffic.diurnal_period_sec = 600.0;
  cfg.traffic.crowds.push_back({/*at=*/200.0, /*ramp=*/15.0, /*hold=*/120.0,
                                /*fall=*/30.0, /*multiplier=*/18.0});
  cfg.traffic.zipf_s = 1.2;
  cfg.autoscale.enabled = true;
  cfg.autoscale.target_p99_us = 1'500'000;
  cfg.slo.target_p99_us = cfg.autoscale.target_p99_us;
  return cfg;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"grid-ccr", /*experiments=*/8, grid_ccr},
      {"keyed-storm", /*experiments=*/16, keyed_storm},
      {"keyed-autoscale", /*experiments=*/64, keyed_autoscale},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t experiment_seed(std::uint64_t run_seed, int i) {
  return run_seed + static_cast<std::uint64_t>(i) * kGoldenGamma;
}

// MigrationReport::restore_sec is not used for the silence metric.  It
// runs from the kill (or the request) to the FIRST sink arrival after it,
// so a trickle of drained tuples ends it early: on grid-ccr seed 1 it
// reads 8.1 s, after which the sink goes silent for 37.1 s.  With several
// migrations it mixes instants of different ones: on keyed-autoscale
// seed 1 it subtracts the last request (750 s) from the first arrival
// after the first request (90 s) and reads -659.6 s.  The longest gap
// between arrivals has neither failure mode.
std::optional<Silence> longest_silence(const metrics::LatencySeries& latency,
                                       SimTime after) {
  const auto& s = latency.samples();
  std::optional<Silence> best;
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i].arrival <= after) continue;
    const Silence gap{s[i - 1].arrival, s[i].arrival};
    if (!best.has_value() || gap.length() > best->length()) best = gap;
  }
  return best;
}

ExperimentSummary summarize(const workloads::ExperimentConfig& cfg,
                            const workloads::ExperimentResult& r,
                            std::vector<SimDuration>& pooled) {
  ExperimentSummary s;
  s.seed = cfg.platform.seed;
  s.delivered = r.delivered;
  s.emitted = r.events_emitted;
  s.lost = r.report.lost_events;
  s.billed_cents = r.billed_cents;

  const SimTime request = r.collector.request_time().value_or(0);
  if (auto gap = longest_silence(r.collector.latency(), request)) {
    s.max_silence_s = time::to_sec(gap->length());
  }

  obs::OnlineSloMonitor slo(
      obs::SloConfig{cfg.slo.target_p99_us, kSloWindowSec});
  for (const metrics::LatencySeries::Sample& x : r.collector.latency().samples()) {
    const SimDuration lat = x.latency > 0 ? x.latency : 0;
    slo.record(x.arrival, static_cast<std::uint64_t>(lat));
    pooled.push_back(lat);
  }
  slo.advance_to(static_cast<SimTime>(cfg.run_duration));
  slo.finalize();
  s.slo_windows = slo.windows().size();
  s.slo_violated = slo.violated_windows();

  auto fail = [&s](const std::string& what, std::uint64_t n) {
    s.gate_failures.push_back(what + "=" + std::to_string(n));
  };
  if (r.accounting_violations != 0) {
    fail("accounting_violations", r.accounting_violations);
  }
  if (r.post_commit_arrivals != 0) {
    fail("post_commit_arrivals", r.post_commit_arrivals);
  }
  // The checkpointed strategies (and the autoscaler, which only uses
  // them) promise exactly-once delivery; DSM loses events by design.
  const bool exactly_once = cfg.autoscale.enabled ||
                            (cfg.strategy != core::StrategyKind::DSM &&
                             cfg.strategy != core::StrategyKind::DSM_T);
  if (exactly_once && r.report.lost_events != 0) {
    fail("lost_events", r.report.lost_events);
  }
  if (cfg.autoscale.enabled) {
    if (r.autoscale.failed != 0) fail("autoscale.failed", r.autoscale.failed);
  } else if (!r.migration_succeeded) {
    fail("migration_succeeded", 0);
  }
  return s;
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

SimMetrics combine(const std::vector<ExperimentSummary>& runs,
                   std::vector<SimDuration> pooled) {
  SimMetrics m;
  std::vector<double> silences;
  std::uint64_t windows = 0;
  std::uint64_t violated = 0;
  std::uint64_t emitted = 0;
  std::uint64_t lost = 0;
  double billed = 0.0;
  for (const ExperimentSummary& s : runs) {
    silences.push_back(s.max_silence_s);
    windows += s.slo_windows;
    violated += s.slo_violated;
    emitted += s.emitted;
    lost += s.lost;
    billed += s.billed_cents;
  }
  m.max_silence_s = nearest_rank(std::move(silences), 0.5);
  m.samples = pooled.size();
  if (!pooled.empty()) {
    std::sort(pooled.begin(), pooled.end());
    auto at = [&pooled](double q) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(pooled.size())));
      return time::to_ms(pooled[std::clamp<std::size_t>(rank, 1, pooled.size()) - 1]);
    };
    m.latency_p50_ms = at(0.5);
    m.latency_p999_ms = at(0.999);
  }
  if (windows > 0) {
    m.slo_burn_permille =
        1000.0 * static_cast<double>(violated) / static_cast<double>(windows);
  }
  if (!runs.empty()) m.billed_cents = billed / static_cast<double>(runs.size());
  if (emitted > 0) {
    m.delivered_permille =
        1000.0 * (1.0 - static_cast<double>(lost) / static_cast<double>(emitted));
  }
  return m;
}

}  // namespace rill::perfbench
