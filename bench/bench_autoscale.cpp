// Closed-loop SLO-driven elasticity under a 10–100× load swing, vs the two
// static provisionings an operator could pick instead.
//
// All arms face the same deterministic traffic on the Keyed dataflow: a
// diurnal triangle around a small base rate, one flash crowd that
// multiplies it ~18× for two minutes, Zipf-skewed keys, and heavy
// noisy-neighbour CPU steal (hurts the packed multi-core tiers, leaves the
// one-core Wide tier untouched).
//
//   * controller      — the AutoscaleController picks tier AND strategy
//                       (FGM for every keyed move: fluid key batches, no
//                       stop-the-world restore).
//   * static packed   — the cheap choice: drop to the D3 pool early and
//                       stay there.  The crowd crushes it.
//   * static default  — the safe choice: stay on the D2 pool, pay double
//                       the packed VM bill all run.
//
// The claim `--check` enforces: the controller burns at most
// kBurnGatePerMille of its SLO windows, strictly less than the static
// packed baseline, chooses FGM for at least one keyed scale-out, scales
// back in afterwards, loses nothing, and is run-to-run deterministic.
//
// Writes BENCH_autoscale.json.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/report.hpp"
#include "obs/slo.hpp"
#include "workloads/traffic.hpp"

using namespace rill;

namespace {

constexpr std::uint64_t kSeed = 1;
constexpr std::uint64_t kTargetP99Us = 1'500'000;
/// Burn ceiling for the controller arm (observed 211‰: the crowd's
/// detection + fluid-migration + drain era, nothing else).
constexpr std::uint64_t kBurnGatePerMille = 250;

workloads::TrafficConfig traffic() {
  workloads::TrafficConfig t;
  t.enabled = true;
  t.base_rate = 2.0;
  t.diurnal_amplitude = 0.5;
  t.diurnal_period_sec = 600.0;
  t.crowds.push_back({/*at=*/200.0, /*ramp=*/15.0, /*hold=*/120.0,
                      /*fall=*/30.0, /*multiplier=*/18.0});
  t.zipf_s = 0.6;
  return t;
}

workloads::ExperimentConfig base_cfg() {
  workloads::ExperimentConfig cfg;
  cfg.dag = workloads::DagKind::Keyed;
  cfg.platform.seed = kSeed;
  cfg.platform.vm_steal_permille = 600;
  cfg.run_duration = time::sec(900);
  cfg.traffic = traffic();
  cfg.slo.target_p99_us = kTargetP99Us;
  return cfg;
}

workloads::ExperimentConfig controller_cfg() {
  workloads::ExperimentConfig cfg = base_cfg();
  cfg.autoscale.enabled = true;
  cfg.autoscale.target_p99_us = kTargetP99Us;
  return cfg;
}

/// Static arm: no controller.  `packed` drops to the D3 pool at t=10 via
/// FGM (fluid, so the arm's burn measures the tier, not the move);
/// `!packed` never migrates and stays on the Default D2 pool.
workloads::ExperimentConfig static_cfg(bool packed) {
  workloads::ExperimentConfig cfg = base_cfg();
  cfg.strategy = core::StrategyKind::FGM;
  cfg.scale = workloads::ScaleKind::In;
  cfg.migrate_at = packed ? time::sec(10) : time::sec(100'000);
  return cfg;
}

struct ArmOut {
  std::uint64_t burn_per_mille{0};
  std::uint64_t violated{0};
  std::uint64_t windows{0};
  double p99_ms{0.0};
  std::uint64_t lost{0};
  std::uint64_t accounting{0};
  double billed_cents{0.0};
  workloads::ExperimentResult r;
};

ArmOut run_arm(const workloads::ExperimentConfig& cfg) {
  ArmOut out;
  out.r = workloads::run_experiment(cfg);
  if (cfg.autoscale.enabled) {
    out.burn_per_mille = out.r.slo_burn_per_mille;
    out.windows = out.r.slo_windows;
  } else {
    // The controller's window semantics, rebuilt after the run from the
    // sink-arrival log.
    obs::OnlineSloMonitor slo(obs::SloConfig{kTargetP99Us, 10});
    const auto& samples = out.r.collector.latency().samples();
    for (const metrics::LatencySeries::Sample& s : samples) {
      slo.record(s.arrival,
                 static_cast<std::uint64_t>(s.latency > 0 ? s.latency : 0));
    }
    if (!samples.empty()) {
      slo.advance_to(samples.back().arrival +
                     slo.config().window_sec * 1'000'000ull);
    }
    slo.finalize();
    out.burn_per_mille = slo.burn_per_mille();
    out.windows = slo.windows().size();
  }
  out.violated = out.burn_per_mille * out.windows / 1000;
  out.p99_ms = out.r.report.latency_p99_ms.value_or(0.0);
  out.lost = out.r.events_lost;
  out.accounting = out.r.accounting_violations;
  out.billed_cents = out.r.billed_cents;
  return out;
}

bool same_run(const ArmOut& a, const ArmOut& b) {
  if (a.burn_per_mille != b.burn_per_mille) return false;
  if (a.r.events_emitted != b.r.events_emitted) return false;
  if (a.r.delivered != b.r.delivered) return false;
  if (a.r.slo_strip != b.r.slo_strip) return false;
  const auto& ea = a.r.autoscale.events;
  const auto& eb = b.r.autoscale.events;
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].at != eb[i].at || ea[i].strategy != eb[i].strategy ||
        ea[i].to != eb[i].to) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;

  bench::print_header(
      "Closed-loop autoscaling vs static provisioning, 10-100x load swing",
      "the elasticity loop the paper leaves to the operator");

  const workloads::RateSchedule sched(traffic());
  const double trough = sched.rate_at(time::sec(600));
  const double swing = sched.peak_rate() / trough;
  std::printf("traffic: trough %.1f ev/s, peak %.1f ev/s (swing %.0fx), "
              "Zipf %.1f keys, %d permille CPU steal\n\n",
              trough, sched.peak_rate(), swing,
              traffic().zipf_s, base_cfg().platform.vm_steal_permille);

  const ArmOut ctl = run_arm(controller_cfg());
  const ArmOut ctl2 = run_arm(controller_cfg());
  const ArmOut packed = run_arm(static_cfg(/*packed=*/true));
  const ArmOut wide = run_arm(static_cfg(/*packed=*/false));

  const auto& as = ctl.r.autoscale;
  std::vector<std::vector<std::string>> rows;
  auto row = [&rows](const char* name, const ArmOut& a) {
    rows.push_back({name, std::to_string(a.burn_per_mille),
                    std::to_string(a.violated) + "/" +
                        std::to_string(a.windows),
                    metrics::fmt(a.p99_ms, 0), std::to_string(a.lost),
                    metrics::fmt(a.billed_cents, 1)});
  };
  row("controller", ctl);
  row("static packed", packed);
  row("static default", wide);
  std::fputs(metrics::render_table({"Arm", "Burn (permille)", "Violated",
                                    "p99 (ms)", "Lost", "Billed (c)"},
                                   rows)
                 .c_str(),
             stdout);
  std::printf("\ncontroller: %llu out / %llu in (fgm %llu, ccr %llu, "
              "dcr %llu), %llu suppressed, %llu failed\n",
              static_cast<unsigned long long>(as.scale_outs),
              static_cast<unsigned long long>(as.scale_ins),
              static_cast<unsigned long long>(as.fgm_chosen),
              static_cast<unsigned long long>(as.ccr_chosen),
              static_cast<unsigned long long>(as.dcr_chosen),
              static_cast<unsigned long long>(as.suppressed_cooldown +
                                              as.suppressed_busy),
              static_cast<unsigned long long>(as.failed));
  std::printf("windows     %s\n", ctl.r.slo_strip.c_str());

  const bool deterministic = same_run(ctl, ctl2);
  const bool burn_ok = ctl.burn_per_mille <= kBurnGatePerMille;
  const bool beats_packed = ctl.burn_per_mille < packed.burn_per_mille;
  const bool chose_fgm = as.fgm_chosen >= 1 && as.scale_outs >= 1;
  const bool scaled_back = as.scale_ins >= 1;
  const bool nothing_lost = ctl.lost == 0 && packed.lost == 0 &&
                            wide.lost == 0 && ctl.accounting == 0 &&
                            packed.accounting == 0 && wide.accounting == 0;
  const bool none_failed = as.failed == 0;
  const bool swing_ok = swing >= 10.0 && swing <= 100.0;

  std::ostringstream json;
  json << "{\"swing\":" << metrics::fmt(swing, 1)
       << ",\"controller_burn_per_mille\":" << ctl.burn_per_mille
       << ",\"static_packed_burn_per_mille\":" << packed.burn_per_mille
       << ",\"static_default_burn_per_mille\":" << wide.burn_per_mille
       << ",\"scale_outs\":" << as.scale_outs
       << ",\"scale_ins\":" << as.scale_ins
       << ",\"fgm_chosen\":" << as.fgm_chosen
       << ",\"failed\":" << as.failed
       << ",\"controller_billed_cents\":" << metrics::fmt(ctl.billed_cents, 2)
       << ",\"static_packed_billed_cents\":"
       << metrics::fmt(packed.billed_cents, 2)
       << ",\"static_default_billed_cents\":"
       << metrics::fmt(wide.billed_cents, 2)
       << ",\"deterministic\":" << (deterministic ? "true" : "false")
       << "}\n";
  if (!bench::write_bench_json("BENCH_autoscale.json", json.str())) {
    std::fprintf(stderr, "cannot write BENCH_autoscale.json\n");
    return 2;
  }

  if (check) {
    bool ok = true;
    auto gate = [&ok](bool pass, const char* what) {
      if (!pass) {
        std::fprintf(stderr, "CHECK FAIL: %s\n", what);
        ok = false;
      }
    };
    gate(swing_ok, "traffic swing is outside the 10-100x band");
    gate(burn_ok, "controller burned more than the gate allows");
    gate(beats_packed,
         "controller did not beat the static packed baseline's burn");
    gate(chose_fgm, "no FGM scale-out for the keyed hot shard");
    gate(scaled_back, "controller never scaled back in");
    gate(none_failed, "an enacted migration failed");
    gate(nothing_lost, "events were lost or a conservation ledger broke");
    gate(deterministic, "double run diverged");
    if (!ok) return 1;
    std::puts("\nCHECK OK: controller held the SLO through the swing, chose "
              "FGM for the keyed hot shard, scaled back in, lost nothing, "
              "and is deterministic.");
  }
  return 0;
}
