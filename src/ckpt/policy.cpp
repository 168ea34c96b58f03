#include "ckpt/policy.hpp"

#include <algorithm>
#include <cmath>

#include "dsps/platform.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace rill::ckpt {

namespace {
/// Applied intervals quantize to 100 ms so trace args stay readable and a
/// solve that moves by microseconds never re-arms the wave timer.
constexpr SimDuration kQuantum = time::ms(100);
}  // namespace

PolicyDecision solve(const PolicyInputs& in, const PolicyConfig& cfg) {
  PolicyDecision d;
  d.interval = in.current_interval;
  d.full_every = in.current_full_every;
  d.delta_max_ratio = in.base_delta_ratio;

  // Hold the configured static values until the run has measured both a
  // failure rate and a recovery time — tuning on priors would move a
  // failure-free run away from the operator's configuration for nothing.
  if (!in.mttf.has_value() || !in.mttr.has_value()) return d;

  // RTO bound: a recovery costs the restore itself (≤ safety · MTTR̂) plus
  // the staleness of the checkpoint it rolls back to (≤ τ when waves land
  // on schedule), so τ must leave that much slack under the objective.
  double tau_us = static_cast<double>(cfg.rto) -
                  PolicyConfig::mttr_safety * static_cast<double>(*in.mttr);

  // Young/Daly efficiency optimum, adapted to stream replay: checkpoint
  // overhead C/τ balances expected re-work τ/(2·MTTF) weighted by the
  // replay ratio r (lost work is re-covered at the backlog pump rate, not
  // re-executed at full cost) — optimum at sqrt(2·MTTF·C/r).  Binds when
  // failures are frequent enough that re-work beats RTO slack.
  if (in.wave_cost > 0 && in.replay_ratio > 0.0) {
    const double daly_us =
        std::sqrt(2.0 * static_cast<double>(*in.mttf) *
                  static_cast<double>(in.wave_cost) / in.replay_ratio);
    tau_us = std::min(tau_us, daly_us);
  }

  tau_us = std::clamp(tau_us,
                      static_cast<double>(PolicyConfig::min_interval),
                      static_cast<double>(PolicyConfig::max_interval));
  SimDuration tau = static_cast<SimDuration>(std::llround(tau_us));
  tau = std::max<SimDuration>(kQuantum, (tau / kQuantum) * kQuantum);

  // Hysteresis: ignore moves within ±hysteresis of the current interval.
  const auto cur = static_cast<double>(in.current_interval);
  if (in.current_interval > 0 &&
      std::abs(static_cast<double>(tau) - cur) <=
          PolicyConfig::hysteresis * cur) {
    tau = in.current_interval;
  }
  d.interval = tau;
  d.interval_changed = tau != in.current_interval;

  // Compaction cadence: a delta chain longer than the expected number of
  // failure-free waves (MTTF̂ / τ) will, in expectation, be restored before
  // it is ever compacted — cap it there.
  const double waves_per_failure =
      static_cast<double>(*in.mttf) / std::max<double>(1.0, static_cast<double>(tau));
  d.full_every =
      std::clamp(static_cast<int>(waves_per_failure),
                 PolicyConfig::min_full_every, PolicyConfig::max_full_every);

  // Under frequent failures restores dominate: tighten the delta-vs-full
  // threshold so chains stay cheap to walk; otherwise keep the operator's
  // configured ratio.
  d.delta_max_ratio = d.full_every <= 4
                          ? std::min(in.base_delta_ratio, 0.35)
                          : in.base_delta_ratio;
  return d;
}

CkptPolicy::CkptPolicy(dsps::Platform& platform, PolicyConfig cfg)
    : platform_(platform),
      cfg_(cfg),
      mttf_(PolicyConfig::estimator_alpha),
      mttr_(PolicyConfig::estimator_alpha),
      base_delta_ratio_(platform.config().ckpt_delta_max_ratio) {}

void CkptPolicy::start() {
  if (!cfg_.enabled || epoch_ != nullptr) return;
  epoch_ = std::make_unique<sim::PeriodicTimer>(
      platform_.engine(), cfg_.retune_epoch, [this] { retune(); });
  epoch_->start();
}

void CkptPolicy::stop() {
  if (epoch_ != nullptr) epoch_->stop();
}

void CkptPolicy::on_failure(chaos::FaultKind kind, SimTime at) {
  ++stats_.failures_seen;
  if (kind != chaos::FaultKind::WorkerCrash &&
      kind != chaos::FaultKind::VmFailure) {
    return;
  }
  mttf_.note_failure(kind, at);
}

void CkptPolicy::on_recovery(const RecoveryRecord& rec) {
  ++stats_.recoveries_seen;
  mttr_.note_recovery(rec.downtime);
}

void CkptPolicy::retune() {
  const dsps::PlatformConfig& pc = platform_.config();

  PolicyInputs in;
  in.mttf = mttf_.combined_mttf();
  in.mttr = mttr_.estimate();
  in.wave_cost = platform_.coordinator().wave_cost_ewma();
  in.replay_ratio = pc.backlog_pump_rate > 0.0
                        ? pc.source_rate / pc.backlog_pump_rate
                        : 1.0;
  in.current_interval = pc.checkpoint_interval;
  in.current_full_every = pc.ckpt_full_every;
  in.base_delta_ratio = base_delta_ratio_;

  const PolicyDecision d = solve(in, cfg_);

  ++stats_.retunes;
  stats_.last_interval = d.interval;
  stats_.last_mttf = in.mttf.value_or(0);
  stats_.last_mttr = in.mttr.value_or(0);
  stats_.last_wave_cost = in.wave_cost;
  stats_.last_full_every = d.full_every;
  stats_.last_delta_ratio = d.delta_max_ratio;

  if (d.interval_changed) {
    ++stats_.interval_changes;
    // apply_interval re-arms the pending wave tick, so the new cadence
    // holds from this epoch boundary, not from the wave after next.
    platform_.coordinator().apply_interval(d.interval);
  }
  platform_.config_mut().ckpt_full_every = d.full_every;
  platform_.config_mut().ckpt_delta_max_ratio = d.delta_max_ratio;

  if (auto* reg = platform_.metrics()) {
    reg->counter("ckpt.policy.retunes")->add(1);
    reg->gauge("ckpt.policy.interval_ms")->set(time::to_ms(d.interval));
    reg->gauge("ckpt.policy.mttf_ms")->set(time::to_ms(stats_.last_mttf));
    reg->gauge("ckpt.policy.mttr_ms")->set(time::to_ms(stats_.last_mttr));
    reg->gauge("ckpt.policy.wave_cost_ms")->set(time::to_ms(in.wave_cost));
    reg->gauge("ckpt.policy.full_every")
        ->set(static_cast<double>(d.full_every));
    reg->gauge("ckpt.policy.delta_max_ratio")->set(d.delta_max_ratio);
  }
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::kTrackCoordinator, "checkpoint", "policy_retune",
                {obs::arg("interval_ms", time::to_ms(d.interval)),
                 obs::arg("mttf_ms", time::to_ms(stats_.last_mttf)),
                 obs::arg("mttr_ms", time::to_ms(stats_.last_mttr)),
                 obs::arg("wave_cost_ms", time::to_ms(in.wave_cost)),
                 obs::arg("full_every", d.full_every),
                 obs::arg("delta_max_ratio", d.delta_max_ratio),
                 obs::arg("changed", d.interval_changed)});
  }
}

}  // namespace rill::ckpt
