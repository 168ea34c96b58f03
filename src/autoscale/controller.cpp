#include "autoscale/controller.hpp"

#include <algorithm>
#include <string>

#include "dsps/platform.hpp"
#include "dsps/spout.hpp"
#include "metrics/collector.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"

namespace rill::autoscale {

std::string_view to_string(PoolTier t) noexcept {
  switch (t) {
    case PoolTier::Packed: return "packed";
    case PoolTier::Default: return "default";
    case PoolTier::Wide: return "wide";
  }
  return "?";
}

std::string_view to_string(Action a) noexcept {
  switch (a) {
    case Action::None: return "none";
    case Action::ScaleOut: return "scale_out";
    case Action::ScaleIn: return "scale_in";
  }
  return "?";
}

Decision decide(const Signals& s, const AutoscaleConfig& cfg) {
  Decision d;
  const bool slo_burning =
      s.violated_streak >= AutoscaleConfig::scale_out_windows;
  const bool queue_spiking = s.queue_depth_max >= AutoscaleConfig::queue_high;
  const bool quiet = s.ok_streak >= AutoscaleConfig::scale_in_windows &&
                     s.queue_depth_max <= AutoscaleConfig::queue_low &&
                     s.backlog == 0;

  if ((slo_burning || queue_spiking) && s.tier != PoolTier::Wide) {
    d.desired = Action::ScaleOut;
    d.target = PoolTier::Wide;
    // Burning with keyed state → FGM (no stop-the-world; the hot shard
    // moves while the rest keeps flowing).  Otherwise CCR (fastest
    // checkpoint-assisted cutover).
    d.strategy =
        s.keyed ? core::StrategyKind::FGM : core::StrategyKind::CCR;
    d.reason = slo_burning ? "slo_burning" : "queue_high";
  } else if (quiet && s.tier != PoolTier::Packed) {
    d.desired = Action::ScaleIn;
    // Step down one tier at a time: Wide → Default → Packed.  A straight
    // Wide→Packed jump right after a crowd passes would re-burn on the
    // diurnal peak and thrash.
    d.target =
        s.tier == PoolTier::Wide ? PoolTier::Default : PoolTier::Packed;
    // Keyed → FGM even for scale-in.  "Load is low, a stop-the-world
    // drain is affordable" is wrong: DCR/CCR pause the dataflow for the
    // whole restore and the resulting sink silence burns SLO windows no
    // matter how low the rate is.  FGM's fluid key batches cost zero
    // violated windows at quiet load.
    d.strategy =
        s.keyed ? core::StrategyKind::FGM : core::StrategyKind::CCR;
    d.reason = "quiet";
  } else {
    d.reason = "steady";
    return d;
  }

  if (cfg.force_strategy.has_value()) d.strategy = *cfg.force_strategy;

  // Guards, in order: serialization first (a busy migration makes any
  // signal unreliable), then the cooldown.
  if (s.migrating) {
    d.reason = "busy";
    return d;
  }
  if (s.cooling_down) {
    d.reason = "cooldown";
    return d;
  }
  d.action = d.desired;
  return d;
}

AutoscaleController::AutoscaleController(dsps::Platform& platform,
                                         core::MigrationController& migrations,
                                         metrics::Collector& collector,
                                         workloads::VmPlan plan,
                                         AutoscaleConfig config)
    : platform_(platform),
      migrations_(migrations),
      collector_(collector),
      plan_(plan),
      config_(config),
      slo_(obs::SloConfig{config.target_p99_us,
                          AutoscaleConfig::window_sec}),
      timer_(platform.engine(), AutoscaleConfig::decision_period,
             // lint: lifetime-ok(timer_ is a member; its destructor cancels
             // the pending tick before `this` goes stale)
             [this] { tick(); }) {}

void AutoscaleController::start() {
  if (!config_.enabled) return;
  for (const dsps::TaskDef& def : platform_.topology().tasks()) {
    keyed_ = keyed_ || def.keyed_state;
  }
  timer_.start();
}

void AutoscaleController::stop() {
  timer_.stop();
  if (config_.enabled) feed();
}

void AutoscaleController::feed() {
  const std::vector<metrics::LatencySeries::Sample>& arrivals =
      collector_.latency().samples();
  for (; fed_ < arrivals.size(); ++fed_) {
    slo_.record(arrivals[fed_].arrival,
                static_cast<std::uint64_t>(arrivals[fed_].latency));
  }
}

Signals AutoscaleController::gather() {
  Signals s;
  // Tail streaks over post-settle windows only: evidence gathered while
  // the last migration was still rewiring the dataflow (or before it) says
  // nothing about the new placement.
  const std::vector<obs::SloWindow>& ws = slo_.windows();
  for (auto it = ws.rbegin(); it != ws.rend(); ++it) {
    if (it->start_sec * 1'000'000ull < settled_at_) break;
    if (!it->violated) break;
    ++s.violated_streak;
  }
  for (auto it = ws.rbegin(); it != ws.rend(); ++it) {
    if (it->start_sec * 1'000'000ull < settled_at_) break;
    if (it->violated) break;
    ++s.ok_streak;
  }
  for (const dsps::InstanceRef& ref : platform_.worker_instances()) {
    s.queue_depth_max =
        std::max<std::uint64_t>(s.queue_depth_max,
                                platform_.executor(ref).queue_depth());
  }
  for (dsps::Spout* spout : platform_.spouts()) {
    s.backlog += spout->backlog();
  }
  s.keyed = keyed_;
  s.tier = tier_;
  s.migrating = migrations_.in_flight();
  s.cooling_down = platform_.engine().now() < cooldown_until_;
  return s;
}

void AutoscaleController::tick() {
  const SimTime now = platform_.engine().now();
  feed();
  slo_.advance_to(now);
  ++stats_.decisions;
  const Decision d = decide(gather(), config_);
  if (d.desired != Action::None && d.action == Action::None) {
    if (d.reason == "busy") {
      ++stats_.suppressed_busy;
    } else {
      ++stats_.suppressed_cooldown;
    }
    return;
  }
  if (d.action != Action::None) enact(d, now);
}

void AutoscaleController::enact(const Decision& d, SimTime now) {
  // The first trigger is the run's migration request: old events are
  // those born before it.
  if (stats_.events.empty()) collector_.set_request_time(now);

  cluster::VmType type{};
  int count = 0;
  switch (d.target) {
    case PoolTier::Packed:
      type = cluster::VmType::D3;
      count = plan_.scale_in_d3_vms;
      break;
    case PoolTier::Default:
      type = cluster::VmType::D2;
      count = plan_.default_d2_vms;
      break;
    case PoolTier::Wide:
      type = cluster::VmType::D1;
      count = plan_.scale_out_d1_vms;
      break;
  }
  const std::vector<VmId> target = platform_.cluster().provision_n(
      type, count, "as" + std::to_string(stats_.events.size() + 1));

  dsps::MigrationPlan mplan;
  mplan.target_vms = target;
  mplan.scheduler = &scheduler_;

  if (d.action == Action::ScaleOut) {
    ++stats_.scale_outs;
  } else {
    ++stats_.scale_ins;
  }
  switch (d.strategy) {
    case core::StrategyKind::FGM: ++stats_.fgm_chosen; break;
    case core::StrategyKind::CCR: ++stats_.ccr_chosen; break;
    case core::StrategyKind::DCR: ++stats_.dcr_chosen; break;
    default: break;
  }

  const std::size_t idx = stats_.events.size();
  AutoscaleEvent ev;
  ev.at = now;
  ev.action = d.action;
  ev.strategy = d.strategy;
  ev.from = tier_;
  ev.to = d.target;
  stats_.events.push_back(ev);

  // The tier flips optimistically: even a fallback-degraded migration
  // still lands the instances on the target pool, and the cooldown keeps
  // the next decision far enough out that the flip has settled.
  tier_ = d.target;
  cooldown_until_ = now + static_cast<SimTime>(config_.cooldown);

  migrations_.request(
      std::move(mplan), d.strategy,
      // lint: lifetime-ok(the controller outlives the engine run; the
      // migration completes or is torn down before destruction)
      [this, idx](bool ok) {
        stats_.events[idx].succeeded = ok;
        settled_at_ = platform_.engine().now();
        if (!ok) ++stats_.failed;
      });
}

void AutoscaleController::export_to(obs::MetricsRegistry& reg) const {
  using obs::names::autoscale_metric;
  reg.counter(autoscale_metric("decisions"))->add(stats_.decisions);
  reg.counter(autoscale_metric("scale_outs"))->add(stats_.scale_outs);
  reg.counter(autoscale_metric("scale_ins"))->add(stats_.scale_ins);
  reg.counter(autoscale_metric("fgm_chosen"))->add(stats_.fgm_chosen);
  reg.counter(autoscale_metric("ccr_chosen"))->add(stats_.ccr_chosen);
  reg.counter(autoscale_metric("dcr_chosen"))->add(stats_.dcr_chosen);
  reg.counter(autoscale_metric("suppressed_cooldown"))
      ->add(stats_.suppressed_cooldown);
  reg.counter(autoscale_metric("suppressed_busy"))
      ->add(stats_.suppressed_busy);
  reg.counter(autoscale_metric("failed"))->add(stats_.failed);
  reg.counter(autoscale_metric("slo_burn_per_mille"))
      ->add(slo_.burn_per_mille());
}

}  // namespace rill::autoscale
