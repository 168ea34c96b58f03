#include "workloads/runner.hpp"

#include <string>
#include <utility>

#include "core/controller.hpp"
#include "dsps/platform.hpp"
#include "obs/attribution.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace rill::workloads {

ExperimentResult run_experiment(const ExperimentConfig& config) {
  sim::Engine engine;
  dsps::Platform platform(engine, config.platform);
  platform.setup_infrastructure();

  dsps::Topology topo =
      config.custom_topology.has_value()
          ? *config.custom_topology
          : build_dag(config.dag, config.platform.source_rate);
  if (!topo.validated()) topo.validate();

  const VmPlan plan = vm_plan_for(topo);
  const double expected_out =
      expected_output_rate(topo, config.platform.source_rate);

  // Initial deployment: the default D2 pool (Table 1).
  const std::vector<VmId> default_vms = platform.cluster().provision_n(
      cluster::VmType::D2, plan.default_d2_vms, "d2");
  dsps::RoundRobinScheduler scheduler;
  platform.deploy(std::move(topo), default_vms, scheduler);

  metrics::Collector collector;
  platform.set_listener(&collector);
  if (config.tracer != nullptr) platform.set_tracer(config.tracer);
  if (config.metrics != nullptr) platform.set_metrics(config.metrics);
  if (config.attributor != nullptr) {
    platform.set_attributor(config.attributor);
    config.attributor->set_tracer(config.tracer);
    config.attributor->set_metrics(config.metrics);
  }

  // Recovery tracker: passive kill→restore window bookkeeping, always on
  // (it schedules nothing, so fault-free traces are unchanged).
  ckpt::RecoveryTracker recovery_tracker;
  recovery_tracker.set_tracer(config.tracer);
  recovery_tracker.set_metrics(config.metrics);
  platform.set_recovery_tracker(&recovery_tracker);

  auto strategy = core::make_strategy(config.strategy);
  strategy->configure(platform);
  core::MigrationController controller(platform, *strategy,
                                       config.controller);

  // Closed-loop elasticity: when enabled, the autoscaler reads the
  // collector's sink-arrival log into its online SLO monitor at each
  // decision tick and owns every migration trigger.
  autoscale::AutoscaleController autoscaler(platform, controller, collector,
                                            plan, config.autoscale);

  // Time-varying traffic: re-rates the spouts (phase-continuously) once a
  // second and installs the Zipf key pickers.
  TrafficDriver traffic(platform, config.traffic);

  // Chaos: arm the fault hooks + point faults after deploy, before start.
  chaos::ChaosInjector injector(config.chaos, config.platform.seed);
  injector.arm(platform);

  // Adaptive checkpoint policy: fed failure events by the injector and
  // closed recovery windows by the tracker; retunes at epoch boundaries.
  ckpt::CkptPolicy policy(platform, config.ckpt_policy);
  injector.set_failure_listener(
      [&policy](chaos::FaultKind kind, SimTime at) {
        policy.on_failure(kind, at);
      });
  recovery_tracker.set_sink([&policy](const ckpt::RecoveryRecord& rec) {
    policy.on_recovery(rec);
  });
  policy.start();

  platform.start();
  traffic.start();
  autoscaler.start();

  // Enact the migration at `migrate_at`: provision the target pool, then
  // hand the plan to the strategy.  With the autoscaler on, the one-shot
  // request is skipped — the controller decides when (and how) to migrate.
  if (!config.autoscale.enabled) {
    engine.schedule_at_detached(
        static_cast<SimTime>(config.migrate_at),
        // lint: lifetime-ok(all captures live on the run() caller's stack past engine.run)
        [&platform, &collector, &controller, &scheduler, &config, plan] {
          collector.set_request_time(platform.engine().now());
          const std::vector<VmId> target = platform.cluster().provision_n(
              target_vm_type(config.scale), target_vm_count(plan, config.scale),
              config.scale == ScaleKind::In ? "d3" : "d1");
          dsps::MigrationPlan mplan;
          mplan.target_vms = target;
          mplan.scheduler = &scheduler;
          controller.request(std::move(mplan));
        });
  }

  engine.run_until(static_cast<SimTime>(config.run_duration));
  autoscaler.stop();
  traffic.stop();
  policy.stop();
  platform.stop();

  // ---- distil results ----
  ExperimentResult result;
  result.dag_name = platform.topology().name();
  result.strategy = config.strategy;
  result.scale = config.scale;
  result.vm_plan = plan;
  result.worker_instances = platform.topology().worker_instances();
  result.sink_paths = sink_paths(platform.topology());
  result.expected_output_rate = expected_out;
  result.migration_succeeded = controller.succeeded();
  result.phases = controller.phases();
  result.rebalance = platform.rebalancer().last();
  result.recovery = controller.recovery();
  result.chaos = injector.stats();
  result.ckpt_policy = policy.stats();
  result.recoveries = recovery_tracker.recoveries();
  result.checkpoint = platform.coordinator().stats();
  result.store = platform.store().stats();
  for (int s = 0; s < platform.store().shards(); ++s) {
    result.store_shards.push_back(platform.store().shard_stats(s));
  }
  // Per-shard traffic counters land in the registry so `--task-metrics`
  // surfaces the shard balance without a dedicated report field.
  if (config.metrics != nullptr) {
    for (int s = 0; s < platform.store().shards(); ++s) {
      const kvstore::StoreStats& ss = result.store_shards[
          static_cast<std::size_t>(s)];
      config.metrics->counter(obs::names::kv_shard_metric(s, "puts"))
          ->add(ss.puts);
      config.metrics->counter(obs::names::kv_shard_metric(s, "gets"))
          ->add(ss.gets);
      config.metrics->counter(obs::names::kv_shard_metric(s, "batch_items"))
          ->add(ss.batch_items);
      config.metrics->counter(obs::names::kv_shard_metric(s, "retries"))
          ->add(ss.retries);
      config.metrics->counter(obs::names::kv_shard_metric(s, "timeouts"))
          ->add(ss.timeouts);
    }
  }

  result.events_emitted = platform.stats().events_emitted;
  result.events_lost = platform.stats().events_lost;
  for (const dsps::InstanceRef& ref : platform.worker_and_sink_instances()) {
    const dsps::Executor& ex = platform.executor(ref);
    const dsps::ExecutorStats& s = ex.stats();
    result.post_commit_arrivals += s.post_commit_arrivals;
    result.lost_at_kill += s.lost_at_kill;
    result.transport_overflow += s.transport_overflow;
    result.fgm_batches_moved += s.fgm_batches_moved;
    result.fgm_diverted += s.fgm_diverted;
    result.delivered += s.delivered;
    result.init_replays += s.init_replays;
    result.capture_handoff += s.capture_handoff;
    // Conservation ledger: every delivered (or replayed) user event must be
    // in exactly one terminal bucket or still buffered at teardown.
    const std::uint64_t in = s.delivered + s.init_replays;
    const std::uint64_t out = s.processed + s.lost_enqueue + s.lost_at_kill +
                              s.lost_mid_service + s.transport_overflow +
                              s.capture_handoff + ex.buffered_user_events();
    if (in != out) ++result.accounting_violations;
  }
  result.billed_cents = platform.cluster().billed_cents();

  if (config.autoscale.enabled) {
    // Close out the controller's live SLO series: close the windows that
    // ended by run end, then trim the trailing shutdown silence.
    autoscaler.slo().advance_to(static_cast<SimTime>(config.run_duration));
    autoscaler.slo().finalize();
    result.autoscale = autoscaler.stats();
    result.slo_windows = autoscaler.slo().windows().size();
    result.slo_burn_per_mille = autoscaler.slo().burn_per_mille();
    for (const obs::SloWindow& w : autoscaler.slo().windows()) {
      result.slo_strip.push_back(w.violated ? 'X' : '.');
    }
    if (config.metrics != nullptr) autoscaler.export_to(*config.metrics);
  }

  const SimTime request = result.phases.request_at;
  metrics::MigrationReport rep;
  rep.dag = result.dag_name;
  rep.strategy = std::string(core::to_string(config.strategy));
  rep.scale = std::string(to_string(config.scale));
  rep.expected_output_rate = expected_out;

  auto rel_sec = [request](std::optional<SimTime> t) -> std::optional<double> {
    if (!t.has_value()) return std::nullopt;
    return time::to_sec(static_cast<SimDuration>(*t - request));
  };

  // Restore duration: output is silent from the moment the migrating
  // workers are killed; measure to the first sink arrival after that.
  if (result.rebalance.has_value() && result.rebalance->killed_at > 0) {
    rep.restore_sec =
        rel_sec(collector.first_sink_arrival_after(result.rebalance->killed_at));
  } else {
    rep.restore_sec = rel_sec(collector.first_sink_after_request());
  }
  rep.drain_sec = result.phases.drain_sec().value_or(0.0);
  if (result.rebalance.has_value() &&
      result.rebalance->command_completed_at > 0) {
    rep.rebalance_sec = time::to_sec(static_cast<SimDuration>(
        result.rebalance->command_completed_at - result.rebalance->invoked_at));
  }
  // Catchup and recovery drain "old" events — those born before the
  // *original* request (the collector's epoch).  phases.request_at is
  // re-stamped per attempt, so after an abort + retry it would sit past
  // the drain and yield negative durations.
  auto rel_orig = [&](std::optional<SimTime> t) -> std::optional<double> {
    if (!t.has_value() || !collector.request_time().has_value()) {
      return rel_sec(t);
    }
    return time::to_sec(
        static_cast<SimDuration>(*t - *collector.request_time()));
  };
  rep.catchup_sec = rel_orig(collector.last_old_arrival());
  rep.recovery_sec = rel_orig(collector.last_replayed_arrival());
  rep.replayed_messages = collector.replayed_messages();
  rep.lost_events = collector.lost_user_events();

  const auto request_sec = static_cast<std::size_t>(request / 1'000'000ull);
  if (auto stab = metrics::find_stabilization(collector.output(), expected_out,
                                              request_sec)) {
    rep.stabilization_sec = static_cast<double>(*stab - request_sec);
  }
  // First INIT receipt is read from the coordinator before teardown: the
  // phases struct does not carry it, so stash it here.
  if (platform.coordinator().first_init_received().has_value()) {
    rep.first_init_sec = rel_sec(platform.coordinator().first_init_received());
  }
  result.first_init_received = platform.coordinator().first_init_received();
  result.init_completed_at = platform.coordinator().init_completed_at();
  result.last_init_attempt_at = platform.coordinator().last_init_attempt_at();

  // End-to-end latency percentiles over the whole run (Fig 9 companion).
  const auto run_end = static_cast<SimTime>(config.run_duration);
  const metrics::LatencySeries::Percentiles latency =
      collector.latency().report_percentiles_ms(0, run_end);
  rep.latency_p50_ms = latency.p50;
  rep.latency_p95_ms = latency.p95;
  rep.latency_p99_ms = latency.p99;

  rep.migration_attempts = result.recovery.attempts;
  rep.aborted_attempts = result.recovery.aborted_attempts;
  rep.fell_back_to_dsm = result.recovery.fell_back;
  rep.abort_latency_sec = result.recovery.first_abort_latency_sec;
  rep.faults_injected = result.chaos.faults_armed;
  rep.fault_hits = result.chaos.total_hits();
  rep.kv_retries = result.store.retries;
  rep.wave_retries = result.checkpoint.wave_retries;

  // Per-cause latency attribution (integer µs, nearest-rank over the
  // sampled tuples).  Only present when an attributor was attached, so
  // unsampled runs render byte-identical reports.
  if (config.attributor != nullptr) {
    rep.sampled_tuples = config.attributor->tuples().size();
    for (const obs::CauseSummary& cs : config.attributor->summarize()) {
      metrics::MigrationReport::CauseBreakdown cb;
      cb.cause = obs::to_string(cs.cause);
      cb.p50_us = cs.p50_us;
      cb.p95_us = cs.p95_us;
      cb.p99_us = cs.p99_us;
      cb.total_us = cs.total_us;
      rep.attribution.push_back(std::move(cb));
    }
  }

  if (config.autoscale.enabled) {
    metrics::MigrationReport::AutoscaleSummary as;
    as.decisions = result.autoscale.decisions;
    as.scale_outs = result.autoscale.scale_outs;
    as.scale_ins = result.autoscale.scale_ins;
    as.fgm_chosen = result.autoscale.fgm_chosen;
    as.ccr_chosen = result.autoscale.ccr_chosen;
    as.dcr_chosen = result.autoscale.dcr_chosen;
    as.suppressed = result.autoscale.suppressed_cooldown +
                    result.autoscale.suppressed_busy;
    as.failed = result.autoscale.failed;
    as.slo_windows = result.slo_windows;
    as.slo_burn_per_mille = result.slo_burn_per_mille;
    rep.autoscale = as;
  }

  // Windowed SLO series over the sink-arrival log, exported as slo.*
  // instruments (the same log the autoscaler reads when enabled).
  if (config.metrics != nullptr) {
    obs::OnlineSloMonitor slo(config.slo);
    const auto& samples = collector.latency().samples();
    for (const metrics::LatencySeries::Sample& s : samples) {
      slo.record(s.arrival, static_cast<std::uint64_t>(
                                s.latency > 0 ? s.latency : 0));
    }
    if (!samples.empty()) {
      // Close the window holding the last arrival: one landing exactly on
      // run_duration sits past the run's last window boundary.
      slo.advance_to(samples.back().arrival +
                     slo.config().window_sec * 1'000'000ull);
    }
    slo.finalize();
    slo.export_to(*config.metrics);
  }

  result.report = std::move(rep);
  result.collector = std::move(collector);
  return result;
}

}  // namespace rill::workloads
