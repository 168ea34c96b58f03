#include "chaos/injector.hpp"

#include <string>
#include <utility>

#include "ckpt/recovery.hpp"
#include "dsps/platform.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace rill::chaos {

namespace {
/// Independent stream constant ("CHAOSinj"); the injector must not draw
/// from any platform stream or fault-free runs would be perturbed.
constexpr std::uint64_t kChaosStream = 0x4348'414f'5369'6e6aull;
}  // namespace

void ChaosInjector::trace_hit(const char* name,
                              std::initializer_list<obs::Arg> args) {
  if (platform_ == nullptr) return;
  if (auto* tr = platform_->tracer()) {
    tr->instant(obs::kTrackChaos, "chaos", name, args);
  }
}

void ChaosInjector::note_hit(FaultKind kind) {
  const SimTime now = platform_->engine().now();
  KindStats& ks = kind_stats_[kind];
  if (auto* reg = platform_->metrics()) {
    if (ks.count == nullptr) {
      ks.count = reg->counter(obs::names::chaos_metric(to_string(kind),
                                                       "count"));
      ks.interarrival = reg->histogram(
          obs::names::chaos_metric(to_string(kind), "interarrival_us"));
    }
    ks.count->add(1);
    if (ks.last_at.has_value()) {
      ks.interarrival->record(static_cast<std::uint64_t>(now - *ks.last_at));
    }
  }
  ks.last_at = now;
  if (failure_listener_) failure_listener_(kind, now);
}

void ChaosInjector::note_process_failure(int instances, const char* cause) {
  auto* rec = platform_->recovery();
  if (rec == nullptr) return;
  const SimTime now = platform_->engine().now();
  // Staleness: how far back the last committed checkpoint sits — the replay
  // window a restore (or a fresh-state resume) rolls back over.
  const SimTime committed_at = platform_->coordinator().last_committed_at();
  rec->on_failure(now, instances,
                  static_cast<SimDuration>(now - committed_at), cause);
}

ChaosInjector::ChaosInjector(ChaosPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed ^ kChaosStream) {}

void ChaosInjector::arm(dsps::Platform& platform) {
  platform_ = &platform;
  if (plan_.empty()) return;  // zero-overhead when nothing is injected

  platform.network().set_fault_hook(this);
  platform.store().set_fault_hook(this);
  stats_.faults_armed = static_cast<int>(plan_.faults.size());

  for (const FaultSpec& f : plan_.faults) {
    if (f.kind == FaultKind::WorkerCrash) {
      platform.engine().schedule_at_detached(f.at, [this, f] { crash_worker(f); });
    } else if (f.kind == FaultKind::VmFailure) {
      platform.engine().schedule_at_detached(f.at, [this, f] { fail_vm(f); });
    }
    // Window faults need no scheduling: the hooks check windows on demand.
  }
}

bool ChaosInjector::in_window(const FaultSpec& f) const {
  const SimTime now = platform_->engine().now();
  return now >= f.at &&
         now < f.at + static_cast<SimTime>(f.duration > 0 ? f.duration : 0);
}

bool ChaosInjector::drop(VmId /*from*/, VmId /*to*/, net::MsgClass cls) {
  // Store traffic is attacked through the store hook, never dropped here —
  // a dropped reply would be indistinguishable from an outage anyway.
  if (cls == net::MsgClass::Store) return false;
  for (const FaultSpec& f : plan_.faults) {
    const bool matches =
        (f.kind == FaultKind::DropControl && cls == net::MsgClass::Control) ||
        (f.kind == FaultKind::DropUser && cls == net::MsgClass::Data);
    if (!matches || !in_window(f)) continue;
    if (f.probability < 1.0 && rng_.uniform01() >= f.probability) continue;
    if (cls == net::MsgClass::Control) {
      ++stats_.control_dropped;
      trace_hit("drop_control");
      note_hit(FaultKind::DropControl);
    } else {
      ++stats_.user_dropped;
      trace_hit("drop_user");
      note_hit(FaultKind::DropUser);
    }
    return true;
  }
  return false;
}

SimDuration ChaosInjector::extra_delay(VmId /*from*/, VmId /*to*/,
                                       net::MsgClass /*cls*/) {
  SimDuration extra = 0;
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind == FaultKind::NetDelay && in_window(f)) extra += f.extra;
  }
  if (extra > 0) {
    ++stats_.messages_delayed;
    trace_hit("net_delay");
    note_hit(FaultKind::NetDelay);
  }
  return extra;
}

bool ChaosInjector::unavailable(int shard) {
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::KvOutage || !in_window(f)) continue;
    if (f.shard >= 0 && f.shard != shard) continue;
    if (f.probability < 1.0 && rng_.uniform01() >= f.probability) continue;
    ++stats_.kv_outage_hits;
    trace_hit("kv_outage", {obs::arg("shard", shard)});
    note_hit(FaultKind::KvOutage);
    return true;
  }
  return false;
}

SimDuration ChaosInjector::extra_latency(int shard) {
  SimDuration extra = 0;
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::KvLatency || !in_window(f)) continue;
    if (f.shard >= 0 && f.shard != shard) continue;
    extra += f.extra;
  }
  if (extra > 0) {
    ++stats_.kv_slowdowns;
    trace_hit("kv_slow", {obs::arg("shard", shard)});
    note_hit(FaultKind::KvLatency);
  }
  return extra;
}

void ChaosInjector::crash_worker(const FaultSpec& f) {
  const auto& workers = platform_->worker_instances();
  if (workers.empty()) return;
  const int idx =
      f.target >= 0
          ? f.target % static_cast<int>(workers.size())
          : static_cast<int>(rng_.uniform_int(0, workers.size() - 1));
  if (crash_instance(idx, f.respawn, f.respawn_delay)) {
    note_hit(FaultKind::WorkerCrash);
    note_process_failure(1, "worker_crash");
  }
}

void ChaosInjector::fail_vm(const FaultSpec& f) {
  const std::vector<VmId>& vms = platform_->worker_vms();
  if (vms.empty()) return;
  const VmId vm =
      vms[f.target >= 0
              ? static_cast<std::size_t>(f.target) % vms.size()
              : static_cast<std::size_t>(rng_.uniform_int(0, vms.size() - 1))];

  // Every worker instance hosted on the VM dies at once; they relaunch in
  // place once the VM reboots.
  const auto& workers = platform_->worker_instances();
  int killed = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (platform_->executor(workers[i]).life() == dsps::LifeState::Dead) {
      continue;
    }
    if (platform_->vm_of_instance(workers[i]) != vm) continue;
    if (crash_instance(static_cast<int>(i), f.respawn, f.respawn_delay)) {
      ++killed;
    }
  }
  if (killed > 0) {
    ++stats_.vms_failed;
    trace_hit("vm_fail",
              {obs::arg("vm", static_cast<std::uint64_t>(vm.value))});
    note_hit(FaultKind::VmFailure);
    note_process_failure(killed, "vm_fail");
  }
}

bool ChaosInjector::crash_instance(int worker_index, bool respawn,
                                   SimDuration delay) {
  const auto& workers = platform_->worker_instances();
  const dsps::InstanceRef ref = workers[static_cast<std::size_t>(worker_index)];
  dsps::Executor& ex = platform_->executor(ref);
  if (ex.life() == dsps::LifeState::Dead) return false;

  const SlotId slot = ex.slot();
  platform_->cluster().vacate(slot);
  ex.kill();
  ++stats_.workers_crashed;
  trace_hit("worker_crash",
            {obs::arg("instance", static_cast<std::uint64_t>(ex.id().value))});
  if (!respawn) return true;

  platform_->engine().schedule_detached(delay, [this, ref, slot] {
    dsps::Executor& ex2 = platform_->executor(ref);
    // A rebalance may have revived the instance elsewhere, or handed its
    // old slot to someone else, while the replacement was launching.
    if (ex2.life() != dsps::LifeState::Dead) return;
    if (platform_->cluster().slot(slot).occupant.has_value()) return;
    if (!platform_->cluster().vm(platform_->cluster().vm_of(slot)).active()) {
      return;
    }
    platform_->cluster().occupy(slot, ex2.id());
    ex2.respawn(slot);
    // A stateful worker relaunching while a restore session is running
    // pends user events until INIT re-delivers its state; outside a
    // session it resumes with fresh state (the at-least-once reality of a
    // crash — no checkpoint scheme can save unacked in-flight tuples).
    // With config.respawn_restore on, a lone respawn instead starts its
    // own recovery INIT session from the last committed checkpoint, wired
    // as that checkpoint was — Storm's StatefulBoltExecutor behaviour —
    // provided no wave, session or rebalance is already in flight (those
    // paths restore it anyway or are about to re-kill it).
    dsps::CheckpointCoordinator& coord = platform_->coordinator();
    const bool stateful = platform_->topology().task(ref.task).stateful;
    bool await = stateful && coord.init_in_progress();
    bool recovery_init = false;
    if (stateful && !await && platform_->config().respawn_restore &&
        coord.last_committed() > 0 && !coord.checkpoint_in_progress() &&
        !platform_->rebalancer().in_progress()) {
      await = true;
      recovery_init = true;
    }
    ex2.set_ready(/*awaiting_init=*/await);
    ++stats_.workers_respawned;
    trace_hit("worker_respawn",
              {obs::arg("instance",
                        static_cast<std::uint64_t>(ex2.id().value))});
    if (recovery_init) {
      trace_hit("respawn_restore", {obs::arg("cid", coord.last_committed())});
      coord.run_init(coord.last_committed(), coord.last_committed_wiring(),
                     platform_->config().init_resend_period, [](bool) {});
    }
  });
  return true;
}

}  // namespace rill::chaos
