#include "dsps/platform.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/attribution.hpp"
#include "obs/trace.hpp"

namespace rill::dsps {

namespace {

std::uint64_t splitmix64_once(std::uint64_t x) noexcept {
  // Delegates to the shared mix so fields-grouping routing and the FGM
  // state partition map can never disagree about a key's owner.
  return key_hash64(x);
}

}  // namespace

Platform::Platform(sim::Engine& engine, PlatformConfig config)
    : engine_(engine),
      config_(config),
      cluster_(engine),
      rng_root_(config.seed),
      rng_net_(rng_root_.fork()),
      rng_rebalance_(rng_root_.fork()),
      rng_ids_(rng_root_.fork()) {}

Platform::~Platform() = default;

void Platform::setup_infrastructure() {
  if (network_) throw std::logic_error("infrastructure already set up");
  network_ = std::make_unique<net::Network>(engine_, cluster_,
                                            net::NetworkConfig{}, rng_net_);
  io_vm_ = cluster_.provision(cluster::VmType::D3, "io");
  const int nshards = std::max(1, config_.kv_shards);
  std::vector<VmId> store_vms;
  for (int i = 0; i < nshards; ++i) {
    // The single-shard VM keeps the historical name so existing traces and
    // reports are unchanged; shards are numbered only when there are many.
    const std::string name =
        nshards == 1 ? std::string("redis") : "redis" + std::to_string(i);
    store_vms.push_back(cluster_.provision(cluster::VmType::D3, name));
  }
  store_vm_ = store_vms.front();
  // The store tier's jitter streams are seeded independently rather than
  // forked from rng_root_, so fault-free runs draw nothing from them and
  // the pre-existing component streams stay byte-identical.
  store_ = std::make_unique<kvstore::ShardedStore>(
      engine_, *network_, std::move(store_vms), kvstore::StoreConfig{},
      config_.seed ^ 0x5743'4841'4f53'7276ull);
  acker_ = std::make_unique<AckerService>(engine_, config_.ack_timeout);
  coordinator_ = std::make_unique<CheckpointCoordinator>(*this);
  rebalancer_ = std::make_unique<Rebalancer>(*this);
}

void Platform::deploy(Topology topology, std::vector<VmId> worker_vms,
                      const Scheduler& scheduler) {
  if (!network_) throw std::logic_error("call setup_infrastructure() first");
  if (deployed_) throw std::logic_error("a topology is already deployed");
  if (!topology.validated()) topology.validate();
  topology_ = std::move(topology);
  worker_vms_ = std::move(worker_vms);

  executor_base_.assign(1, 0);
  for (const TaskDef& def : topology_.tasks()) {
    const int replicas = def.kind == TaskKind::Source ? 0 : def.parallelism;
    executor_base_.push_back(executor_base_.back() +
                             static_cast<std::size_t>(replicas));
    selectivity_permille_.push_back(
        static_cast<int>(std::lround(def.selectivity * 1000.0)));
  }
  executors_.resize(executor_base_.back());
  // Barrier fan-in per task: the coordinator injects one copy per source
  // in-edge; worker upstream tasks forward one copy per instance.
  control_fanin_.assign(topology_.tasks().size(), 0);
  for (const EdgeDef& e : topology_.edges()) {
    const TaskDef& up = topology_.task(e.from);
    control_fanin_[e.to.value] +=
        up.kind == TaskKind::Source ? 1 : up.parallelism;
  }

  // Sources and sinks live on the dedicated I/O VM (paper §5: "they are
  // not migrated, to allow logging of end-to-end statistics").
  std::vector<SlotId> io_slots = cluster_.vacant_slots_on({io_vm_});
  std::size_t io_used = 0;
  auto next_io_slot = [&]() -> SlotId {
    if (io_used >= io_slots.size()) {
      throw std::logic_error("I/O VM out of slots for sources/sinks");
    }
    return io_slots[io_used++];
  };

  for (TaskId src : topology_.sources()) {
    const InstanceId iid{next_instance_++};
    auto spout = std::make_unique<Spout>(*this, iid, InstanceRef{src, 0},
                                         config_.source_rate);
    const SlotId slot = next_io_slot();
    spout->bind_slot(slot);
    cluster_.occupy(slot, iid);
    spouts_.emplace(src, std::move(spout));
  }
  for (TaskId snk : topology_.sinks()) {
    for (int r = 0; r < topology_.task(snk).parallelism; ++r) {
      const InstanceId iid{next_instance_++};
      const InstanceRef ref{snk, r};
      auto ex = std::make_unique<Executor>(*this, iid, ref);
      const SlotId slot = next_io_slot();
      ex->bind_slot(slot);
      cluster_.occupy(slot, iid);
      ex->set_ready(false);
      executors_[executor_index(ref)] = std::move(ex);
    }
  }

  // Worker instances, placed by the scheduler on the worker VM pool.
  std::vector<InstanceRef> refs;
  for (TaskId t : topology_.workers()) {
    for (int r = 0; r < topology_.task(t).parallelism; ++r) {
      refs.push_back(InstanceRef{t, r});
    }
  }
  const Placement placement =
      scheduler.place(refs, cluster_.vacant_slots_on(worker_vms_), cluster_);
  for (const auto& [ref, slot] : placement) {
    const InstanceId iid{next_instance_++};
    auto ex = std::make_unique<Executor>(*this, iid, ref);
    ex->bind_slot(slot);
    cluster_.occupy(slot, iid);
    ex->set_ready(false);
    executors_[executor_index(ref)] = std::move(ex);
  }
  for (const auto& ex : executors_) {
    if (!ex) throw std::logic_error("scheduler left an instance unplaced");
  }
  routes_.assign(next_instance_ * topology_.edges().size(), Route{});

  for (auto& [task, spout] : spouts_) spout_list_.push_back(spout.get());
  for (TaskId t : topology_.topo_order()) {
    const TaskDef& def = topology_.task(t);
    if (def.kind == TaskKind::Source) continue;
    for (int r = 0; r < def.parallelism; ++r) {
      const InstanceRef ref{t, r};
      worker_and_sink_refs_.push_back(ref);
      if (def.kind == TaskKind::Worker) worker_refs_.push_back(ref);
    }
    for (TaskId up : topology_.upstream(t)) {
      if (topology_.task(up).kind == TaskKind::Source) {
        entry_tasks_.push_back(t);
        break;
      }
    }
  }
  for (TaskId t : topology_.sinks()) {
    for (int r = 0; r < topology_.task(t).parallelism; ++r) {
      sink_refs_.push_back(InstanceRef{t, r});
    }
  }
  deployed_ = true;
}

void Platform::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (store_) store_->set_tracer(tracer);
  if (acker_) acker_->set_tracer(tracer);
  if (tracer == nullptr) return;
  tracer->bind_clock(&engine_);
  tracer->set_process_name(1, "control-plane");
  tracer->set_process_name(2, "kv-store");
  tracer->set_process_name(3, "chaos");
  tracer->set_process_name(obs::kDataflowPid, "dataflow");
  tracer->set_process_name(obs::kTrackSinks.pid, "sinks");
  tracer->set_thread_name(obs::kTrackController, "controller");
  tracer->set_thread_name(obs::kTrackCoordinator, "coordinator");
  tracer->set_thread_name(obs::kTrackRebalancer, "rebalancer");
  tracer->set_thread_name(obs::kTrackAcker, "acker");
  if (store_ && store_->shards() > 1) {
    for (int i = 0; i < store_->shards(); ++i) {
      tracer->set_thread_name(
          obs::Track{obs::kTrackKvStore.pid, obs::kTrackKvStore.tid + i},
          "store-client" + std::to_string(i));
    }
  } else {
    tracer->set_thread_name(obs::kTrackKvStore, "store-client");
  }
  tracer->set_thread_name(obs::kTrackChaos, "injector");
  tracer->set_thread_name(obs::kTrackSinks, "sink-arrivals");
  for (const auto& [task, spout] : spouts_) {
    tracer->set_thread_name(obs::instance_track(spout->id().value),
                            topology_.task(task).name + "[src]");
  }
  for (const auto& ex : executors_) {
    tracer->set_thread_name(obs::instance_track(ex->id().value),
                            topology_.task(ex->task()).name + "[" +
                                std::to_string(ex->ref().replica) + "]");
  }
}

void Platform::sample_depths() {
  if (tracer_ == nullptr) return;
  for (const auto& ex : executors_) {
    const obs::Track track = obs::instance_track(ex->id().value);
    tracer_->counter(track, "queue_depth",
                     static_cast<double>(ex->queue_depth()));
    if (ex->capturing() || !ex->pending_capture().empty()) {
      tracer_->counter(track, "capture_pending",
                       static_cast<double>(ex->pending_capture().size()));
    }
  }
  for (const auto& [task, spout] : spouts_) {
    tracer_->counter(obs::instance_track(spout->id().value), "backlog",
                     static_cast<double>(spout->backlog()));
  }
}

void Platform::start() {
  if (!deployed_) throw std::logic_error("deploy a topology before start()");
  acker_->start();
  for (auto& [task, spout] : spouts_) spout->start();
  if (tracer_ != nullptr && !trace_sampler_) {
    trace_sampler_ = std::make_unique<sim::PeriodicTimer>(
        engine_, time::sec(1), [this] { sample_depths(); });
    trace_sampler_->start();
  }
}

void Platform::stop() {
  for (auto& [task, spout] : spouts_) spout->stop();
  acker_->stop();
  coordinator_->stop_periodic();
  if (trace_sampler_) trace_sampler_->stop();
}

void Platform::set_user_acking(bool on) { user_acking_ = on; }

std::size_t Platform::executor_index(InstanceRef ref) const {
  const std::size_t t = ref.task.value;
  if (t + 1 >= executor_base_.size() || ref.replica < 0 ||
      static_cast<std::size_t>(ref.replica) >=
          executor_base_[t + 1] - executor_base_[t]) {
    throw std::logic_error("unknown instance");
  }
  return executor_base_[t] + static_cast<std::size_t>(ref.replica);
}

Executor& Platform::executor(InstanceRef ref) {
  return *executors_[executor_index(ref)];
}

const Executor& Platform::executor(InstanceRef ref) const {
  return *executors_[executor_index(ref)];
}

Spout& Platform::spout(TaskId source_task) {
  auto it = spouts_.find(source_task);
  if (it == spouts_.end()) throw std::logic_error("unknown source task");
  return *it->second;
}

void Platform::pause_sources() {
  for (auto& [task, spout] : spouts_) spout->pause();
}

void Platform::unpause_sources() {
  for (auto& [task, spout] : spouts_) spout->unpause();
}

EventId Platform::fresh_event_id() noexcept {
  // A counter through the splitmix64 finaliser: unique (bijective) and
  // pseudo-random enough for XOR-tree hashing, yet fully deterministic.
  return splitmix64_once(++id_counter_ ^ (config_.seed << 1));
}

int Platform::shuffle_replica(InstanceId from, EdgeId edge, int parallelism) {
  if (parallelism == 1) return 0;
  int& counter = route(from, edge).shuffle;
  const int replica = counter % parallelism;
  ++counter;
  return replica;
}

int Platform::route_replica(InstanceId from, const EdgeDef& edge,
                            const Event& ev, int parallelism) {
  if (parallelism == 1) return 0;
  if (edge.grouping == Grouping::Fields) {
    // Key-affine routing: the same key always lands on the same replica,
    // independent of the sender (Storm's fieldsGrouping).
    return static_cast<int>(splitmix64_once(ev.key) %
                            static_cast<std::uint64_t>(parallelism));
  }
  return shuffle_replica(from, edge.id, parallelism);
}

int Platform::emit_user_children(Executor& from, const Event& parent) {
  const int permille = selectivity_permille_[from.task().value];
  int emitted = 0;
  for (EdgeId eid : topology_.out_edges(from.task())) {
    const EdgeDef& e = topology_.edge(eid);
    // Fractional selectivity accumulates per (instance, edge) in whole
    // per-mille, so e.g. 0.5 emits every other event, deterministically
    // and without floating-point drift.
    int& acc = route(from.id(), eid).selectivity_acc;
    acc += permille;
    const int count = acc / 1000;
    acc %= 1000;

    const TaskDef& dst_def = topology_.task(e.to);
    for (int k = 0; k < count; ++k) {
      Event child;
      child.id = fresh_event_id();
      child.root = parent.root;
      child.origin = parent.origin;
      child.producer = from.task();
      child.born_at = parent.born_at;
      child.emitted_at = engine_.now();
      child.replayed = parent.replayed;
      child.key = parent.key;
      child.payload_size = parent.payload_size;
      child.sampled = parent.sampled;

      const int replica =
          route_replica(from.id(), e, child, dst_def.parallelism);
      Executor& dst = executor(InstanceRef{e.to, replica});

      if (user_acking_) acker_->add(child.root, child.id);
      ++stats_.events_emitted;
      listener().on_emit(child);

      if (child.sampled && attributor_ != nullptr)
        attributor_->fork(parent.id, child.id, engine_.now());
      // delivery_slot == slot() except during a fluid migration, where
      // tuples whose key range already moved go to the shadow slot's VM.
      const net::SendOutcome sent = network_->send(
          cluster_.vm_of(from.slot()), cluster_.vm_of(dst.delivery_slot(child)),
          // lint: lifetime-ok(dst is a platform-owned Executor; executors_ never shrinks)
          child.payload_size, [&dst, child] { dst.enqueue(child); });
      if (child.sampled && attributor_ != nullptr) {
        if (sent.dropped)
          attributor_->on_drop(child.id);
        else if (sent.chaos_delay_us > 0)
          attributor_->on_send(child.id, sent.chaos_delay_us);
      }
      ++emitted;
    }
  }
  return emitted;
}

void Platform::emit_from_source(Spout& spout, const Event& root_copy_template,
                                bool replay) {
  listener().on_source_emit(root_copy_template, replay);
  for (EdgeId eid : topology_.out_edges(spout.task())) {
    const EdgeDef& e = topology_.edge(eid);
    const TaskDef& dst_def = topology_.task(e.to);

    Event copy = root_copy_template;
    copy.id = fresh_event_id();
    copy.emitted_at = engine_.now();

    const int replica = route_replica(spout.id(), e, copy, dst_def.parallelism);
    Executor& dst = executor(InstanceRef{e.to, replica});

    if (user_acking_) acker_->add(copy.root, copy.id);
    ++stats_.events_emitted;
    listener().on_emit(copy);

    if (copy.sampled && attributor_ != nullptr)
      attributor_->on_root_copy(copy.id, copy.root, copy.origin, copy.born_at,
                                engine_.now());
    const net::SendOutcome sent = network_->send(
        cluster_.vm_of(spout.slot()), cluster_.vm_of(dst.delivery_slot(copy)),
        // lint: lifetime-ok(dst is a platform-owned Executor; executors_ never shrinks)
        copy.payload_size, [&dst, copy] { dst.enqueue(copy); });
    if (copy.sampled && attributor_ != nullptr) {
      if (sent.dropped)
        attributor_->on_drop(copy.id);
      else if (sent.chaos_delay_us > 0)
        attributor_->on_send(copy.id, sent.chaos_delay_us);
    }
  }
}

void Platform::forward_control(Executor& from, const Event& ev) {
  for (EdgeId eid : topology_.out_edges(from.task())) {
    const EdgeDef& e = topology_.edge(eid);
    const TaskDef& dst_def = topology_.task(e.to);
    for (int r = 0; r < dst_def.parallelism; ++r) {
      Event copy = ev;
      copy.id = fresh_event_id();
      copy.emitted_at = engine_.now();
      acker_->add(ev.root, copy.id);

      Executor& dst = executor(InstanceRef{e.to, r});
      network_->send(cluster_.vm_of(from.slot()), cluster_.vm_of(dst.slot()),
                     // lint: lifetime-ok(dst is a platform-owned Executor)
                     copy.payload_size, [&dst, copy] { dst.enqueue(copy); },
                     net::MsgClass::Control);
    }
  }
}

void Platform::send_control_from_coordinator(InstanceRef dst_ref, Event ev) {
  Executor& dst = executor(dst_ref);
  network_->send(io_vm_, cluster_.vm_of(dst.slot()), ev.payload_size,
                 // lint: lifetime-ok(dst is a platform-owned Executor)
                 [&dst, ev] { dst.enqueue(ev); }, net::MsgClass::Control);
}

int Platform::control_fanin(TaskId task) const {
  return control_fanin_.at(task.value);
}

void Platform::note_lost(const Event& ev) {
  ++stats_.events_lost;
  if (ev.sampled && attributor_ != nullptr) attributor_->on_drop(ev.id);
  listener().on_lost(ev, engine_.now());
}

VmId Platform::vm_of_instance(InstanceRef ref) const {
  return cluster_.vm_of(executor(ref).slot());
}

SimDuration Platform::user_service_time(const Executor& ex) const {
  const TaskDef& def = topology_.task(ex.task());
  if (config_.vm_steal_permille <= 0) return def.service_time;
  const std::int64_t busy_neighbours =
      cluster_.busy_on(ex.slot()) - (ex.busy() ? 1 : 0);
  return def.service_time +
         def.service_time * config_.vm_steal_permille * busy_neighbours / 1000;
}

}  // namespace rill::dsps
