// StreamPlatform: the Storm-like DSPS that everything runs on.
//
// Owns the simulated infrastructure (cluster, network, key-value store),
// the platform services (acker, checkpoint coordinator, rebalancer) and
// the deployed dataflow (spouts + executors), and provides the routing and
// checkpoint-wiring services the paper's migration strategies drive.
//
// Layout decisions match the paper's experiment setup (§5): source and
// sink instances are pinned to a dedicated 4-slot "I/O" VM that is never
// migrated; the store runs on its own VM; worker instances are placed on
// the worker VM pool by a pluggable scheduler (Storm round-robin default).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "common/island.hpp"
#include "common/rng.hpp"
#include "dsps/acker.hpp"
#include "dsps/checkpoint.hpp"
#include "dsps/config.hpp"
#include "dsps/event.hpp"
#include "dsps/executor.hpp"
#include "dsps/listener.hpp"
#include "dsps/rebalance.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/spout.hpp"
#include "dsps/topology.hpp"
#include "kvstore/sharded_store.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace rill::obs {
class Tracer;
class MetricsRegistry;
class LatencyAttributor;
}

namespace rill::ckpt {
class RecoveryTracker;
}

namespace rill::dsps {

struct PlatformStats {
  std::uint64_t events_emitted{0};
  std::uint64_t events_lost{0};
  std::uint64_t replayed_emissions{0};  ///< emissions tainted `replayed`
};

class RILL_ISLAND(ctrl) RILL_PINNED Platform {
 public:
  Platform(sim::Engine& engine, PlatformConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // ---- infrastructure ----
  /// Provision the I/O VM (sources/sinks/coordinator) and the store VM.
  /// Must be called before deploy().
  void setup_infrastructure();

  /// Deploy a validated topology: spouts/sinks on the I/O VM, worker
  /// instances on `worker_vms` via `scheduler`.
  void deploy(Topology topology, std::vector<VmId> worker_vms,
              const Scheduler& scheduler);

  /// Start the sources and platform timers.
  void start();
  /// Stop sources and timers (end of experiment).
  void stop();

  // ---- component access ----
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const PlatformConfig& config() const noexcept { return config_; }
  [[nodiscard]] PlatformConfig& config_mut() noexcept { return config_; }
  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] kvstore::ShardedStore& store() noexcept { return *store_; }
  [[nodiscard]] AckerService& acker() noexcept { return *acker_; }
  [[nodiscard]] CheckpointCoordinator& coordinator() noexcept { return *coordinator_; }
  [[nodiscard]] Rebalancer& rebalancer() noexcept { return *rebalancer_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  [[nodiscard]] VmId io_vm() const noexcept { return io_vm_; }
  /// Shard 0's host (the only store VM when kv_shards == 1).
  [[nodiscard]] VmId store_vm() const noexcept { return store_vm_; }
  /// Every store-tier VM, one per shard.
  [[nodiscard]] const std::vector<VmId>& store_vms() const noexcept {
    return store_vms_;
  }
  [[nodiscard]] const std::vector<VmId>& worker_vms() const noexcept {
    return worker_vms_;
  }

  // ---- session knobs (set by migration strategies) ----
  void set_user_acking(bool on);
  [[nodiscard]] bool user_acking() const noexcept { return user_acking_; }
  void set_checkpoint_mode(CheckpointMode m) noexcept { checkpoint_mode_ = m; }
  [[nodiscard]] CheckpointMode checkpoint_mode() const noexcept {
    return checkpoint_mode_;
  }
  /// Incremental checkpointing: COMMIT persists dirty-key deltas instead of
  /// the full state map when a valid base blob exists.  Seeded from
  /// config.ckpt_delta; strategies re-affirm (or veto) it in configure()
  /// alongside the acking / wiring knobs.
  void set_delta_checkpointing(bool on) noexcept { delta_checkpointing_ = on; }
  [[nodiscard]] bool delta_checkpointing() const noexcept {
    return delta_checkpointing_;
  }

  void set_listener(EventListener* listener) noexcept { listener_ = listener; }
  [[nodiscard]] EventListener& listener() noexcept {
    return listener_ ? *listener_ : null_listener_;
  }

  // ---- observability (flight recorder) ----
  /// Attach a span tracer.  Call after setup_infrastructure() (ideally
  /// after deploy(), so instance lanes get named); binds the tracer to the
  /// sim clock, propagates it to the store and acker, and — once start()
  /// runs — samples queue depths and backlogs once per second.  Hot paths
  /// guard on the raw pointer: a run without a tracer pays one branch.
  void set_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }
  /// Attach a per-task metrics registry (counters/gauges/histograms).
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }
  /// Attach the end-to-end recovery tracker (ckpt/recovery.hpp).  Purely
  /// passive — it schedules nothing — so attaching it never perturbs the
  /// event schedule; the rebalancer, executors and coordinator feed it
  /// failure / ready / INIT-completion edges when present.
  void set_recovery_tracker(ckpt::RecoveryTracker* tracker) noexcept {
    recovery_ = tracker;
  }
  [[nodiscard]] ckpt::RecoveryTracker* recovery() const noexcept {
    return recovery_;
  }
  /// Attach the per-tuple latency attributor (obs/attribution.hpp).  Like
  /// the recovery tracker it is purely passive — it schedules nothing and
  /// draws no RNG — but unlike the tracer it also gates the spout-side
  /// sampling decision: with no attributor attached, no event is ever
  /// tainted `sampled` and every hot-path stamp stays one branch.
  void set_attributor(obs::LatencyAttributor* attributor) noexcept {
    attributor_ = attributor;
  }
  [[nodiscard]] obs::LatencyAttributor* attributor() const noexcept {
    return attributor_;
  }

  // ---- dataflow access ----
  [[nodiscard]] Executor& executor(InstanceRef ref);
  [[nodiscard]] const Executor& executor(InstanceRef ref) const;
  [[nodiscard]] Spout& spout(TaskId source_task);
  [[nodiscard]] std::vector<Spout*> spouts();
  /// All worker + sink instance refs in topology order.
  [[nodiscard]] std::vector<InstanceRef> worker_and_sink_instances() const;
  /// Worker instance refs only (the migrating set).
  [[nodiscard]] std::vector<InstanceRef> worker_instances() const;
  [[nodiscard]] std::vector<InstanceRef> sink_instances() const;

  void pause_sources();
  void unpause_sources();

  // ---- services used by executors / spouts / coordinator ----
  [[nodiscard]] EventId fresh_event_id() noexcept;

  /// Emit the user-event children of `parent` from `from` along every
  /// out-edge (duplicate semantics), honouring selectivity, the acker and
  /// the listener.  Returns the number of children emitted.
  int emit_user_children(Executor& from, const Event& parent);

  /// Spout root emission: one copy per source out-edge, shuffle-routed.
  void emit_from_source(Spout& spout, const Event& root_copy_template,
                        bool replay);

  /// Forward control-event copies from `from` to every instance of each
  /// downstream task (sequential checkpoint wiring).
  void forward_control(Executor& from, const Event& ev);

  /// Send one control copy from the coordinator (I/O VM) to an instance.
  void send_control_from_coordinator(InstanceRef dst, Event ev);

  /// Number of control-event copies an instance of `task` must collect for
  /// barrier alignment of a sequentially-wired wave.
  [[nodiscard]] int control_fanin(TaskId task) const;

  /// Entry tasks: workers with at least one Source upstream (per-edge).
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;

  /// Report a lost event (dead destination or killed queue).
  void note_lost(const Event& ev);

  [[nodiscard]] const PlatformStats& stats() const noexcept { return stats_; }

  /// Deterministic RNG streams forked from the config seed.
  [[nodiscard]] Rng& rng_rebalance() noexcept { return rng_rebalance_; }

  /// VM hosting an instance's current slot.
  [[nodiscard]] VmId vm_of_instance(InstanceRef ref) const;

  /// Effective service time for a user event at `ex`: the task's base
  /// service time, dilated by vm_steal_permille for every other busy
  /// executor colocated on the same VM (noisy-neighbour CPU steal).
  /// Integer-µs arithmetic; with the knob at 0 this is exactly the base.
  [[nodiscard]] SimDuration user_service_time(const Executor& ex) const;

 private:
  friend class Rebalancer;

  /// Routing state of one (sender instance, edge) pair.
  struct Route {
    /// Shuffle-grouping round-robin counter.
    int shuffle{0};
    /// Fractional-selectivity accumulator, in per-mille.
    int selectivity_acc{0};
  };
  [[nodiscard]] Route& route(InstanceId from, EdgeId edge) noexcept {
    return routes_[from.value * topology_.edges().size() + edge.value];
  }
  /// Position of `ref` in executors_; throws for refs with no executor.
  [[nodiscard]] std::size_t executor_index(InstanceRef ref) const;

  /// Choose a destination replica for a user event on `edge` (shuffle).
  int shuffle_replica(InstanceId from, EdgeId edge, int parallelism);
  /// Grouping-aware replica choice: Fields routes by hash(event key).
  int route_replica(InstanceId from, const EdgeDef& edge, const Event& ev,
                    int parallelism);

  sim::Engine& engine_;
  PlatformConfig config_;
  cluster::Cluster cluster_;
  Rng rng_root_;
  Rng rng_net_;
  Rng rng_rebalance_;
  Rng rng_ids_;
  std::uint64_t id_counter_{0};

  std::unique_ptr<net::Network> network_;
  std::unique_ptr<kvstore::ShardedStore> store_;
  std::unique_ptr<AckerService> acker_;
  std::unique_ptr<CheckpointCoordinator> coordinator_;
  std::unique_ptr<Rebalancer> rebalancer_;

  Topology topology_{"unset"};
  bool deployed_{false};
  VmId io_vm_{};
  VmId store_vm_{};
  std::vector<VmId> store_vms_;
  std::vector<VmId> worker_vms_;

  /// Worker and sink executors, ordered by (task, replica): task t's
  /// replicas sit at [executor_base_[t], executor_base_[t + 1]).  Sources
  /// have an empty range.
  std::vector<std::unique_ptr<Executor>> executors_;
  std::vector<std::size_t> executor_base_;
  std::map<TaskId, std::unique_ptr<Spout>> spouts_;
  std::uint32_t next_instance_{1};

  bool user_acking_{false};
  CheckpointMode checkpoint_mode_{CheckpointMode::Wave};
  bool delta_checkpointing_{false};

  EventListener* listener_{nullptr};
  EventListener null_listener_;

  obs::Tracer* tracer_{nullptr};
  obs::MetricsRegistry* metrics_{nullptr};
  ckpt::RecoveryTracker* recovery_{nullptr};
  obs::LatencyAttributor* attributor_{nullptr};
  /// 1 Hz sampler feeding queue-depth / backlog counters into the tracer;
  /// only ever created when a tracer is attached, so untraced runs schedule
  /// nothing extra and stay byte-identical.
  std::unique_ptr<sim::PeriodicTimer> trace_sampler_;
  void sample_depths();

  /// Per (sender InstanceId, EdgeId) routing state, row-major by instance.
  std::vector<Route> routes_;
  /// Each task's selectivity rounded to whole per-mille at deploy.
  std::vector<int> selectivity_permille_;

  PlatformStats stats_;
};

}  // namespace rill::dsps
