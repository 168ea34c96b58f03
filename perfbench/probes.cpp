// Per-layer probes: timed loops over one layer's public functions, on
// inputs shaped like the workload's (instance count, key count, mean
// checkpoint blob size, store shard count).
#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "dsps/acker.hpp"
#include "dsps/platform.hpp"
#include "dsps/state.hpp"
#include "kvstore/sharded_store.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "workloads/dags.hpp"
#include "workloads/scenario.hpp"

namespace rill::perfbench {

namespace {

/// Results land here so the optimiser cannot drop the probed work.
volatile std::uint64_t g_sink = 0;

struct Timed {
  double ns_per_op{0.0};
  double allocs_per_op{0.0};
};

/// Runs `batch` (which returns the operations it did) until `budget_s`
/// wall seconds have passed, at least once.
template <typename F>
Timed time_batches(double budget_s, F&& batch) {
  const HeapStats h0 = heap_stats();
  const double t0 = wall_now();
  double t = t0;
  std::uint64_t ops = 0;
  do {
    ops += batch();
    t = wall_now();
  } while (t - t0 < budget_s);
  const HeapStats h1 = heap_stats();
  const auto n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  return {1e9 * (t - t0) / n, static_cast<double>(h1.allocs - h0.allocs) / n};
}

std::string state_key(std::uint64_t k) { return "key/" + std::to_string(k); }

std::vector<Metric> probe_sim(const ProbeShape&, double budget_s) {
  constexpr int kBatch = 4096;
  sim::Engine engine;
  dsps::Event ev;
  std::uint64_t sum = 0;
  const Timed t = time_batches(budget_s, [&] {
    const SimTime base = engine.now();
    for (int i = 0; i < kBatch; ++i) {
      ev.id = static_cast<EventId>(i);
      engine.schedule_at_detached(base + 1 + static_cast<SimTime>(i),
                                  [ev, &sum] { sum += ev.id; });
    }
    while (engine.step()) {
    }
    return kBatch;
  });
  g_sink = sum;
  return {{"sim.event_ns", t.ns_per_op, "ns"},
          {"sim.event_allocs", t.allocs_per_op, "allocs/event"}};
}

std::vector<Metric> probe_net(const ProbeShape& shape, double budget_s) {
  constexpr int kBatch = 4096;
  sim::Engine engine;
  cluster::Cluster cluster(engine);
  const int n_vms = std::max(2, shape.instances / 2);
  const std::vector<VmId> vms =
      cluster.provision_n(cluster::VmType::D2, n_vms, "d2");
  net::Network network(engine, cluster, net::NetworkConfig{}, Rng(shape.config.platform.seed));
  std::uint64_t delivered = 0;
  const Timed t = time_batches(budget_s, [&] {
    for (int i = 0; i < kBatch; ++i) {
      const auto from = static_cast<std::size_t>(i % n_vms);
      const auto to = static_cast<std::size_t>((i * 7 + 1) % n_vms);
      network.send(vms[from], vms[to], 64, [&delivered] { ++delivered; });
    }
    engine.run();
    return kBatch;
  });
  g_sink = delivered;
  return {{"net.send_ns", t.ns_per_op, "ns"}};
}

std::vector<Metric> probe_dsps(const ProbeShape& shape, double budget_s) {
  // A platform deployed through its public API, as run_experiment does.
  sim::Engine engine;
  dsps::Platform platform(engine, shape.config.platform);
  platform.setup_infrastructure();
  dsps::Topology topo =
      workloads::build_dag(shape.config.dag, shape.config.platform.source_rate);
  const workloads::VmPlan plan = workloads::vm_plan_for(topo);
  const std::vector<VmId> vms = platform.cluster().provision_n(
      cluster::VmType::D2, plan.default_d2_vms, "d2");
  dsps::RoundRobinScheduler scheduler;
  platform.deploy(std::move(topo), vms, scheduler);

  const std::vector<dsps::InstanceRef> refs =
      platform.worker_and_sink_instances();
  std::uint64_t sum = 0;
  const Timed t = time_batches(budget_s, [&] {
    for (int rep = 0; rep < 64; ++rep) {
      for (const dsps::InstanceRef& ref : refs) {
        sum += platform.executor(ref).id().value;
      }
    }
    return 64 * refs.size();
  });
  g_sink = sum;
  return {{"dsps.lookup_ns", t.ns_per_op, "ns"}};
}

/// A task state holding one counter per key of the workload.
dsps::TaskState keyed_state(std::uint64_t keys) {
  dsps::TaskState state;
  for (std::uint64_t k = 0; k < keys; ++k) {
    state[state_key(k)] = static_cast<std::int64_t>(k);
  }
  state["processed"] = 1;
  state.clear_dirty();
  return state;
}

std::vector<Metric> probe_state(const ProbeShape& shape, double budget_s) {
  // Executor::apply_user_logic's per-tuple key mix (per-key counters only
  // on the keyed DAG); the dirty set is cleared every 64 tuples, as a
  // checkpoint would.
  constexpr int kBatch = 64;
  const bool keyed = shape.config.dag == workloads::DagKind::Keyed;
  const std::uint64_t keys = shape.config.platform.key_cardinality;
  dsps::TaskState state;
  Rng rng(shape.config.platform.seed);
  const Timed update = time_batches(budget_s / 2, [&] {
    for (int i = 0; i < kBatch; ++i) {
      state["processed"] += 1;
      state["sig"] ^= static_cast<std::int64_t>(rng.next());
      if (keyed) state[state_key(rng.next() % keys)] += 1;
      state["v" + std::to_string(0)] += 1;
    }
    state.clear_dirty();
    return kBatch;
  });

  // One FGM pass: every key-range partition (the reserved one too) is
  // extracted and merged back.
  dsps::TaskState full = keyed_state(keys);
  const dsps::StatePartitionMap map(shape.config.platform.fgm_batch_keys);
  const Timed partition = time_batches(budget_s / 2, [&] {
    std::uint64_t moved = 0;
    for (int p = 0; p <= map.reserved(); ++p) {
      dsps::TaskState part = dsps::extract_partition(full, map, p);
      moved += part.counters.size();
      dsps::merge_partition(full, part);
    }
    return moved;
  });
  g_sink = full.counters.size();
  return {{"dsps.state.update_ns", update.ns_per_op, "ns"},
          {"dsps.state.update_allocs", update.allocs_per_op, "allocs/tuple"},
          {"dsps.state.partition_ns_per_key", partition.ns_per_op, "ns/key"}};
}

std::vector<Metric> probe_checkpoint(const ProbeShape& shape,
                                     double budget_s) {
  // Serde of a blob the size of the run's mean persisted blob.
  dsps::CheckpointBlob blob;
  blob.checkpoint_id = 3;
  blob.state["processed"] = 1;
  for (std::uint64_t k = 0; blob.serialize().size() < shape.blob_bytes;) {
    for (int i = 0; i < 16; ++i, ++k) {
      blob.state[state_key(k)] = static_cast<std::int64_t>(k);
    }
  }
  const Timed serde = time_batches(budget_s / 2, [&] {
    const Bytes raw = blob.serialize();
    const dsps::CheckpointBlob back = dsps::CheckpointBlob::deserialize(raw);
    g_sink = back.state.counters.size();
    return raw.size();
  });

  // Delta build and apply with one key in eight dirty.
  const std::uint64_t keys = shape.config.platform.key_cardinality;
  dsps::TaskState state = keyed_state(keys);
  dsps::TaskState base = state;
  Rng rng(shape.config.platform.seed);
  for (std::uint64_t i = 0; i < std::max<std::uint64_t>(keys / 8, 1); ++i) {
    state[state_key(rng.next() % keys)] += 1;
  }
  const Timed delta = time_batches(budget_s / 2, [&] {
    const dsps::CheckpointBlob d =
        dsps::CheckpointBlob::make_delta(2, 1, state, {});
    d.apply_delta_to(base);
    return d.changed.size() + d.deleted.size();
  });
  return {{"dsps.checkpoint.serde_ns_per_kb", serde.ns_per_op * 1024.0, "ns/KB"},
          {"dsps.checkpoint.delta_ns_per_key", delta.ns_per_op, "ns/key"}};
}

std::vector<Metric> probe_acker(const ProbeShape& shape, double budget_s) {
  // One root and a 16-hop chain of derived events per batch.
  constexpr int kHops = 16;
  sim::Engine engine;
  dsps::AckerService acker(engine, time::sec(30));
  Rng rng(shape.config.platform.seed);
  std::uint64_t completed = 0;
  const Timed t = time_batches(budget_s, [&] {
    const RootId root = rng.next();
    acker.register_root(root, [&completed](RootId) { ++completed; },
                        [](RootId) {});
    EventId prev = root;
    for (int hop = 0; hop < kHops; ++hop) {
      const EventId child = rng.next();
      acker.add(root, child);
      acker.ack(root, prev);
      prev = child;
    }
    acker.ack(root, prev);
    return kHops + 1;
  });
  g_sink = completed;
  return {{"dsps.acker.edge_ns", t.ns_per_op, "ns"}};
}

std::vector<Metric> probe_kvstore(const ProbeShape& shape,
                                  double budget_s) {
  // One checkpoint wave's worth of blobs (one per instance) written with
  // put_batch and read back with get_batch, through an engine.
  sim::Engine engine;
  cluster::Cluster cluster(engine);
  const std::vector<VmId> hosts = cluster.provision_n(
      cluster::VmType::D3, std::max(1, shape.config.platform.kv_shards), "kv");
  const VmId client = cluster.provision(cluster::VmType::D2, "client");
  net::Network network(engine, cluster, net::NetworkConfig{}, Rng(shape.config.platform.seed));
  kvstore::ShardedStore store(engine, network, hosts, kvstore::StoreConfig{},
                              shape.config.platform.seed);
  const Bytes value(shape.blob_bytes, 0xab);
  std::vector<std::string> keys;
  for (int i = 0; i < std::max(1, shape.instances); ++i) {
    keys.push_back("ckpt/" + std::to_string(i));
  }
  std::uint64_t ok = 0;
  const Timed t = time_batches(budget_s, [&] {
    std::vector<std::pair<std::string, Bytes>> kvs;
    kvs.reserve(keys.size());
    for (const std::string& k : keys) kvs.emplace_back(k, value);
    store.put_batch(client, std::move(kvs), [&ok](bool done) { ok += done; });
    engine.run();
    store.get_batch(client, keys,
                    [&ok](bool done, std::vector<std::optional<Bytes>> v) {
                      ok += done ? v.size() : 0;
                    });
    engine.run();
    return 2 * keys.size();
  });
  g_sink = ok;
  return {{"kvstore.op_ns", t.ns_per_op, "ns"}};
}

std::vector<Metric> probe_metrics(const ProbeShape&, double budget_s) {
  constexpr int kBatch = 4096;
  constexpr std::uint64_t kArrivalsPerCollector = 1u << 18;
  auto collector = std::make_unique<metrics::Collector>();
  collector->set_request_time(0);
  dsps::Event ev;
  SimTime now = 0;
  const Timed t = time_batches(budget_s, [&] {
    if (collector->sink_arrivals() >= kArrivalsPerCollector) {
      collector = std::make_unique<metrics::Collector>();
      collector->set_request_time(0);
      now = 0;
    }
    for (int i = 0; i < kBatch; ++i) {
      ev.id = ev.origin = now;
      ev.born_at = now;
      collector->on_emit(ev);
      collector->on_sink_arrival(ev, now + 1000);
      now += 100;
    }
    return kBatch;
  });
  g_sink = collector->sink_arrivals();
  return {{"metrics.arrival_ns", t.ns_per_op, "ns"}};
}

}  // namespace

const std::vector<Probe>& all_probes() {
  static const std::vector<Probe> kProbes = {
      {"sim", probe_sim},
      {"net", probe_net},
      {"dsps", probe_dsps},
      {"dsps.state", probe_state},
      {"dsps.checkpoint", probe_checkpoint},
      {"dsps.acker", probe_acker},
      {"kvstore", probe_kvstore},
      {"metrics", probe_metrics},
  };
  return kProbes;
}

}  // namespace rill::perfbench
