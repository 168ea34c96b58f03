// Consistent-hash sharded key-value tier.
//
// The paper's single Redis VM makes checkpoint persistence the restore-time
// bottleneck: COMMIT serialises one PUT per stateful task through one
// server, and INIT one GET per restoring task.  ShardedStore spreads the
// same Store API over N store VMs behind a consistent-hash ring (finalised
// FNV-1a key hash onto 64 virtual points per shard), so checkpoint traffic
// scales with
// the shard count while every key keeps a deterministic home.
//
// Two pipelining services ride on top of the ring:
//  * put_pipelined() — single-key PUTs linger briefly (pipeline_linger) and
//    flush as one put_batch per (client VM, shard), coalescing a COMMIT
//    wave's per-task snapshots into a handful of pipelined writes;
//  * get_batch() — a multi-key read splits into one MGET per shard, issued
//    in parallel, and reassembles results in request order (the INIT
//    prefetch path).
//
// With one shard the facade is a transparent pass-through: no ring hashing
// feeds any decision, put_pipelined degenerates to plain put (no linger
// timer is ever scheduled), and the single Store is constructed with the
// exact RNG seed the unsharded platform used — runs with --kv-shards 1 stay
// byte-identical to the pre-sharding baseline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/pinned.hpp"
#include "kvstore/store.hpp"

namespace rill::kvstore {

class RILL_PINNED ShardedStore {
 public:
  using PutDone = Store::PutDone;
  using GetDone = Store::GetDone;
  using MGetDone = Store::MGetDone;
  using FaultHook = Store::FaultHook;

  /// One Store per host VM.  `rng_seed_base` seeds shard 0 exactly as the
  /// unsharded store was seeded; further shards derive independent streams
  /// from it.  The StoreConfig argument carries no value: every StoreConfig
  /// value is a compile-time constant.
  ShardedStore(sim::Engine& engine, net::Network& network,
               std::vector<VmId> hosts, StoreConfig config,
               std::uint64_t rng_seed_base);

  // ---- Store-compatible API (routed by key) ----
  void put(VmId client, std::string key, Bytes value, PutDone done);
  void put_batch(VmId client, std::vector<std::pair<std::string, Bytes>> kvs,
                 PutDone done);
  void get(VmId client, std::string key, GetDone done);
  void get_batch(VmId client, std::vector<std::string> keys, MGetDone done);
  /// Pipelined multi-DELETE: one MDEL per owning shard, verdicts
  /// AND-aggregated like put_batch.  Delta-checkpoint compaction uses this
  /// to drop superseded blobs in one round-trip per shard.
  void del_batch(VmId client, std::vector<std::string> keys, PutDone done);

  /// Coalescing PUT for checkpoint COMMIT traffic: lingers for
  /// StoreConfig::pipeline_linger collecting same-(client,shard) writes, then
  /// flushes them as one pipelined put_batch.  Every caller's `done`
  /// observes the batch verdict.  With one shard this is a plain put().
  void put_pipelined(VmId client, std::string key, Bytes value, PutDone done);

  void set_fault_hook(FaultHook* hook);
  void set_tracer(obs::Tracer* tracer);

  // ---- inspection ----
  [[nodiscard]] std::optional<Bytes> peek(const std::string& key) const;
  [[nodiscard]] std::size_t size() const noexcept;
  /// Rolled-up counters across every shard.
  [[nodiscard]] StoreStats stats() const noexcept;
  [[nodiscard]] const StoreStats& shard_stats(int shard) const noexcept {
    return shards_[static_cast<std::size_t>(shard)]->stats();
  }
  [[nodiscard]] int shards() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] Store& shard(int i) noexcept {
    return *shards_[static_cast<std::size_t>(i)];
  }

  /// Ring lookup: which shard owns `key`.  Pure function of the key and the
  /// shard count (no RNG), so placement is reproducible across runs.
  [[nodiscard]] int shard_for(const std::string& key) const noexcept;

 private:
  struct PendingBatch {
    std::vector<std::pair<std::string, Bytes>> kvs;
    std::vector<PutDone> dones;
    bool armed{false};
  };

  void flush(std::uint32_t client_vm, int shard);

  sim::Engine& engine_;
  std::vector<std::unique_ptr<Store>> shards_;
  /// Sorted consistent-hash ring: (point, shard index).  Empty when there
  /// is only one shard.
  std::vector<std::pair<std::uint64_t, int>> ring_;
  /// Linger buffers for put_pipelined, keyed (client VM, shard).
  std::map<std::pair<std::uint32_t, int>, PendingBatch> pending_;
};

}  // namespace rill::kvstore
