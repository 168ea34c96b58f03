#include "kvstore/sharded_store.hpp"

#include <algorithm>
#include <cassert>

namespace rill::kvstore {

namespace {

/// Virtual points per shard; enough that a 4-shard ring spreads a few dozen
/// checkpoint keys within a few percent of even.
constexpr int kVnodesPerShard = 64;

std::uint64_t splitmix64_once(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a with a splitmix finalizer — a fixed, platform-independent key
/// hash (std::hash would tie ring placement to the standard library).  Raw
/// FNV-1a avalanches poorly into the high bits for short keys, and the ring
/// lookup is ordered by exactly those bits, so sequential task keys would
/// pile into one arc; the finalizer spreads them.
std::uint64_t key_hash(const std::string& key) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return splitmix64_once(h);
}

}  // namespace

ShardedStore::ShardedStore(sim::Engine& engine, net::Network& network,
                           std::vector<VmId> hosts, StoreConfig /*config*/,
                           std::uint64_t rng_seed_base)
    : engine_(engine) {
  assert(!hosts.empty());
  shards_.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    // Shard 0 reduces to exactly the unsharded store's seed; other shards
    // fork independent jitter streams from the same base.
    const std::uint64_t seed = splitmix64_once(
        rng_seed_base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i)));
    auto store = std::make_unique<Store>(engine, network, hosts[i], Rng(seed));
    store->set_shard(static_cast<int>(i));
    shards_.push_back(std::move(store));
  }
  if (shards_.size() > 1) {
    ring_.reserve(shards_.size() * kVnodesPerShard);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      for (int v = 0; v < kVnodesPerShard; ++v) {
        const std::uint64_t point = splitmix64_once(
            (static_cast<std::uint64_t>(i) << 16 |
             static_cast<std::uint64_t>(v)) ^
            0x7269'6c6c'7368'6172ull);
        ring_.emplace_back(point, static_cast<int>(i));
      }
    }
    std::sort(ring_.begin(), ring_.end());
  }
}

int ShardedStore::shard_for(const std::string& key) const noexcept {
  if (ring_.empty()) return 0;
  const std::uint64_t h = key_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t v) {
        return p.first < v;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

void ShardedStore::put(VmId client, std::string key, Bytes value,
                       PutDone done) {
  shards_[static_cast<std::size_t>(shard_for(key))]->put(
      client, std::move(key), std::move(value), std::move(done));
}

void ShardedStore::put_batch(VmId client,
                             std::vector<std::pair<std::string, Bytes>> kvs,
                             PutDone done) {
  std::vector<std::vector<std::pair<std::string, Bytes>>> groups(
      shards_.size());
  for (auto& kv : kvs) {
    groups[static_cast<std::size_t>(shard_for(kv.first))].push_back(
        std::move(kv));
  }
  // AND-aggregate the per-shard verdicts; `done` fires once, after the
  // slowest shard answers.
  struct Gather {
    int remaining{0};
    bool ok{true};
    PutDone done;
  };
  auto gather = std::make_shared<Gather>();
  gather->done = std::move(done);
  for (const auto& g : groups) {
    if (!g.empty()) ++gather->remaining;
  }
  if (gather->remaining == 0) {
    // Empty batch: keep the request observable on shard 0 (mirrors the
    // unsharded store, which still pays one round-trip).
    shards_[0]->put_batch(client, {}, std::move(gather->done));
    return;
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].empty()) continue;
    shards_[i]->put_batch(client, std::move(groups[i]), [gather](bool ok) {
      gather->ok = gather->ok && ok;
      if (--gather->remaining == 0 && gather->done) gather->done(gather->ok);
    });
  }
}

void ShardedStore::get(VmId client, std::string key, GetDone done) {
  shards_[static_cast<std::size_t>(shard_for(key))]->get(
      client, std::move(key), std::move(done));
}

void ShardedStore::get_batch(VmId client, std::vector<std::string> keys,
                             MGetDone done) {
  if (shards_.size() == 1) {
    shards_[0]->get_batch(client, std::move(keys), std::move(done));
    return;
  }
  struct Gather {
    int remaining{0};
    bool ok{true};
    std::vector<std::optional<Bytes>> values;
    MGetDone done;
  };
  auto gather = std::make_shared<Gather>();
  gather->values.resize(keys.size());
  gather->done = std::move(done);

  // One MGET per shard, issued in parallel; each reply scatters back into
  // the request-order result slots.
  std::vector<std::vector<std::string>> shard_keys(shards_.size());
  std::vector<std::vector<std::size_t>> shard_slots(shards_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto s = static_cast<std::size_t>(shard_for(keys[i]));
    shard_keys[s].push_back(std::move(keys[i]));
    shard_slots[s].push_back(i);
  }
  for (const auto& sk : shard_keys) {
    if (!sk.empty()) ++gather->remaining;
  }
  if (gather->remaining == 0) {
    if (gather->done) gather->done(true, {});
    return;
  }
  for (std::size_t s = 0; s < shard_keys.size(); ++s) {
    if (shard_keys[s].empty()) continue;
    auto slots = std::move(shard_slots[s]);
    shards_[s]->get_batch(
        client, std::move(shard_keys[s]),
        [gather, slots = std::move(slots)](
            bool ok, std::vector<std::optional<Bytes>> values) {
          gather->ok = gather->ok && ok;
          if (ok) {
            for (std::size_t j = 0; j < slots.size(); ++j) {
              gather->values[slots[j]] = std::move(values[j]);
            }
          }
          if (--gather->remaining == 0 && gather->done) {
            gather->done(gather->ok, std::move(gather->values));
          }
        });
  }
}

void ShardedStore::del_batch(VmId client, std::vector<std::string> keys,
                             PutDone done) {
  std::vector<std::vector<std::string>> groups(shards_.size());
  for (auto& k : keys) {
    groups[static_cast<std::size_t>(shard_for(k))].push_back(std::move(k));
  }
  struct Gather {
    int remaining{0};
    bool ok{true};
    PutDone done;
  };
  auto gather = std::make_shared<Gather>();
  gather->done = std::move(done);
  for (const auto& g : groups) {
    if (!g.empty()) ++gather->remaining;
  }
  if (gather->remaining == 0) {
    shards_[0]->del_batch(client, {}, std::move(gather->done));
    return;
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].empty()) continue;
    shards_[i]->del_batch(client, std::move(groups[i]), [gather](bool ok) {
      gather->ok = gather->ok && ok;
      if (--gather->remaining == 0 && gather->done) gather->done(gather->ok);
    });
  }
}

void ShardedStore::put_pipelined(VmId client, std::string key, Bytes value,
                                 PutDone done) {
  if (shards_.size() == 1) {
    // Unsharded: no coalescing, no linger timer — the event schedule stays
    // identical to the pre-sharding store.
    shards_[0]->put(client, std::move(key), std::move(value), std::move(done));
    return;
  }
  const int shard = shard_for(key);
  PendingBatch& pb = pending_[{client.value, shard}];
  pb.kvs.emplace_back(std::move(key), std::move(value));
  pb.dones.push_back(std::move(done));
  if (!pb.armed) {
    pb.armed = true;
    engine_.schedule_detached(StoreConfig::pipeline_linger,
                     [this, cv = client.value, shard] { flush(cv, shard); });
  }
}

void ShardedStore::flush(std::uint32_t client_vm, int shard) {
  auto it = pending_.find({client_vm, shard});
  if (it == pending_.end() || it->second.kvs.empty()) return;
  PendingBatch batch = std::move(it->second);
  it->second = PendingBatch{};
  auto dones = std::make_shared<std::vector<PutDone>>(std::move(batch.dones));
  shards_[static_cast<std::size_t>(shard)]->put_batch(
      VmId{client_vm}, std::move(batch.kvs), [dones](bool ok) {
        for (PutDone& d : *dones) {
          if (d) d(ok);
        }
      });
}

void ShardedStore::set_fault_hook(FaultHook* hook) {
  for (auto& s : shards_) s->set_fault_hook(hook);
}

void ShardedStore::set_tracer(obs::Tracer* tracer) {
  for (auto& s : shards_) s->set_tracer(tracer);
}

std::optional<Bytes> ShardedStore::peek(const std::string& key) const {
  return shards_[static_cast<std::size_t>(shard_for(key))]->peek(key);
}

std::size_t ShardedStore::size() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

StoreStats ShardedStore::stats() const noexcept {
  StoreStats total;
  for (const auto& s : shards_) total += s->stats();
  return total;
}

}  // namespace rill::kvstore
