// Task state and checkpoint blobs.
//
// Stateful tasks own a TaskState that their user logic mutates per event
// (the paper's example: counts of events seen, windows for aggregation).
// A checkpoint persists the state — and, for CCR, the captured pending
// events — to the key-value store as one serialised blob per task instance.
//
// Delta checkpointing: TaskState records which keys were upserted or erased
// since the last `clear_dirty()` (i.e. since the last blob that persisted
// them).  A CheckpointBlob can then take a *delta* form — base checkpoint id
// plus only the changed/deleted keys — instead of the full ordered map.  The
// CCR pending-capture list is always carried in full; only user state is
// deltified.  Full blobs keep the pre-delta wire format byte-for-byte, so
// runs with delta mode off are unchanged on the wire.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "dsps/event.hpp"

namespace rill::dsps {

/// In-memory state of a stateful task instance.  An ordered map keeps
/// serialisation deterministic; ordered dirty/deleted sets keep delta
/// serialisation deterministic too.  All three use transparent comparison,
/// so a string_view key is looked up without building a std::string.
struct TaskState {
  using Counters = std::map<std::string, std::int64_t, std::less<>>;
  using KeySet = std::set<std::string, std::less<>>;

  Counters counters;

  /// Mutable access marks the key dirty (and revives it if it was deleted).
  /// Direct mutation through `counters` bypasses dirty tracking and must
  /// only be used by code that never checkpoints incrementally (tests).
  /// One search per container; a key string is built only on first insert.
  std::int64_t& operator[](std::string_view key) {
    upsert(dirty_, key);
    if (auto it = deleted_.find(key); it != deleted_.end()) deleted_.erase(it);
    return upsert(counters, key)->second;
  }

  /// Removes a key, recording the deletion for the next delta.  An absent
  /// key is still tombstoned: it may exist in the persisted base even
  /// though it is already gone from memory.
  void erase(std::string_view key) {
    if (auto it = counters.find(key); it != counters.end()) counters.erase(it);
    if (auto it = dirty_.find(key); it != dirty_.end()) dirty_.erase(it);
    upsert(deleted_, key);
  }

  [[nodiscard]] std::int64_t get(std::string_view key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
  }

  /// Equality is over the user-visible map only: a deserialized state is
  /// clean while the original may carry dirty bookkeeping.
  friend bool operator==(const TaskState& a, const TaskState& b) {
    return a.counters == b.counters;
  }

  [[nodiscard]] const KeySet& dirty_keys() const noexcept { return dirty_; }
  [[nodiscard]] const KeySet& deleted_keys() const noexcept { return deleted_; }
  [[nodiscard]] bool has_dirty() const noexcept {
    return !dirty_.empty() || !deleted_.empty();
  }

  /// Forgets all recorded changes — called after the changes were persisted
  /// (full or delta blob) so the next delta starts from this point.
  void clear_dirty() {
    dirty_.clear();
    deleted_.clear();
  }

  /// PREPARE hand-over: makes `snap` a copy of this map that owns the
  /// recorded changes, and leaves this state clean.  The result equals
  /// `snap = *this; clear_dirty();`, but the dirty and deleted sets move
  /// instead of being copied, and `snap`'s map nodes are reused.
  void hand_over_snapshot(TaskState& snap) {
    snap.counters = counters;
    snap.dirty_ = std::move(dirty_);
    snap.deleted_ = std::move(deleted_);
    clear_dirty();
  }

  /// Unions `other`'s recorded changes into ours.  Used on ROLLBACK: the
  /// prepared snapshot's dirty set (changes that were never persisted) must
  /// flow back into the live state so the next blob still covers them.
  void merge_dirty_from(const TaskState& other) {
    for (const auto& k : other.dirty_) {
      dirty_.insert(k);
      deleted_.erase(k);
    }
    for (const auto& k : other.deleted_) {
      if (counters.find(k) == counters.end()) {
        dirty_.erase(k);
        deleted_.insert(k);
      }
    }
  }

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static TaskState deserialize(BytesReader& r);

 private:
  /// Find-or-insert with a single tree search.
  static Counters::iterator upsert(Counters& map, std::string_view key) {
    auto it = map.lower_bound(key);
    if (it == map.end() || it->first != key) it = map.emplace_hint(it, key, 0);
    return it;
  }
  static void upsert(KeySet& set, std::string_view key) {
    auto it = set.lower_bound(key);
    if (it == set.end() || *it != key) set.emplace_hint(it, key);
  }

  KeySet dirty_;
  KeySet deleted_;
};

/// Serialisation of a single event for the CCR pending-event list.
void serialize_event(BytesWriter& w, const Event& ev);
[[nodiscard]] Event deserialize_event(BytesReader& r);

/// What one task instance persists at COMMIT time: the user state snapshot
/// taken at PREPARE, plus (CCR only) the captured in-flight events.
///
/// Two wire forms share one type:
///   * full  (base_checkpoint_id == 0): `state` holds the whole map; the
///     serialised bytes are identical to the pre-delta format.
///   * delta (base_checkpoint_id != 0): `changed`/`deleted` hold only the
///     keys touched since the base blob; `state` is unused.  The serialised
///     form is prefixed with a magic u64 (~0) that can never collide with a
///     real checkpoint id.
struct CheckpointBlob {
  std::uint64_t checkpoint_id{0};
  std::uint64_t base_checkpoint_id{0};
  TaskState state;
  std::map<std::string, std::int64_t> changed;
  std::vector<std::string> deleted;
  std::vector<Event> pending;

  [[nodiscard]] bool is_delta() const noexcept {
    return base_checkpoint_id != 0;
  }

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static CheckpointBlob deserialize(const Bytes& raw);

  /// The two wire forms written straight from a state and a pending list,
  /// without building a blob.  encode_full gives the bytes of a full blob
  /// holding `state`; encode_delta gives those of
  /// make_delta(cid, base_cid, state, pending).serialize().
  [[nodiscard]] static Bytes encode_full(std::uint64_t cid,
                                         const TaskState& state,
                                         std::span<const Event> pending);
  [[nodiscard]] static Bytes encode_delta(std::uint64_t cid,
                                          std::uint64_t base_cid,
                                          const TaskState& state,
                                          std::span<const Event> pending);

  /// Exact sizes of encode_full / encode_delta for `state` with no pending
  /// events, computed without encoding: the full form from one pass over
  /// the map, the delta form from the dirty and deleted sets.
  [[nodiscard]] static std::size_t full_size(const TaskState& state);
  [[nodiscard]] static std::size_t delta_size(const TaskState& state);

  /// The delta-or-full size guard: true unless `state`'s delta form is
  /// larger than `max_ratio` times its full form, both without pending
  /// events (the two forms carry the same list).  A delta close to the
  /// full state only lengthens the restore chain.
  [[nodiscard]] static bool delta_within_ratio(const TaskState& state,
                                               double max_ratio);

  /// Builds a delta blob carrying `state`'s dirty/deleted keys on top of
  /// the blob committed as `base_cid`.  The pending list is always full.
  [[nodiscard]] static CheckpointBlob make_delta(std::uint64_t cid,
                                                 std::uint64_t base_cid,
                                                 const TaskState& state,
                                                 std::vector<Event> pending);

  /// Applies this delta's upserts and deletions on top of `base` (which
  /// must be the reconstructed state at `base_checkpoint_id`).
  void apply_delta_to(TaskState& base) const;

  /// Peeks the base checkpoint id of a serialised blob without a full
  /// decode.  Returns nullopt for full blobs and for malformed buffers.
  [[nodiscard]] static std::optional<std::uint64_t> delta_base_of(
      const Bytes& raw) noexcept;

  /// Store key for a given wave / task instance.
  [[nodiscard]] static std::string key(std::uint64_t checkpoint_id,
                                       TaskId task, int replica);

  /// Store key for one FGM key-batch transfer.  Lives in its own "fgm/"
  /// namespace so batch blobs can never collide with checkpoint-wave blobs.
  [[nodiscard]] static std::string fgm_key(std::uint64_t batch_seq,
                                           TaskId task, int replica);
};

/// The mix the platform's fields-grouping uses to route an event key to a
/// replica (splitmix64 finalizer over key + the golden-ratio increment).
/// The partition map reuses it so "which replica owns key k" and "which
/// partition holds key k's state" are the same pure function of k.
[[nodiscard]] constexpr std::uint64_t key_hash64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Splits a task's keyed state into `partitions` key-range buckets plus one
/// *reserved* bucket for everything that is not per-key ("processed",
/// "sig", window counters, …).  Keyed entries are the `"key/<n>"` counters
/// fieldsGrouping tasks write; bucket = key_hash64(n) % partitions.
///
/// Partition counts nest: because assignment is a modulus over the same
/// hash, partition p under n is exactly the union of partitions p and p+n
/// under 2n — so a map can be split (n → 2n) or merged (2n → n) without any
/// key changing owner relative to the coarser map.
class StatePartitionMap {
 public:
  /// `partitions` is clamped below at 1.
  explicit StatePartitionMap(int partitions) noexcept
      : partitions_(partitions < 1 ? 1 : partitions) {}

  [[nodiscard]] int partitions() const noexcept { return partitions_; }

  /// Index of the reserved (non-keyed) bucket: one past the key ranges.
  [[nodiscard]] int reserved() const noexcept { return partitions_; }

  [[nodiscard]] int partition_of_key(std::uint64_t key) const noexcept {
    return static_cast<int>(key_hash64(key) %
                            static_cast<std::uint64_t>(partitions_));
  }

  /// Buckets a state-map key: `"key/<n>"` entries go to partition_of_key(n),
  /// everything else (including malformed "key/" entries) to reserved().
  [[nodiscard]] int partition_of_state_key(const std::string& k) const;

 private:
  int partitions_;
};

/// Moves partition `p`'s keys out of `state` into a fresh TaskState.
/// Dirty-coherent: removals are tombstoned in `state`, inserts are recorded
/// as dirty in the returned sub-state, so delta checkpoints taken on either
/// side of a transfer stay faithful.
[[nodiscard]] TaskState extract_partition(TaskState& state,
                                          const StatePartitionMap& map,
                                          int p);

/// Re-inserts `part`'s keys into `state` (recorded as upserts).  The exact
/// inverse of extract_partition for disjoint key sets.
void merge_partition(TaskState& state, const TaskState& part);

}  // namespace rill::dsps
