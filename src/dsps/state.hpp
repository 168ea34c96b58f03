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
// plus only the changed/deleted keys — instead of every entry.  The
// CCR pending-capture list is always carried in full; only user state is
// deltified.  Full blobs keep the pre-delta wire format byte-for-byte, so
// runs with delta mode off are unchanged on the wire.
#pragma once

#include <cassert>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "dsps/event.hpp"

namespace rill::dsps {

class StatePartitionMap;
struct TaskState;
[[nodiscard]] TaskState extract_partition(TaskState& state,
                                          const StatePartitionMap& map, int p);
void merge_partition(TaskState& state, const TaskState& part);

/// Names one numbering of a TaskState's slots.  Each construction, copy
/// and assignment, and both sides of a move, take a fresh id from a
/// process-wide counter, and `renew()` takes one when a compaction
/// renumbers the slots.  So no two tables share an id, a table never gets
/// an old id back, and a slot handle (TaskState::Handle) that names the id
/// it was taken under is valid exactly while that id is current.
class StateLayout {
 public:
  StateLayout() noexcept : id_(next()) {}
  StateLayout(const StateLayout&) noexcept : id_(next()) {}
  StateLayout(StateLayout&& other) noexcept : id_(next()) { other.renew(); }
  StateLayout& operator=(const StateLayout&) noexcept {
    renew();
    return *this;
  }
  StateLayout& operator=(StateLayout&& other) noexcept {
    renew();
    other.renew();
    return *this;
  }
  ~StateLayout() = default;

  void renew() noexcept { id_ = next(); }
  /// Never 0, which a handle that was never resolved holds.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  static std::uint64_t next() noexcept;

  std::uint64_t id_;
};

/// In-memory state of a stateful task instance: one flat slot table.
///
/// Each key written owns a slot holding its value and its
/// live/dirty/deleted flags; a slot keeps its id until a compaction drops
/// the slots that are no longer live.  All key bytes sit in one arena, and
/// an open-addressing hash index maps a key to its slot, so an update is
/// one hash probe and allocates nothing once the key exists.  A caller
/// that updates the same key on every event holds a Handle to its slot and
/// skips the probe.  A slot whose flags change since the last
/// `clear_dirty()` is appended once to a change list, which is what a
/// delta blob and its size are built from.  A key-ordered slot list,
/// re-sorted only after keys were added, drives every byte that leaves the
/// state, so entries go on the wire in `std::string` key order, never in
/// hash order.
///
/// Not thread-safe, even for concurrent readers: a const walk may re-sort
/// the ordered list.
struct TaskState {
  /// The live entries, read-only: `size`, `empty`, `contains`, `==` and
  /// iteration as `[key, value]` pairs in key order.  Only TaskState
  /// mutates them.  Iteration yields a copy of each key as a std::string;
  /// the state's own walks read the arena in place.
  class Counters {
   public:
    using value_type = std::pair<std::string, std::int64_t>;

    class const_iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Counters::value_type;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = value_type;

      const_iterator() = default;
      [[nodiscard]] value_type operator*() const {
        const std::uint32_t id = table_->ordered_[at_];
        return {std::string(table_->key(id)), table_->slots_[id].value};
      }
      const_iterator& operator++() {
        ++at_;
        skip_dead();
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const const_iterator&,
                             const const_iterator&) = default;

     private:
      friend class Counters;
      const_iterator(const Counters* table, std::size_t at)
          : table_(table), at_(at) {
        skip_dead();
      }
      void skip_dead() {
        while (at_ < table_->ordered_.size() &&
               !table_->is_live(table_->ordered_[at_])) {
          ++at_;
        }
      }

      const Counters* table_{nullptr};
      std::size_t at_{0};
    };
    using iterator = const_iterator;

    Counters() = default;
    Counters(const Counters&) = default;

    [[nodiscard]] std::size_t size() const noexcept { return live_; }
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] bool contains(std::string_view key) const {
      const std::uint32_t id = find(key);
      return id != kNone && is_live(id);
    }
    const_iterator begin() const {
      ordered();
      return {this, 0};
    }
    const_iterator end() const { return {this, ordered().size()}; }

    friend bool operator==(const Counters& a, const Counters& b);

   private:
    friend struct TaskState;
    friend struct CheckpointBlob;
    friend TaskState extract_partition(TaskState&, const StatePartitionMap&,
                                       int);
    friend void merge_partition(TaskState&, const TaskState&);

    Counters(Counters&&) noexcept = default;
    Counters& operator=(const Counters&) = default;
    Counters& operator=(Counters&&) noexcept = default;

    static constexpr std::uint32_t kNone = ~0u;
    static constexpr std::uint8_t kLive = 1;
    static constexpr std::uint8_t kDirty = 2;
    static constexpr std::uint8_t kDeleted = 4;
    static constexpr std::uint8_t kChanged = kDirty | kDeleted;

    struct Slot {
      std::int64_t value{0};
      std::uint32_t key_at{0};
      std::uint32_t key_len{0};
      std::uint32_t hash{0};
      std::uint8_t flags{0};
    };

    [[nodiscard]] std::string_view key(std::uint32_t id) const noexcept {
      const Slot& s = slots_[id];
      return {arena_.data() + s.key_at, s.key_len};
    }
    [[nodiscard]] bool is_live(std::uint32_t id) const noexcept {
      return (slots_[id].flags & kLive) != 0;
    }
    /// Calls `visit(key, value)` for each live entry in key order.
    template <typename Visit>
    void for_each_live(Visit&& visit) const {
      for (const std::uint32_t id : ordered()) {
        if (is_live(id)) visit(key(id), slots_[id].value);
      }
    }
    /// Slot of `key`, or kNone.
    [[nodiscard]] std::uint32_t find(std::string_view key) const;
    /// Slot of `key`, added (not live, value 0, no flags) if absent.
    std::uint32_t find_or_add(std::string_view key);
    /// Makes a slot live with value 0, or not live; both keep the running
    /// size of the live entries.
    void revive(std::uint32_t id);
    void kill(std::uint32_t id);
    /// Room for `keys` more keys without growing the index.
    void reserve(std::size_t keys);
    /// The key-ordered slot list, first merging in slots added since the
    /// last walk.
    const std::vector<std::uint32_t>& ordered() const;
    /// Drops the slots that are not live.  Only for a table with no change
    /// recorded, whose dead slots nothing refers to; renumbers the rest
    /// and renews the layout.
    void compact();

    void index_insert(std::uint32_t id);
    void grow_index(std::size_t min_slots);

    /// The numbering of `slots_`; adding a slot or growing the index keeps
    /// it, since neither moves a slot.
    StateLayout layout_;
    std::string arena_;
    std::vector<Slot> slots_;
    /// Open addressing with linear probing: slot id + 1, 0 = empty.  Zero
    /// or a power of two at least twice the slot count (load <= 1/2).
    std::vector<std::uint32_t> index_;
    mutable std::vector<std::uint32_t> ordered_;
    std::size_t live_{0};
    /// Sum of the live entries' wire sizes (length prefix, key, value).
    std::size_t live_bytes_{0};
  };

  /// A snapshot of changed keys, in key order, for inspection and tests.
  /// The views are valid until the next insert.
  using KeySet = std::set<std::string_view>;

  /// A cached slot, for a caller that updates one key on every event:
  /// the slot the key was last found in and the layout id it was found
  /// under.  A default handle is unresolved.  A handle may be used with
  /// any number of tables, but always with the same key.
  class Handle {
    friend struct TaskState;

    std::uint64_t layout_{0};
    std::uint32_t slot_{0};
  };

  Counters counters;

  /// Mutable access marks the key dirty (and revives it if it was
  /// deleted).  One hash probe; the key's bytes are copied on first
  /// insert only.  The reference is valid until the state next adds a key
  /// (an upsert, erase or merge of a key it has not held) or compacts (in
  /// `clear_dirty()` or `hand_over_snapshot()`).
  std::int64_t& operator[](std::string_view key) {
    return upsert(counters.find_or_add(key));
  }
  /// `operator[](key)` through `h`, which probes only when `h` was last
  /// resolved under another layout: in another table, or in this one
  /// before a copy, move, assignment or compaction.
  std::int64_t& at(Handle& h, std::string_view key) {
    if (h.layout_ != counters.layout_.id()) {
      h.slot_ = counters.find_or_add(key);
      h.layout_ = counters.layout_.id();
    }
    assert(counters.key(h.slot_) == key && "a handle serves one key");
    return upsert(h.slot_);
  }

  /// Removes a key, recording the deletion for the next delta.  An absent
  /// key is still tombstoned: it may exist in the persisted base even
  /// though it is already gone from memory.
  void erase(std::string_view key) { erase_slot(counters.find_or_add(key)); }

  [[nodiscard]] std::int64_t get(std::string_view key) const {
    const std::uint32_t id = counters.find(key);
    return id != Counters::kNone && counters.is_live(id)
               ? counters.slots_[id].value
               : 0;
  }

  /// Equality is over the user-visible entries only: a deserialized state
  /// is clean while the original may carry dirty bookkeeping.
  friend bool operator==(const TaskState& a, const TaskState& b) {
    return a.counters == b.counters;
  }

  /// Keys upserted since the last clear (some may since have been removed
  /// by apply_delta_to or a merge), and keys deleted since then.  The two
  /// are disjoint.
  [[nodiscard]] KeySet dirty_keys() const {
    return changed_keys(Counters::kDirty);
  }
  [[nodiscard]] KeySet deleted_keys() const {
    return changed_keys(Counters::kDeleted);
  }
  [[nodiscard]] bool has_dirty() const noexcept { return !changed_.empty(); }

  /// Forgets all recorded changes — called after the changes were persisted
  /// (full or delta blob) so the next delta starts from this point.
  void clear_dirty();

  /// PREPARE hand-over: makes `snap` a copy of this table that owns the
  /// recorded changes, and leaves this state clean.  The result equals
  /// `snap = *this; clear_dirty();`, but the table is copied into `snap`'s
  /// buffers and the change list moves instead of being copied.
  void hand_over_snapshot(TaskState& snap);

  /// Unions `other`'s recorded changes into ours.  Used on ROLLBACK: the
  /// prepared snapshot's dirty keys (changes that were never persisted)
  /// must flow back into the live state so the next blob still covers
  /// them.  A deletion only flows back to a key that is absent here.
  void merge_dirty_from(const TaskState& other);

  [[nodiscard]] Bytes serialize() const;
  /// Keys may arrive in any order; a repeated key keeps its last value.
  [[nodiscard]] static TaskState deserialize(BytesReader& r);

 private:
  friend struct CheckpointBlob;
  friend TaskState extract_partition(TaskState&, const StatePartitionMap&,
                                     int);

  /// Writes the entry count, then each live entry in key order.
  void put_entries(BytesWriter& w) const;
  /// Mutable access to a slot: revives it if it is not live and marks it
  /// dirty.
  std::int64_t& upsert(std::uint32_t id) {
    if (!counters.is_live(id)) counters.revive(id);
    mark(id, Counters::kDirty);
    return counters.slots_[id].value;
  }
  /// Sets a slot's change flag (dirty or deleted, clearing the other) and
  /// appends the slot to the change list the first time it changes.
  void mark(std::uint32_t id, std::uint8_t change) {
    std::uint8_t& flags = counters.slots_[id].flags;
    if ((flags & Counters::kChanged) == 0) changed_.push_back(id);
    flags = static_cast<std::uint8_t>((flags & ~Counters::kChanged) | change);
  }
  void erase_slot(std::uint32_t id) {
    if (counters.is_live(id)) counters.kill(id);
    mark(id, Counters::kDeleted);
  }
  /// Writes or removes an entry without recording the change: the delta
  /// replay of apply_delta_to and deserialisation.
  void assign_untracked(std::string_view key, std::int64_t value);
  void remove_untracked(std::string_view key);
  /// Clears the change flags of the slots in `ids`, then this state's own
  /// change list, and compacts when dead slots outnumber live ones.
  void forget_changes(const std::vector<std::uint32_t>& ids);
  [[nodiscard]] KeySet changed_keys(std::uint8_t flag) const;
  /// The recorded changes in delta wire order, each list in key order:
  /// `upsert(key, value)` for each dirty key still live, then
  /// `deletion(key)` for each dirty key no longer live and then for each
  /// tombstone.
  template <typename Upsert, typename Deletion>
  void visit_changes(Upsert&& upsert, Deletion&& deletion) const;

  /// Slots with a change flag, each once, in the order they first changed.
  std::vector<std::uint32_t> changed_;
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
  /// events, computed without encoding: the full form in O(1) from the
  /// running size of the live entries, the delta form from the change
  /// list.
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
  [[nodiscard]] int partition_of_state_key(std::string_view k) const;

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
