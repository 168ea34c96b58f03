#include "dsps/state.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace rill::dsps {

namespace {

/// First u64 of a delta-form blob.  Checkpoint ids are assigned from 1
/// upward, so the all-ones value can never be a real id and the full-form
/// wire layout (which leads with the id) stays unambiguous.
constexpr std::uint64_t kDeltaMagic = ~0ull;

/// Wire sizes.  A serialised event is its eleven fields: seven u64, two
/// u32 and two u8 (see serialize_event).
constexpr std::size_t kEventWireBytes = 7 * 8 + 2 * 4 + 2;
/// Framing of each form around its entries and pending tail.  Full: cid
/// and the state payload's length.  Delta: magic, cid, base cid and the
/// upsert and deletion counts.
constexpr std::size_t kFullFramingBytes = 8 + 4;
constexpr std::size_t kDeltaFramingBytes = 3 * 8 + 2 * 4;

constexpr std::size_t key_size(std::string_view k) { return 4 + k.size(); }
constexpr std::size_t entry_size(std::string_view k) {
  return key_size(k) + 8;
}
constexpr std::size_t pending_size(std::size_t events) {
  return 4 + events * kEventWireBytes;
}

void put_entry(BytesWriter& w, std::string_view k, std::int64_t v) {
  w.put_string(k);
  w.put_i64(v);
}

void put_pending(BytesWriter& w, std::span<const Event> pending) {
  w.put_u32(static_cast<std::uint32_t>(pending.size()));
  for (const Event& ev : pending) serialize_event(w, ev);
}

/// Writes one delta-form blob in wire order: the header, the upserts, the
/// deletions, then the pending tail.  Each section's count is patched in
/// once its items are written, so a caller can filter while it writes.
/// Every upsert must come before the first deletion.
class DeltaEncoder {
 public:
  DeltaEncoder(std::uint64_t cid, std::uint64_t base_cid, std::size_t reserve) {
    w_.reserve(reserve);
    w_.put_u64(kDeltaMagic);
    w_.put_u64(cid);
    w_.put_u64(base_cid);
    open_section();
  }

  void upsert(std::string_view k, std::int64_t v) {
    put_entry(w_, k, v);
    ++count_;
  }

  void deletion(std::string_view k) {
    begin_deletions();
    w_.put_string(k);
    ++count_;
  }

  [[nodiscard]] Bytes finish(std::span<const Event> pending) {
    begin_deletions();
    close_section();
    put_pending(w_, pending);
    return w_.take();
  }

 private:
  void open_section() {
    count_at_ = w_.size();
    count_ = 0;
    w_.put_u32(0);
  }
  void close_section() { w_.patch_u32(count_at_, count_); }
  /// Closes the upserts the first time a deletion or the end comes.
  void begin_deletions() {
    if (in_deletions_) return;
    in_deletions_ = true;
    close_section();
    open_section();
  }

  BytesWriter w_;
  std::size_t count_at_{0};
  std::uint32_t count_{0};
  bool in_deletions_{false};
};

std::uint32_t hash_key(std::string_view k) noexcept {
  const std::size_t h = std::hash<std::string_view>{}(k);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Index size for `slots` keys: a power of two at least twice as large.
std::size_t index_size_for(std::size_t slots) {
  return std::bit_ceil(std::max<std::size_t>(16, 2 * slots));
}

}  // namespace

std::uint64_t StateLayout::next() noexcept {
  // Atomic so that engines on different threads never hand out one id.
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1) + 1;
}

bool operator==(const TaskState::Counters& a, const TaskState::Counters& b) {
  if (a.live_ != b.live_ || a.live_bytes_ != b.live_bytes_) return false;
  // Both walks run in key order, so equal tables pair up entry by entry.
  std::vector<std::uint32_t>::const_iterator theirs = b.ordered().begin();
  bool equal = true;
  a.for_each_live([&](std::string_view k, std::int64_t v) {
    while (!b.is_live(*theirs)) ++theirs;
    equal = equal && b.key(*theirs) == k && b.slots_[*theirs].value == v;
    ++theirs;
  });
  return equal;
}

std::uint32_t TaskState::Counters::find(std::string_view key) const {
  if (index_.empty()) return kNone;
  const std::uint32_t h = hash_key(key);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const std::uint32_t e = index_[i];
    if (e == 0) return kNone;
    if (slots_[e - 1].hash == h && this->key(e - 1) == key) return e - 1;
  }
}

std::uint32_t TaskState::Counters::find_or_add(std::string_view key) {
  const std::uint32_t h = hash_key(key);
  if (2 * (slots_.size() + 1) <= index_.size()) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = h & mask;
    for (; index_[i] != 0; i = (i + 1) & mask) {
      const std::uint32_t id = index_[i] - 1;
      if (slots_[id].hash == h && this->key(id) == key) return id;
    }
    constexpr std::size_t kMaxArena = std::numeric_limits<std::uint32_t>::max();
    if (slots_.size() >= kNone - 1 || arena_.size() + key.size() > kMaxArena) {
      throw std::length_error("TaskState: too many keys");
    }
    const auto id = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({0, static_cast<std::uint32_t>(arena_.size()),
                      static_cast<std::uint32_t>(key.size()), h, 0});
    arena_.append(key);
    index_[i] = id + 1;
    return id;
  }
  // The index is due to grow: look the key up first so a hit never does.
  if (const std::uint32_t id = find(key); id != kNone) return id;
  grow_index(slots_.size() + 1);
  return find_or_add(key);
}

void TaskState::Counters::revive(std::uint32_t id) {
  Slot& s = slots_[id];
  s.flags |= kLive;
  s.value = 0;
  ++live_;
  live_bytes_ += entry_size(key(id));
}

void TaskState::Counters::kill(std::uint32_t id) {
  slots_[id].flags &= static_cast<std::uint8_t>(~kLive);
  --live_;
  live_bytes_ -= entry_size(key(id));
}

void TaskState::Counters::reserve(std::size_t keys) {
  slots_.reserve(slots_.size() + keys);
  if (index_.size() < index_size_for(slots_.size() + keys)) {
    grow_index(slots_.size() + keys);
  }
}

void TaskState::Counters::index_insert(std::uint32_t id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slots_[id].hash & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = id + 1;
}

void TaskState::Counters::grow_index(std::size_t min_slots) {
  index_.assign(index_size_for(min_slots), 0);
  for (std::uint32_t id = 0; id < slots_.size(); ++id) index_insert(id);
}

const std::vector<std::uint32_t>& TaskState::Counters::ordered() const {
  const std::size_t sorted = ordered_.size();
  if (sorted == slots_.size()) return ordered_;
  ordered_.reserve(slots_.capacity());
  for (std::size_t id = sorted; id < slots_.size(); ++id) {
    ordered_.push_back(static_cast<std::uint32_t>(id));
  }
  const auto less = [this](std::uint32_t a, std::uint32_t b) {
    return key(a) < key(b);
  };
  const auto added = ordered_.begin() + static_cast<std::ptrdiff_t>(sorted);
  // Keys usually arrive in order (a deserialised blob, a partition merge),
  // so test before sorting, and merge only when the runs interleave.
  if (!std::is_sorted(added, ordered_.end(), less)) {
    std::sort(added, ordered_.end(), less);
  }
  if (sorted != 0 && less(*added, *(added - 1))) {
    std::inplace_merge(ordered_.begin(), added, ordered_.end(), less);
  }
  return ordered_;
}

void TaskState::Counters::compact() {
  std::string arena;
  std::vector<Slot> slots;
  std::vector<std::uint32_t> in_order;
  slots.reserve(live_);
  for (const std::uint32_t id : ordered()) {
    if (!is_live(id)) continue;
    const Slot& s = slots_[id];
    const auto at = static_cast<std::uint32_t>(arena.size());
    slots.push_back({s.value, at, s.key_len, s.hash, s.flags});
    arena.append(key(id));
    in_order.push_back(static_cast<std::uint32_t>(in_order.size()));
  }
  arena_ = std::move(arena);
  slots_ = std::move(slots);
  ordered_ = std::move(in_order);
  index_ = std::vector<std::uint32_t>();
  if (!slots_.empty()) grow_index(slots_.size());
  // The live slots were renumbered: every handle must probe again.
  layout_.renew();
}

void TaskState::clear_dirty() { forget_changes(changed_); }

void TaskState::hand_over_snapshot(TaskState& snap) {
  // Sort here, once, so the copy inherits an ordered list: the live state
  // is never walked itself, and every snapshot would re-sort its keys.
  counters.ordered();
  snap.counters = counters;
  changed_.swap(snap.changed_);
  forget_changes(snap.changed_);
}

void TaskState::forget_changes(const std::vector<std::uint32_t>& ids) {
  for (const std::uint32_t id : ids) {
    counters.slots_[id].flags &= static_cast<std::uint8_t>(~Counters::kChanged);
  }
  changed_.clear();
  if (counters.slots_.size() - counters.live_ > counters.live_) {
    counters.compact();
  }
}

void TaskState::merge_dirty_from(const TaskState& other) {
  for (const std::uint32_t theirs : other.changed_) {
    const std::string_view k = other.counters.key(theirs);
    if (other.counters.slots_[theirs].flags & Counters::kDirty) {
      mark(counters.find_or_add(k), Counters::kDirty);
    } else if (const std::uint32_t id = counters.find_or_add(k);
               !counters.is_live(id)) {
      mark(id, Counters::kDeleted);
    }
  }
}

TaskState::KeySet TaskState::changed_keys(std::uint8_t flag) const {
  KeySet keys;
  for (const std::uint32_t id : changed_) {
    if (counters.slots_[id].flags & flag) keys.insert(counters.key(id));
  }
  return keys;
}

void TaskState::assign_untracked(std::string_view key, std::int64_t value) {
  const std::uint32_t id = counters.find_or_add(key);
  if (!counters.is_live(id)) counters.revive(id);
  counters.slots_[id].value = value;
}

void TaskState::remove_untracked(std::string_view key) {
  const std::uint32_t id = counters.find(key);
  if (id != Counters::kNone && counters.is_live(id)) counters.kill(id);
}

void TaskState::put_entries(BytesWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(counters.size()));
  counters.for_each_live(
      [&w](std::string_view k, std::int64_t v) { put_entry(w, k, v); });
}

Bytes TaskState::serialize() const {
  BytesWriter w;
  w.reserve(4 + counters.live_bytes_);
  put_entries(w);
  return w.take();
}

TaskState TaskState::deserialize(BytesReader& r) {
  TaskState s;
  const auto n = r.get_u32();
  // The count comes from the blob: reserve no more keys than the remaining
  // bytes can hold (an entry takes at least its length prefix and value).
  s.counters.reserve(std::min<std::size_t>(n, r.remaining() / entry_size({})));
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string k = r.get_string();
    s.assign_untracked(k, r.get_i64());
  }
  return s;
}

void serialize_event(BytesWriter& w, const Event& ev) {
  w.put_u64(ev.id);
  w.put_u64(ev.root);
  w.put_u64(ev.origin);
  w.put_u32(ev.producer.value);
  w.put_u64(ev.born_at);
  w.put_u64(ev.emitted_at);
  w.put_u8(static_cast<std::uint8_t>(ev.control));
  w.put_u64(ev.checkpoint_id);
  w.put_u8(ev.replayed ? 1 : 0);
  w.put_u64(ev.key);
  w.put_u32(ev.payload_size);
}

Event deserialize_event(BytesReader& r) {
  Event ev;
  ev.id = r.get_u64();
  ev.root = r.get_u64();
  ev.origin = r.get_u64();
  ev.producer = TaskId{r.get_u32()};
  ev.born_at = r.get_u64();
  ev.emitted_at = r.get_u64();
  ev.control = static_cast<ControlKind>(r.get_u8());
  ev.checkpoint_id = r.get_u64();
  ev.replayed = r.get_u8() != 0;
  ev.key = r.get_u64();
  ev.payload_size = r.get_u32();
  return ev;
}

Bytes CheckpointBlob::encode_full(std::uint64_t cid, const TaskState& state,
                                  std::span<const Event> pending) {
  const std::size_t payload = 4 + state.counters.live_bytes_;
  BytesWriter w;
  w.reserve(kFullFramingBytes + payload + pending_size(pending.size()));
  w.put_u64(cid);
  w.put_u32(static_cast<std::uint32_t>(payload));
  state.put_entries(w);
  put_pending(w, pending);
  return w.take();
}

template <typename Upsert, typename Deletion>
void TaskState::visit_changes(Upsert&& upsert, Deletion&& deletion) const {
  constexpr std::uint8_t kDirtyLive = Counters::kDirty | Counters::kLive;
  // Count each list from the change list first, so a walk of the ordered
  // list runs only for a non-empty list and stops at its last entry.
  std::size_t upserts = 0;
  std::size_t absent = 0;
  for (const std::uint32_t id : changed_) {
    const std::uint8_t flags = counters.slots_[id].flags;
    if ((flags & kDirtyLive) == kDirtyLive) ++upserts;
    if ((flags & kDirtyLive) == Counters::kDirty) ++absent;
  }
  const std::size_t tombstones = changed_.size() - upserts - absent;
  const auto walk = [this](std::size_t count, std::uint8_t mask,
                           std::uint8_t want, auto&& visit) {
    for (const std::uint32_t id : counters.ordered()) {
      if (count == 0) return;
      const Counters::Slot& slot = counters.slots_[id];
      if ((slot.flags & mask) != want) continue;
      visit(counters.key(id), slot.value);
      --count;
    }
  };
  walk(upserts, kDirtyLive, kDirtyLive, upsert);
  const auto deleted = [&](std::string_view k, std::int64_t) { deletion(k); };
  walk(absent, kDirtyLive, Counters::kDirty, deleted);
  walk(tombstones, Counters::kDeleted, Counters::kDeleted, deleted);
}

Bytes CheckpointBlob::encode_delta(std::uint64_t cid, std::uint64_t base_cid,
                                   const TaskState& state,
                                   std::span<const Event> pending) {
  DeltaEncoder enc(cid, base_cid,
                   delta_size(state) + pending.size() * kEventWireBytes);
  state.visit_changes(
      [&](std::string_view k, std::int64_t v) { enc.upsert(k, v); },
      [&](std::string_view k) { enc.deletion(k); });
  return enc.finish(pending);
}

std::size_t CheckpointBlob::full_size(const TaskState& state) {
  return kFullFramingBytes + 4 + state.counters.live_bytes_ + pending_size(0);
}

std::size_t CheckpointBlob::delta_size(const TaskState& state) {
  using Counters = TaskState::Counters;
  const Counters& c = state.counters;
  std::size_t bytes = kDeltaFramingBytes + pending_size(0);
  for (const std::uint32_t id : state.changed_) {
    const std::uint8_t flags = c.slots_[id].flags;
    const bool upsert = (flags & Counters::kDirty) && (flags & Counters::kLive);
    bytes += upsert ? entry_size(c.key(id)) : key_size(c.key(id));
  }
  return bytes;
}

bool CheckpointBlob::delta_within_ratio(const TaskState& state,
                                        double max_ratio) {
  return !(static_cast<double>(delta_size(state)) >
           max_ratio * static_cast<double>(full_size(state)));
}

Bytes CheckpointBlob::serialize() const {
  if (!is_delta()) return encode_full(checkpoint_id, state, pending);
  std::size_t bytes = kDeltaFramingBytes + pending_size(pending.size());
  for (const auto& [k, v] : changed) bytes += entry_size(k);
  for (const auto& k : deleted) bytes += key_size(k);
  DeltaEncoder enc(checkpoint_id, base_checkpoint_id, bytes);
  for (const auto& [k, v] : changed) enc.upsert(k, v);
  for (const auto& k : deleted) enc.deletion(k);
  return enc.finish(pending);
}

CheckpointBlob CheckpointBlob::deserialize(const Bytes& raw) {
  BytesReader r(raw);
  CheckpointBlob b;
  const std::uint64_t head = r.get_u64();
  if (head == kDeltaMagic) {
    b.checkpoint_id = r.get_u64();
    b.base_checkpoint_id = r.get_u64();
    if (b.base_checkpoint_id == 0) {
      throw DeserializeError("delta blob with zero base checkpoint id");
    }
    const auto nc = r.get_u32();
    for (std::uint32_t i = 0; i < nc; ++i) {
      std::string k = r.get_string();
      const std::int64_t v = r.get_i64();
      b.changed.insert_or_assign(b.changed.end(), std::move(k), v);
    }
    // Counts come from the blob: reserve no more than the remaining bytes
    // can hold (a key takes at least its length prefix), so a corrupt count
    // fails in the read loop as a DeserializeError, not an allocation error.
    const auto nd = r.get_u32();
    b.deleted.reserve(std::min<std::size_t>(nd, r.remaining() / key_size({})));
    for (std::uint32_t i = 0; i < nd; ++i) b.deleted.push_back(r.get_string());
  } else {
    b.checkpoint_id = head;
    BytesReader payload = r.get_nested();
    b.state = TaskState::deserialize(payload);
  }
  const auto n = r.get_u32();
  b.pending.reserve(std::min<std::size_t>(n, r.remaining() / kEventWireBytes));
  for (std::uint32_t i = 0; i < n; ++i) b.pending.push_back(deserialize_event(r));
  return b;
}

CheckpointBlob CheckpointBlob::make_delta(std::uint64_t cid,
                                          std::uint64_t base_cid,
                                          const TaskState& state,
                                          std::vector<Event> pending) {
  CheckpointBlob b;
  b.checkpoint_id = cid;
  b.base_checkpoint_id = base_cid;
  state.visit_changes(
      [&](std::string_view k, std::int64_t v) {
        b.changed.emplace_hint(b.changed.end(), k, v);
      },
      [&](std::string_view k) { b.deleted.emplace_back(k); });
  b.pending = std::move(pending);
  return b;
}

void CheckpointBlob::apply_delta_to(TaskState& base) const {
  for (const auto& [k, v] : changed) base.assign_untracked(k, v);
  for (const auto& k : deleted) base.remove_untracked(k);
}

std::optional<std::uint64_t> CheckpointBlob::delta_base_of(
    const Bytes& raw) noexcept {
  try {
    BytesReader r(raw);
    if (r.get_u64() != kDeltaMagic) return std::nullopt;
    r.get_u64();  // checkpoint id
    const std::uint64_t base = r.get_u64();
    if (base == 0) return std::nullopt;
    return base;
  } catch (const DeserializeError&) {
    return std::nullopt;
  }
}

std::string CheckpointBlob::key(std::uint64_t checkpoint_id, TaskId task,
                                int replica) {
  return "chk/" + std::to_string(checkpoint_id) + "/" +
         std::to_string(task.value) + "/" + std::to_string(replica);
}

std::string CheckpointBlob::fgm_key(std::uint64_t batch_seq, TaskId task,
                                    int replica) {
  return "fgm/" + std::to_string(batch_seq) + "/" +
         std::to_string(task.value) + "/" + std::to_string(replica);
}

int StatePartitionMap::partition_of_state_key(std::string_view k) const {
  constexpr std::string_view kPrefix = "key/";
  if (k.size() <= kPrefix.size() || !k.starts_with(kPrefix)) return reserved();
  std::uint64_t key = 0;
  for (const char c : k.substr(kPrefix.size())) {
    if (c < '0' || c > '9') return reserved();
    key = key * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return partition_of_key(key);
}

TaskState extract_partition(TaskState& state, const StatePartitionMap& map,
                            int p) {
  TaskState part;
  const TaskState::Counters& c = state.counters;
  // Erasing keeps every slot, so the ordered list stays valid while the
  // walk removes entries from it.
  for (const std::uint32_t id : c.ordered()) {
    if (!c.is_live(id) || map.partition_of_state_key(c.key(id)) != p) continue;
    part[c.key(id)] = c.slots_[id].value;
    state.erase_slot(id);
  }
  return part;
}

void merge_partition(TaskState& state, const TaskState& part) {
  part.counters.for_each_live(
      [&state](std::string_view k, std::int64_t v) { state[k] = v; });
}

}  // namespace rill::dsps
