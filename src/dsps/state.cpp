#include "dsps/state.hpp"

#include <algorithm>
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

/// Size of TaskState::serialize()'s output: a count and one entry per key.
std::size_t state_payload_size(const TaskState::Counters& counters) {
  std::size_t bytes = 4;
  for (const auto& [k, v] : counters) bytes += entry_size(k);
  return bytes;
}

void put_entry(BytesWriter& w, std::string_view k, std::int64_t v) {
  w.put_string(k);
  w.put_i64(v);
}

void put_state(BytesWriter& w, const TaskState::Counters& counters) {
  w.put_u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [k, v] : counters) put_entry(w, k, v);
}

void put_pending(BytesWriter& w, std::span<const Event> pending) {
  w.put_u32(static_cast<std::uint32_t>(pending.size()));
  for (const Event& ev : pending) serialize_event(w, ev);
}

/// Writes one delta-form blob in wire order: the header, the upserts, the
/// deletions, then the pending tail.  Each section's count is patched in
/// once its items are written, so a caller can filter while it writes.
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

  /// Closes the upserts; every later item is a deletion.
  void begin_deletions() {
    close_section();
    open_section();
  }

  void deletion(std::string_view k) {
    w_.put_string(k);
    ++count_;
  }

  [[nodiscard]] Bytes finish(std::span<const Event> pending) {
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

  BytesWriter w_;
  std::size_t count_at_{0};
  std::uint32_t count_{0};
};

}  // namespace

Bytes TaskState::serialize() const {
  BytesWriter w;
  w.reserve(state_payload_size(counters));
  put_state(w, counters);
  return w.take();
}

TaskState TaskState::deserialize(BytesReader& r) {
  TaskState s;
  const auto n = r.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = r.get_string();
    const std::int64_t v = r.get_i64();
    // Keys arrive in map order, so the end hint makes each insert constant
    // time; a repeated key (a hand-built blob) keeps its last value.
    s.counters.insert_or_assign(s.counters.end(), std::move(k), v);
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
  const std::size_t payload = state_payload_size(state.counters);
  BytesWriter w;
  w.reserve(kFullFramingBytes + payload + pending_size(pending.size()));
  w.put_u64(cid);
  w.put_u32(static_cast<std::uint32_t>(payload));
  put_state(w, state.counters);
  put_pending(w, pending);
  return w.take();
}

Bytes CheckpointBlob::encode_delta(std::uint64_t cid, std::uint64_t base_cid,
                                   const TaskState& state,
                                   std::span<const Event> pending) {
  // Reserve as if every dirty key were still present: exact in the usual
  // case, 8 bytes over per dirty key that was erased through `counters`.
  std::size_t reserve = kDeltaFramingBytes + pending_size(pending.size());
  for (const auto& k : state.dirty_keys()) reserve += entry_size(k);
  for (const auto& k : state.deleted_keys()) reserve += key_size(k);
  DeltaEncoder enc(cid, base_cid, reserve);
  // A dirty key can be absent if user code erased it through `counters`
  // directly; it is written as a deletion so the delta stays faithful.
  std::vector<std::string_view> absent;
  for (const auto& k : state.dirty_keys()) {
    if (auto it = state.counters.find(k); it != state.counters.end()) {
      enc.upsert(k, it->second);
    } else {
      absent.push_back(k);
    }
  }
  enc.begin_deletions();
  for (const std::string_view k : absent) enc.deletion(k);
  for (const auto& k : state.deleted_keys()) enc.deletion(k);
  return enc.finish(pending);
}

std::size_t CheckpointBlob::full_size(const TaskState& state) {
  return kFullFramingBytes + state_payload_size(state.counters) +
         pending_size(0);
}

std::size_t CheckpointBlob::delta_size(const TaskState& state) {
  std::size_t bytes = kDeltaFramingBytes + pending_size(0);
  for (const auto& k : state.dirty_keys()) {
    bytes += state.counters.contains(k) ? entry_size(k) : key_size(k);
  }
  for (const auto& k : state.deleted_keys()) bytes += key_size(k);
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
  enc.begin_deletions();
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
  for (const auto& k : state.dirty_keys()) {
    auto it = state.counters.find(k);
    // A dirty key can be absent if user code erased it through `counters`
    // directly; treat that as a deletion so the delta stays faithful.
    if (it == state.counters.end()) {
      b.deleted.push_back(k);
    } else {
      b.changed[k] = it->second;
    }
  }
  for (const auto& k : state.deleted_keys()) b.deleted.push_back(k);
  b.pending = std::move(pending);
  return b;
}

void CheckpointBlob::apply_delta_to(TaskState& base) const {
  for (const auto& [k, v] : changed) base.counters[k] = v;
  for (const auto& k : deleted) base.counters.erase(k);
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

int StatePartitionMap::partition_of_state_key(const std::string& k) const {
  constexpr std::string_view kPrefix = "key/";
  if (k.size() <= kPrefix.size() || k.compare(0, kPrefix.size(), kPrefix) != 0) {
    return reserved();
  }
  std::uint64_t key = 0;
  for (std::size_t i = kPrefix.size(); i < k.size(); ++i) {
    const char c = k[i];
    if (c < '0' || c > '9') return reserved();
    key = key * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return partition_of_key(key);
}

TaskState extract_partition(TaskState& state, const StatePartitionMap& map,
                            int p) {
  std::vector<std::string> keys;
  for (const auto& [k, v] : state.counters) {
    if (map.partition_of_state_key(k) == p) keys.push_back(k);
  }
  TaskState part;
  for (const auto& k : keys) {
    part[k] = state.counters.find(k)->second;
    state.erase(k);
  }
  return part;
}

void merge_partition(TaskState& state, const TaskState& part) {
  for (const auto& [k, v] : part.counters) state[k] = v;
}

}  // namespace rill::dsps
