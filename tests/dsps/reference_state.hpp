// Reference model of TaskState for differential tests.
//
// The map-and-sets representation TaskState had before it became a flat
// slot table: an ordered map of counters and ordered dirty and deleted key
// sets, each a tree keyed by std::string.  It is slow but plainly correct,
// so the flat table is checked against it operation by operation.  The
// encoders and partition moves below are the old ones, rewritten over this
// type; their bytes are the wire format the flat table must reproduce.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "dsps/state.hpp"

namespace rill::dsps::reference {

struct ReferenceState {
  using Counters = std::map<std::string, std::int64_t, std::less<>>;
  using KeySet = std::set<std::string, std::less<>>;

  Counters counters;
  KeySet dirty;
  KeySet deleted;

  std::int64_t& operator[](std::string_view key) {
    dirty.emplace(key);
    if (auto it = deleted.find(key); it != deleted.end()) deleted.erase(it);
    auto it = counters.find(key);
    if (it == counters.end()) it = counters.emplace(key, 0).first;
    return it->second;
  }

  void erase(std::string_view key) {
    if (auto it = counters.find(key); it != counters.end()) counters.erase(it);
    if (auto it = dirty.find(key); it != dirty.end()) dirty.erase(it);
    deleted.emplace(key);
  }

  [[nodiscard]] std::int64_t get(std::string_view key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
  }

  friend bool operator==(const ReferenceState& a, const ReferenceState& b) {
    return a.counters == b.counters;
  }

  [[nodiscard]] bool has_dirty() const {
    return !dirty.empty() || !deleted.empty();
  }

  void clear_dirty() {
    dirty.clear();
    deleted.clear();
  }

  void hand_over_snapshot(ReferenceState& snap) {
    snap.counters = counters;
    snap.dirty = std::move(dirty);
    snap.deleted = std::move(deleted);
    clear_dirty();
  }

  void merge_dirty_from(const ReferenceState& other) {
    for (const auto& k : other.dirty) {
      dirty.insert(k);
      deleted.erase(k);
    }
    for (const auto& k : other.deleted) {
      if (counters.find(k) == counters.end()) {
        dirty.erase(k);
        deleted.insert(k);
      }
    }
  }

  [[nodiscard]] Bytes serialize() const {
    BytesWriter w;
    w.put_u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto& [k, v] : counters) {
      w.put_string(k);
      w.put_i64(v);
    }
    return w.take();
  }

  static ReferenceState deserialize(BytesReader& r) {
    ReferenceState s;
    const auto n = r.get_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string k = r.get_string();
      const std::int64_t v = r.get_i64();
      s.counters.insert_or_assign(std::move(k), v);
    }
    return s;
  }
};

inline void put_pending(BytesWriter& w, std::span<const Event> pending) {
  w.put_u32(static_cast<std::uint32_t>(pending.size()));
  for (const Event& ev : pending) serialize_event(w, ev);
}

inline Bytes encode_full(std::uint64_t cid, const ReferenceState& s,
                         std::span<const Event> pending) {
  BytesWriter w;
  w.put_u64(cid);
  w.put_bytes(s.serialize());
  put_pending(w, pending);
  return w.take();
}

/// Upserts are the dirty keys still present; deletions are the dirty keys
/// gone from the map, then the tombstones — each list in key order.
inline Bytes encode_delta(std::uint64_t cid, std::uint64_t base_cid,
                          const ReferenceState& s,
                          std::span<const Event> pending) {
  std::vector<std::pair<std::string, std::int64_t>> upserts;
  std::vector<std::string> deletions;
  for (const auto& k : s.dirty) {
    if (auto it = s.counters.find(k); it != s.counters.end()) {
      upserts.emplace_back(k, it->second);
    } else {
      deletions.push_back(k);
    }
  }
  deletions.insert(deletions.end(), s.deleted.begin(), s.deleted.end());
  BytesWriter w;
  w.put_u64(~0ull);
  w.put_u64(cid);
  w.put_u64(base_cid);
  w.put_u32(static_cast<std::uint32_t>(upserts.size()));
  for (const auto& [k, v] : upserts) {
    w.put_string(k);
    w.put_i64(v);
  }
  w.put_u32(static_cast<std::uint32_t>(deletions.size()));
  for (const auto& k : deletions) w.put_string(k);
  put_pending(w, pending);
  return w.take();
}

inline std::size_t full_size(const ReferenceState& s) {
  return encode_full(1, s, {}).size();
}

inline std::size_t delta_size(const ReferenceState& s) {
  return encode_delta(2, 1, s, {}).size();
}

inline ReferenceState extract_partition(ReferenceState& s,
                                        const StatePartitionMap& map, int p) {
  std::vector<std::string> keys;
  for (const auto& [k, v] : s.counters) {
    if (map.partition_of_state_key(k) == p) keys.push_back(k);
  }
  ReferenceState part;
  for (const auto& k : keys) {
    part[k] = s.counters.find(k)->second;
    s.erase(k);
  }
  return part;
}

inline void merge_partition(ReferenceState& s, const ReferenceState& part) {
  for (const auto& [k, v] : part.counters) s[k] = v;
}

/// CheckpointBlob::apply_delta_to: the map changes, the change record
/// does not.
inline void apply_delta(const CheckpointBlob& delta, ReferenceState& base) {
  for (const auto& [k, v] : delta.changed) base.counters[k] = v;
  for (const auto& k : delta.deleted) base.counters.erase(k);
}

}  // namespace rill::dsps::reference
