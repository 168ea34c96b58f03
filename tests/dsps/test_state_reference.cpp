// Differential test: the flat slot-table TaskState against the ordered
// map-and-sets model it replaced (reference_state.hpp).  Both take the same
// seeded operation sequence; after every step each byte that can leave a
// state, each size the delta-or-full guard reads, and the recorded change
// sets must agree.  A share of the upserts go through long-lived slot
// handles, which must stay right across every operation that copies,
// moves, assigns or compacts a table.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dsps/state.hpp"
#include "reference_state.hpp"

namespace rill::dsps {
namespace {

using reference::ReferenceState;

/// Plain keys, including the empty key, a bare and a malformed "key/"
/// prefix, an embedded NUL and bytes above 0x7f (the order must be the
/// unsigned byte order std::string uses).
const std::vector<std::string>& plain_keys() {
  static const std::vector<std::string> keys = {
      "",          "a",     "b",   "processed",    "sig", "replayed_seen",
      "v0",        "v12",   "v2",  "key",          "key/", "key/12x",
      "zz",        "\x7f",  "\x80", "\xff" "tail", std::string("a\0b", 3)};
  return keys;
}

std::string random_key(Rng& rng) {
  if (rng.uniform01() < 0.6) {
    return "key/" + std::to_string(rng.uniform_int(0, 59));
  }
  const auto& keys = plain_keys();
  return keys[rng.uniform_int(0, keys.size() - 1)];
}

/// A key that no step ever upserts: erasing it tombstones a key the state
/// never held.
std::string ghost_key(Rng& rng) {
  return "ghost/" + std::to_string(rng.uniform_int(0, 9));
}

std::vector<Event> random_pending(Rng& rng) {
  std::vector<Event> pending(rng.uniform_int(0, 2));
  for (Event& ev : pending) {
    ev.id = rng.next();
    ev.root = rng.next();
    ev.key = rng.next();
    ev.payload_size = static_cast<std::uint32_t>(rng.uniform_int(0, 512));
  }
  return pending;
}

/// A state payload written by hand: keys out of order, some repeated.
Bytes shuffled_payload(Rng& rng) {
  const std::uint64_t n = rng.uniform_int(0, 12);
  BytesWriter w;
  w.put_u32(static_cast<std::uint32_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    w.put_string(random_key(rng));
    w.put_i64(static_cast<std::int64_t>(rng.next() % 2001) - 1000);
  }
  return w.take();
}

template <typename Keys>
std::vector<std::string> as_strings(const Keys& keys) {
  return {keys.begin(), keys.end()};
}

std::vector<std::pair<std::string, std::int64_t>> entries(const TaskState& s) {
  return {s.counters.begin(), s.counters.end()};
}

std::vector<std::pair<std::string, std::int64_t>> entries(
    const ReferenceState& s) {
  return {s.counters.begin(), s.counters.end()};
}

/// First disagreement between the two models, or success.
::testing::AssertionResult same(const TaskState& s, const ReferenceState& ref,
                                Rng& rng) {
  const auto fail = [](const char* what) {
    return ::testing::AssertionFailure() << what << " differs";
  };
  if (entries(s) != entries(ref)) return fail("ordered iteration");
  if (s.counters.size() != ref.counters.size()) return fail("size");
  if (s.counters.empty() != ref.counters.empty()) return fail("empty");
  if (s.serialize() != ref.serialize()) return fail("serialize()");
  const std::vector<Event> pending = random_pending(rng);
  if (CheckpointBlob::encode_full(7, s, pending) !=
      reference::encode_full(7, ref, pending)) {
    return fail("encode_full");
  }
  if (CheckpointBlob::encode_delta(8, 7, s, pending) !=
      reference::encode_delta(8, 7, ref, pending)) {
    return fail("encode_delta");
  }
  if (CheckpointBlob::make_delta(8, 7, s, pending).serialize() !=
      reference::encode_delta(8, 7, ref, pending)) {
    return fail("make_delta");
  }
  if (CheckpointBlob::full_size(s) != reference::full_size(ref)) {
    return fail("full_size");
  }
  if (CheckpointBlob::delta_size(s) != reference::delta_size(ref)) {
    return fail("delta_size");
  }
  if (as_strings(s.dirty_keys()) != as_strings(ref.dirty)) {
    return fail("dirty keys");
  }
  if (as_strings(s.deleted_keys()) != as_strings(ref.deleted)) {
    return fail("deleted keys");
  }
  if (s.has_dirty() != ref.has_dirty()) return fail("has_dirty");
  std::vector<std::string> probes = plain_keys();
  for (int k = 0; k < 60; ++k) probes.push_back("key/" + std::to_string(k));
  for (int k = 0; k < 10; ++k) probes.push_back("ghost/" + std::to_string(k));
  for (const std::string& k : probes) {
    if (s.get(k) != ref.get(k)) return fail(("get(" + k + ")").c_str());
    if (s.counters.contains(k) != ref.counters.contains(k)) {
      return fail(("contains(" + k + ")").c_str());
    }
  }
  return ::testing::AssertionSuccess();
}

/// Slot handles, one per key: one set used only on the live state, one
/// only on the snapshot, and one on both.  They live for the whole test,
/// so each meets every operation step() applies to the tables it is used
/// with.
class Handles {
 public:
  /// `s[k]`, where `s` is the live state or the snapshot: through one of
  /// `s`'s own handles or a shared one two times in three, else by key.
  std::int64_t& upsert(TaskState& s, bool live, const std::string& k,
                       Rng& rng) {
    const std::uint64_t way = rng.uniform_int(0, 2);
    if (way == 0) return s[k];
    std::map<std::string, TaskState::Handle>& set =
        way == 2 ? shared_ : live ? live_ : snap_;
    return s.at(set[k], k);
  }

 private:
  std::map<std::string, TaskState::Handle> live_;
  std::map<std::string, TaskState::Handle> snap_;
  std::map<std::string, TaskState::Handle> shared_;
};

/// The live state, the snapshot PREPARE hands over into, their reference
/// twins and the handles used on them.
struct Models {
  TaskState live;
  TaskState snap;
  ReferenceState ref_live;
  ReferenceState ref_snap;
  Handles* handles{nullptr};

  std::int64_t& live_at(const std::string& k, Rng& rng) {
    return handles->upsert(live, /*live=*/true, k, rng);
  }
  std::int64_t& snap_at(const std::string& k, Rng& rng) {
    return handles->upsert(snap, /*live=*/false, k, rng);
  }
};

/// Applies one random operation to both models; returns its name.  A
/// step that builds an intermediate state checks it on the spot.
const char* step(Models& m, Rng& rng) {
  const std::uint64_t op = rng.uniform_int(0, 16);
  switch (op) {
    case 0:
    case 1:
    case 2: {
      const std::string k = random_key(rng);
      const auto v = static_cast<std::int64_t>(rng.next() % 1000);
      m.live_at(k, rng) += v;
      m.ref_live[k] += v;
      return "upsert";
    }
    case 3: {
      if (m.ref_live.counters.empty()) return "erase (nothing to erase)";
      auto it = m.ref_live.counters.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_int(
                           0, m.ref_live.counters.size() - 1)));
      const std::string k = it->first;
      m.live.erase(k);
      m.ref_live.erase(k);
      return "erase present key";
    }
    case 4: {
      const std::string k = rng.uniform01() < 0.5 ? ghost_key(rng)
                                                  : random_key(rng);
      m.live.erase(k);
      m.ref_live.erase(k);
      return "erase maybe-absent key";
    }
    case 5:
      m.live.clear_dirty();
      m.ref_live.clear_dirty();
      return "clear_dirty";
    case 6:
      m.live = TaskState(m.live);
      m.ref_live = ReferenceState(m.ref_live);
      return "copy";
    case 7:
      m.live.hand_over_snapshot(m.snap);
      m.ref_live.hand_over_snapshot(m.ref_snap);
      return "hand_over_snapshot";
    case 8: {
      // The production route to a dirty key absent from the map: erased
      // after PREPARE handed it over, then merged back on ROLLBACK.
      const std::string k = random_key(rng);
      m.live_at(k, rng) += 1;
      m.ref_live[k] += 1;
      m.live.hand_over_snapshot(m.snap);
      m.ref_live.hand_over_snapshot(m.ref_snap);
      m.live.erase(k);
      m.ref_live.erase(k);
      m.live.merge_dirty_from(m.snap);
      m.ref_live.merge_dirty_from(m.ref_snap);
      return "erase after hand-over, then merge_dirty_from";
    }
    case 9:
      m.live.merge_dirty_from(m.snap);
      m.ref_live.merge_dirty_from(m.ref_snap);
      return "merge_dirty_from";
    case 10: {
      const StatePartitionMap map(static_cast<int>(rng.uniform_int(1, 6)));
      const int p = static_cast<int>(
          rng.uniform_int(0, static_cast<std::uint64_t>(map.reserved())));
      TaskState part = extract_partition(m.live, map, p);
      ReferenceState ref_part =
          reference::extract_partition(m.ref_live, map, p);
      EXPECT_TRUE(same(part, ref_part, rng)) << "extracted partition";
      if (rng.uniform01() < 0.5) {
        merge_partition(m.live, part);
        reference::merge_partition(m.ref_live, ref_part);
      } else {
        merge_partition(m.snap, part);
        reference::merge_partition(m.ref_snap, ref_part);
      }
      return "extract_partition + merge_partition";
    }
    case 11: {
      const Bytes raw = shuffled_payload(rng);
      BytesReader r(raw);
      BytesReader ref_r(raw);
      m.live = TaskState::deserialize(r);
      m.ref_live = ReferenceState::deserialize(ref_r);
      return "deserialize out-of-order payload";
    }
    case 12: {
      const CheckpointBlob delta =
          CheckpointBlob::make_delta(2, 1, m.live, {});
      delta.apply_delta_to(m.snap);
      reference::apply_delta(delta, m.ref_snap);
      return "apply_delta_to snapshot";
    }
    case 13:
      m.snap = m.live;
      m.ref_snap = m.ref_live;
      return "copy-assign snapshot";
    case 14: {
      const std::string k = random_key(rng);
      const std::string ghost = ghost_key(rng);
      m.snap_at(k, rng) = 5;
      m.ref_snap[k] = 5;
      m.snap.erase(ghost);
      m.ref_snap.erase(ghost);
      return "mutate snapshot";
    }
    case 15:
      m.live = TaskState{};
      m.ref_live = ReferenceState{};
      return "reset";
    default: {
      const std::string k = random_key(rng);
      const auto v = static_cast<std::int64_t>(rng.next() % 1000) - 500;
      m.live_at(k, rng) = v;
      m.ref_live[k] = v;
      return "assign";
    }
  }
}

TEST(TaskStateDifferential, MatchesTheOrderedMapModel) {
  Rng rng(0xD1FFull);
  Handles handles;
  for (int round = 0; round < 240; ++round) {
    Models m;
    m.handles = &handles;
    const int steps = static_cast<int>(rng.uniform_int(10, 60));
    for (int i = 0; i < steps; ++i) {
      const char* op = step(m, rng);
      const std::string where = "round " + std::to_string(round) + " step " +
                                std::to_string(i) + " (" + op + ")";
      ASSERT_FALSE(HasFailure()) << where;
      ASSERT_TRUE(same(m.live, m.ref_live, rng)) << "live, " << where;
      ASSERT_TRUE(same(m.snap, m.ref_snap, rng)) << "snapshot, " << where;
      ASSERT_EQ(m.live == m.snap, m.ref_live == m.ref_snap) << where;
    }
  }
}

}  // namespace
}  // namespace rill::dsps
