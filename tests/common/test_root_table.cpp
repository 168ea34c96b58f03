// RootTable (common/root_table.hpp) against std::unordered_map.  Seeded
// operation sequences draw keys from pools built to stress the probing:
// keys that share a home slot, keys homed at the last slots so chains wrap
// past the end of the array, key 0 and ~0.  After every step each pool
// key's presence and value must match the model, and so must the size and
// the set of entries iteration visits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/root_table.hpp"

namespace rill {
namespace {

using Table = RootTable<std::string>;

/// A key whose home slot is `slot` in an array of `capacity` slots.
RootId key_homed_at(std::size_t slot, std::size_t capacity, Rng& rng) {
  for (;;) {
    const RootId k = rng.next();
    if (Table::home(k, capacity) == slot) return k;
  }
}

/// Keys that collide and wrap at every capacity from 16 to 256: homes are
/// the top bits of a product, so a key homed in the last slot at 16 is
/// homed in the last slots at every larger capacity too.
std::vector<RootId> hostile_pool(Rng& rng) {
  std::vector<RootId> pool = {0, ~RootId{0}, 1, 2};
  for (int i = 0; i < 10; ++i) pool.push_back(key_homed_at(15, 16, rng));
  for (int i = 0; i < 6; ++i) pool.push_back(key_homed_at(14, 16, rng));
  for (int i = 0; i < 6; ++i) pool.push_back(key_homed_at(0, 16, rng));
  for (int i = 0; i < 6; ++i) pool.push_back(key_homed_at(3, 16, rng));
  for (int i = 0; i < 16; ++i) pool.push_back(rng.next());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

std::vector<std::pair<RootId, std::string>> entries(const Table& t) {
  std::vector<std::pair<RootId, std::string>> out;
  for (const auto& [key, value] : t) out.emplace_back(key, value);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<RootId, std::string>> entries(
    const std::unordered_map<RootId, std::string>& m) {
  std::vector<std::pair<RootId, std::string>> out(m.begin(), m.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Every pool key agrees with the model; so do size and iteration.
void expect_same(const Table& t,
                 const std::unordered_map<RootId, std::string>& model,
                 const std::vector<RootId>& pool) {
  ASSERT_EQ(t.size(), model.size());
  for (const RootId k : pool) {
    const std::string* v = t.find(k);
    const auto it = model.find(k);
    ASSERT_EQ(v != nullptr, it != model.end()) << "key " << k;
    ASSERT_EQ(t.contains(k), it != model.end()) << "key " << k;
    if (v != nullptr) {
      ASSERT_EQ(*v, it->second) << "key " << k;
    }
  }
  ASSERT_EQ(entries(t), entries(model));
  // Load stays at or below 1/2, so every probe chain ends at an empty slot.
  ASSERT_LE(t.size() * 2, t.capacity());
}

TEST(RootTableDifferential, MatchesUnorderedMapOnSeededSequences) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<RootId> pool = hostile_pool(rng);
    Table t;
    std::unordered_map<RootId, std::string> model;
    for (int step = 0; step < 1500; ++step) {
      const RootId k = pool[rng.uniform_int(0, pool.size() - 1)];
      // Values long enough to live on the heap, so ASan sees a value
      // leaked or freed twice by the backward shift.
      const std::string v = "value-" + std::to_string(rng.next());
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3:
          // Insert or overwrite; the returned reference is the stored value.
          ASSERT_EQ(t.insert_or_assign(k, v), v);
          model[k] = v;
          break;
        case 4:
        case 5:
          // Erase by key, present or absent.
          ASSERT_EQ(t.erase(k), model.erase(k) == 1);
          break;
        case 6:
        case 7:
          // Erase through the value find() returned (the acker's ack path).
          if (std::string* v = t.find(k)) {
            t.erase(v);
            model.erase(k);
          } else {
            ASSERT_FALSE(model.contains(k));
          }
          break;
        case 8:
        case 9:
          // Mutate through find().
          if (std::string* v = t.find(k)) {
            *v += "+";
            model[k] += "+";
          }
          break;
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(t, model, pool)) << "step " << step;
    }
  }
}

TEST(RootTable, ChainsWrapPastTheEndAndShiftBackOnErase) {
  Rng rng(7);
  Table t;
  std::unordered_map<RootId, std::string> model;
  // Five keys homed at 14 occupy 14, 15, 0, 1, 2; two keys homed at 0 and
  // one at 1 queue up behind them.
  std::vector<RootId> keys;
  for (int i = 0; i < 5; ++i) keys.push_back(key_homed_at(14, 16, rng));
  for (int i = 0; i < 2; ++i) keys.push_back(key_homed_at(0, 16, rng));
  keys.push_back(key_homed_at(1, 16, rng));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t.insert_or_assign(keys[i], std::to_string(i));
    model[keys[i]] = std::to_string(i);
  }
  ASSERT_EQ(t.capacity(), 16u);
  expect_same(t, model, keys);
  // Erase from the head, the wrap point and the tail of the chain; every
  // survivor must stay reachable from its home.
  for (const std::size_t victim : {0u, 2u, 7u, 4u, 1u}) {
    ASSERT_TRUE(t.erase(keys[victim]));
    model.erase(keys[victim]);
    expect_same(t, model, keys);
  }
  // Re-insert after erase: the keys come back with fresh values.
  for (const std::size_t again : {2u, 0u}) {
    t.insert_or_assign(keys[again], "again");
    model[keys[again]] = "again";
    expect_same(t, model, keys);
  }
}

TEST(RootTable, GrowsInTheMiddleOfAChain) {
  Rng rng(11);
  Table t;
  std::unordered_map<RootId, std::string> model;
  std::vector<RootId> keys;
  // Eight keys homed at 15 fill a wrapped chain to the half-load bound of
  // a 16-slot array; the ninth insert grows it.
  for (int i = 0; i < 9; ++i) keys.push_back(key_homed_at(15, 16, rng));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t.insert_or_assign(keys[i], std::to_string(i));
    model[keys[i]] = std::to_string(i);
    expect_same(t, model, keys);
    EXPECT_EQ(t.capacity(), i < 8 ? 16u : 32u) << "after insert " << i;
  }
  // Overwriting a present key at the bound does not grow.
  Table full;
  for (int i = 0; i < 8; ++i) full.insert_or_assign(keys[i], "x");
  full.insert_or_assign(keys[5], "y");
  EXPECT_EQ(full.capacity(), 16u);
  EXPECT_EQ(*full.find(keys[5]), "y");
}

TEST(RootTable, KeyZeroIsAnOrdinaryKey) {
  Table t;
  EXPECT_FALSE(t.contains(0));
  t.insert_or_assign(0, "zero");
  t.insert_or_assign(~RootId{0}, "max");
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), "zero");
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.erase(RootId{0}));
  EXPECT_FALSE(t.erase(RootId{0}));
  EXPECT_FALSE(t.contains(0));
  EXPECT_EQ(*t.find(~RootId{0}), "max");
}

TEST(RootTable, AllocatesNothingUntilTheFirstInsert) {
  Table t;
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.find(42), nullptr);
  EXPECT_FALSE(t.erase(RootId{42}));
  EXPECT_EQ(t.begin(), t.end());
  EXPECT_EQ(t.capacity(), 0u);
  t.insert_or_assign(42, "x");
  EXPECT_EQ(t.capacity(), Table::kMinCapacity);
}

TEST(RootTable, EraseReleasesTheValueAtOnce) {
  // The acker's values hold callbacks; an erased root must not keep what
  // its callbacks captured alive in a vacated slot.
  RootTable<std::shared_ptr<int>> t;
  auto held = std::make_shared<int>(1);
  Rng rng(3);
  const RootId a = key_homed_at(5, 16, rng);
  const RootId b = key_homed_at(5, 16, rng);
  t.insert_or_assign(a, held);
  t.insert_or_assign(b, held);
  EXPECT_EQ(held.use_count(), 3);
  t.erase(t.find(a));  // b shifts back into a's slot
  EXPECT_EQ(held.use_count(), 2);
  t.erase(RootId{b});
  EXPECT_EQ(held.use_count(), 1);
}

TEST(RootTable, MovedFromTableIsEmpty) {
  Table a;
  a.insert_or_assign(1, "one");
  a.insert_or_assign(2, "two");
  Table b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*b.find(2), "two");
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.find(1), nullptr);
  a.insert_or_assign(3, "three");  // a moved-from table is reusable
  a = std::move(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.find(3), nullptr);
  EXPECT_EQ(*a.find(1), "one");
}

}  // namespace
}  // namespace rill
