// RingQueue (common/ring_queue.hpp) against a std::deque model.  Seeded
// operation sequences push at both ends, pop, clear, mutate through
// iterators and move whole queues around; after every step the contents,
// in order, must match the model.  Deterministic cases pin the wrap at
// both ends and growth while the head is not at slot 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/ring_queue.hpp"
#include "common/rng.hpp"

namespace rill {
namespace {

using Ring = RingQueue<std::uint64_t>;
using Model = std::deque<std::uint64_t>;

/// Contents, order and the three ways to read them agree with the model.
void expect_same(const Ring& r, const Model& m) {
  ASSERT_EQ(r.size(), m.size());
  ASSERT_EQ(r.empty(), m.empty());
  ASSERT_GE(r.capacity(), r.size());
  if (!m.empty()) {
    ASSERT_EQ(r.front(), m.front());
  }
  for (std::size_t i = 0; i < m.size(); ++i) ASSERT_EQ(r[i], m[i]) << i;
  const std::vector<std::uint64_t> walked(r.begin(), r.end());
  ASSERT_EQ(walked, std::vector<std::uint64_t>(m.begin(), m.end()));
}

TEST(RingQueueDifferential, MatchesDequeOnSeededSequences) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Ring r;
    Model m;
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t v = rng.next();
      switch (rng.uniform_int(0, 11)) {
        case 0:
        case 1:
        case 2:
          r.push_back(v);
          m.push_back(v);
          break;
        case 3:
        case 4:
          r.push_front(v);
          m.push_front(v);
          break;
        case 5:
        case 6:
        case 7:
          if (!m.empty()) {
            ASSERT_EQ(r.front(), m.front());
            r.pop_front();
            m.pop_front();
          }
          break;
        case 8:
          // Write through the mutable iterator and operator[].
          for (std::uint64_t& x : r) x ^= v;
          for (std::uint64_t& x : m) x ^= v;
          if (!m.empty()) {
            const std::size_t i = rng.uniform_int(0, m.size() - 1);
            r[i] = v;
            m[i] = v;
          }
          break;
        case 9: {
          // Move the whole queue out and back (the executor's requeue
          // drain move-assigns a rebuilt queue over the old one).
          Ring moved = std::move(r);
          EXPECT_TRUE(r.empty());  // NOLINT(bugprone-use-after-move)
          EXPECT_EQ(r.capacity(), 0u);
          r = std::move(moved);
          break;
        }
        case 10: {
          // Move-assign a different queue over this one.
          Ring other;
          Model other_model;
          const std::uint64_t n = rng.uniform_int(0, 12);
          for (std::uint64_t i = 0; i < n; ++i) {
            other.push_back(v + i);
            other_model.push_back(v + i);
          }
          r = std::move(other);
          m = std::move(other_model);
          break;
        }
        case 11:
          if (rng.uniform_int(0, 20) == 0) {
            const std::size_t cap = r.capacity();
            r.clear();
            m.clear();
            ASSERT_EQ(r.capacity(), cap);  // clear keeps the array
          }
          break;
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(r, m)) << "step " << step;
    }
  }
}

TEST(RingQueue, AllocatesNothingUntilTheFirstPush) {
  Ring r;
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.begin(), r.end());
  r.clear();
  EXPECT_EQ(r.capacity(), 0u);
  r.push_front(5);
  EXPECT_EQ(r.capacity(), Ring::kMinCapacity);
  EXPECT_EQ(r.front(), 5u);
}

TEST(RingQueue, PushesWrapAtBothEnds) {
  Ring r;
  Model m;
  // Walk the head to slot 5 of 8, then push_back past the end of the
  // array and push_front back across it.
  for (std::uint64_t i = 0; i < 6; ++i) {
    r.push_back(i);
    m.push_back(i);
  }
  for (int i = 0; i < 5; ++i) {
    r.pop_front();
    m.pop_front();
  }
  for (std::uint64_t i = 10; i < 14; ++i) {
    r.push_back(i);
    m.push_back(i);
  }
  for (std::uint64_t i = 20; i < 22; ++i) {
    r.push_front(i);
    m.push_front(i);
  }
  EXPECT_EQ(r.capacity(), 8u);
  expect_same(r, m);
}

TEST(RingQueue, GrowsWhileTheHeadIsNotAtSlotZero) {
  for (std::size_t head = 0; head < Ring::kMinCapacity; ++head) {
    SCOPED_TRACE("head " + std::to_string(head));
    Ring r;
    Model m;
    // Park the head at `head`, fill the array, then grow it from each end.
    for (std::size_t i = 0; i < head; ++i) r.push_back(0);
    for (std::size_t i = 0; i < head; ++i) r.pop_front();
    for (std::uint64_t i = 0; i < Ring::kMinCapacity; ++i) {
      r.push_back(i);
      m.push_back(i);
    }
    ASSERT_EQ(r.capacity(), Ring::kMinCapacity);
    if (head % 2 == 0) {
      r.push_back(100);
      m.push_back(100);
    } else {
      r.push_front(100);
      m.push_front(100);
    }
    EXPECT_EQ(r.capacity(), 2 * Ring::kMinCapacity);
    expect_same(r, m);
  }
}

}  // namespace
}  // namespace rill
