#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dsps/config.hpp"
#include "dsps/state.hpp"

namespace rill::dsps {
namespace {

TEST(TaskState, SerdeRoundtrip) {
  TaskState s;
  s["processed"] = 1234;
  s["sig"] = -987654321;
  s["window"] = 0;

  const Bytes raw = s.serialize();
  BytesReader r(raw);
  const TaskState back = TaskState::deserialize(r);
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.get("processed"), 1234);
  EXPECT_EQ(back.get("missing"), 0);
}

TEST(TaskState, EmptySerde) {
  TaskState s;
  const Bytes raw = s.serialize();
  BytesReader r(raw);
  EXPECT_EQ(TaskState::deserialize(r), s);
}

TEST(TaskState, DeterministicSerialisation) {
  TaskState a, b;
  a["z"] = 1;
  a["a"] = 2;
  b["a"] = 2;
  b["z"] = 1;
  EXPECT_EQ(a.serialize(), b.serialize());  // ordered map ⇒ canonical bytes
}

Event sample_event() {
  Event ev;
  ev.id = 0xAABB;
  ev.root = 0x1122;
  ev.origin = 0x99;
  ev.producer = TaskId{3};
  ev.born_at = 123456;
  ev.emitted_at = 234567;
  ev.control = ControlKind::None;
  ev.checkpoint_id = 0;
  ev.replayed = true;
  ev.payload_size = 77;
  return ev;
}

TEST(EventSerde, Roundtrip) {
  BytesWriter w;
  serialize_event(w, sample_event());
  BytesReader r(w.data());
  const Event back = deserialize_event(r);
  const Event orig = sample_event();
  EXPECT_EQ(back.id, orig.id);
  EXPECT_EQ(back.root, orig.root);
  EXPECT_EQ(back.origin, orig.origin);
  EXPECT_EQ(back.producer, orig.producer);
  EXPECT_EQ(back.born_at, orig.born_at);
  EXPECT_EQ(back.emitted_at, orig.emitted_at);
  EXPECT_EQ(back.control, orig.control);
  EXPECT_EQ(back.replayed, orig.replayed);
  EXPECT_EQ(back.payload_size, orig.payload_size);
}

TEST(CheckpointBlob, RoundtripWithPending) {
  CheckpointBlob blob;
  blob.checkpoint_id = 17;
  blob.state["processed"] = 55;
  for (int i = 0; i < 10; ++i) {
    Event ev = sample_event();
    ev.id = static_cast<EventId>(i);
    blob.pending.push_back(ev);
  }

  const Bytes raw = blob.serialize();
  const CheckpointBlob back = CheckpointBlob::deserialize(raw);
  EXPECT_EQ(back.checkpoint_id, 17u);
  EXPECT_EQ(back.state, blob.state);
  ASSERT_EQ(back.pending.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(back.pending[static_cast<size_t>(i)].id,
              static_cast<EventId>(i));
  }
}

TEST(CheckpointBlob, EmptyPendingRoundtrip) {
  CheckpointBlob blob;
  blob.checkpoint_id = 1;
  const CheckpointBlob back = CheckpointBlob::deserialize(blob.serialize());
  EXPECT_TRUE(back.pending.empty());
}

TEST(CheckpointBlob, KeyIsUniquePerInstance) {
  const std::string a = CheckpointBlob::key(1, TaskId{2}, 3);
  const std::string b = CheckpointBlob::key(1, TaskId{2}, 4);
  const std::string c = CheckpointBlob::key(1, TaskId{3}, 3);
  const std::string d = CheckpointBlob::key(2, TaskId{2}, 3);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(CheckpointBlob, GarbageThrows) {
  Bytes garbage{1, 2, 3};
  EXPECT_THROW(CheckpointBlob::deserialize(garbage), DeserializeError);
}

TEST(TaskState, DirtyTrackingFollowsMutations) {
  TaskState s;
  s["a"] = 1;
  s["b"] = 2;
  EXPECT_TRUE(s.has_dirty());
  EXPECT_EQ(s.dirty_keys().size(), 2u);

  s.clear_dirty();
  EXPECT_FALSE(s.has_dirty());

  s["a"] += 1;        // update marks dirty again
  s.erase("b");       // deletion is tombstoned
  EXPECT_EQ(s.dirty_keys().size(), 1u);
  ASSERT_EQ(s.deleted_keys().size(), 1u);
  EXPECT_EQ(*s.deleted_keys().begin(), "b");

  s["b"] = 9;  // re-insert revives the key: tombstone must go
  EXPECT_TRUE(s.deleted_keys().empty());
  EXPECT_EQ(s.dirty_keys().size(), 2u);
}

TEST(TaskState, MergeDirtyRestoresUnpersistedChanges) {
  // ROLLBACK path: the prepared snapshot's recorded changes flow back into
  // the live state so the next blob still covers them.
  TaskState live;
  live["a"] = 1;
  live["gone"] = 2;
  live.clear_dirty();

  TaskState snapshot = live;
  snapshot["a"] += 1;
  snapshot.erase("gone");
  live = snapshot;  // live caught up, bookkeeping did not
  live.clear_dirty();

  live.merge_dirty_from(snapshot);
  EXPECT_TRUE(live.dirty_keys().contains("a"));
  EXPECT_TRUE(live.deleted_keys().contains("gone"));
}

TEST(CheckpointBlob, EmptyStateFullRoundtrip) {
  CheckpointBlob blob;
  blob.checkpoint_id = 3;
  const CheckpointBlob back = CheckpointBlob::deserialize(blob.serialize());
  EXPECT_EQ(back.checkpoint_id, 3u);
  EXPECT_FALSE(back.is_delta());
  EXPECT_TRUE(back.state.counters.empty());
  EXPECT_TRUE(back.pending.empty());
}

TEST(CheckpointBlob, DeltaRoundtripWithDeletions) {
  TaskState base;
  base["keep"] = 1;
  base["bump"] = 10;
  base["drop"] = 99;
  base.clear_dirty();

  TaskState next = base;
  next["bump"] += 5;
  next["fresh"] = 7;
  next.erase("drop");

  std::vector<Event> pend;
  pend.push_back(sample_event());
  CheckpointBlob delta = CheckpointBlob::make_delta(8, 7, next, pend);
  EXPECT_TRUE(delta.is_delta());

  const CheckpointBlob back = CheckpointBlob::deserialize(delta.serialize());
  EXPECT_EQ(back.checkpoint_id, 8u);
  EXPECT_EQ(back.base_checkpoint_id, 7u);
  ASSERT_EQ(back.pending.size(), 1u);

  TaskState restored = base;
  back.apply_delta_to(restored);
  EXPECT_EQ(restored, next);
  EXPECT_EQ(restored.get("drop"), 0);
  EXPECT_EQ(restored.get("fresh"), 7);
  EXPECT_EQ(restored.get("bump"), 15);
}

TEST(CheckpointBlob, DeltaBaseOfPeeksWithoutDecoding) {
  CheckpointBlob full;
  full.checkpoint_id = 4;
  full.state["k"] = 1;
  EXPECT_EQ(CheckpointBlob::delta_base_of(full.serialize()), std::nullopt);

  TaskState st;
  st["k"] = 2;
  const CheckpointBlob delta = CheckpointBlob::make_delta(5, 4, st, {});
  EXPECT_EQ(CheckpointBlob::delta_base_of(delta.serialize()), 4u);

  EXPECT_EQ(CheckpointBlob::delta_base_of(Bytes{1, 2, 3}), std::nullopt);
  EXPECT_EQ(CheckpointBlob::delta_base_of(Bytes{}), std::nullopt);
}

TEST(CheckpointBlob, TruncatedBuffersAreRejectedNotMisread) {
  TaskState st;
  st["alpha"] = 1;
  st["beta"] = -2;
  CheckpointBlob delta = CheckpointBlob::make_delta(6, 5, st, {});
  delta.pending.push_back(sample_event());
  const Bytes full_raw = delta.serialize();
  // Every proper prefix must throw — never return a half-decoded blob.
  for (std::size_t len = 0; len < full_raw.size(); ++len) {
    Bytes cut(full_raw.begin(),
              full_raw.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(CheckpointBlob::deserialize(cut), DeserializeError)
        << "prefix of " << len << " bytes decoded without error";
  }
}

TEST(CheckpointBlob, SeededFuzzRoundtripAndChainEquivalence) {
  // Random mutation histories: the delta chain replayed over the first full
  // blob must always reconstruct the exact final map.
  Rng rng(0xC0FFEEull);
  for (int round = 0; round < 50; ++round) {
    TaskState live;
    const std::uint64_t keys = 1 + rng.uniform_int(1, 12);
    for (std::uint64_t k = 0; k < keys; ++k) {
      live["k" + std::to_string(k)] =
          static_cast<std::int64_t>(rng.next() % 1000);
    }
    // Wave 1: full blob.
    CheckpointBlob full;
    full.checkpoint_id = 1;
    full.state = live;
    TaskState restored =
        CheckpointBlob::deserialize(full.serialize()).state;
    live.clear_dirty();

    // Waves 2..n: random upserts/deletes, one delta blob per wave.
    const std::uint64_t waves = rng.uniform_int(1, 6);
    for (std::uint64_t w = 0; w < waves; ++w) {
      const std::uint64_t muts = rng.uniform_int(1, 8);
      for (std::uint64_t m = 0; m < muts; ++m) {
        const std::string key = "k" + std::to_string(rng.next() % (keys + 3));
        if (rng.uniform01() < 0.25) {
          live.erase(key);
        } else {
          live[key] = static_cast<std::int64_t>(rng.next() % 1000);
        }
      }
      const CheckpointBlob delta =
          CheckpointBlob::make_delta(w + 2, w + 1, live, {});
      live.clear_dirty();
      CheckpointBlob::deserialize(delta.serialize())
          .apply_delta_to(restored);
    }
    EXPECT_EQ(restored, live) << "round " << round;
  }
}

TEST(CheckpointBlob, CorruptElementCountsThrowDeserializeError) {
  // A count read from the blob must not size an allocation beyond what the
  // remaining bytes can hold: both blobs end right after a 2^32-1 count.
  BytesWriter full;
  full.put_u64(1);            // checkpoint id
  full.put_u32(4);            // state payload length
  full.put_u32(0);            // no keys
  full.put_u32(0xFFFFFFFFu);  // pending count
  ASSERT_EQ(full.size(), 20u);
  EXPECT_THROW(static_cast<void>(CheckpointBlob::deserialize(full.data())),
               DeserializeError);

  BytesWriter delta;
  delta.put_u64(~0ull);        // delta magic
  delta.put_u64(2);            // checkpoint id
  delta.put_u64(1);            // base checkpoint id
  delta.put_u32(0);            // no upserts
  delta.put_u32(0xFFFFFFFFu);  // deleted count
  ASSERT_EQ(delta.size(), 32u);
  EXPECT_THROW(static_cast<void>(CheckpointBlob::deserialize(delta.data())),
               DeserializeError);
}

/// The wire format spelled out from BytesWriter primitives: the full form
/// nests TaskState::serialize() as a length-prefixed payload; the delta
/// form lists the changed entries and then the deleted keys.
Bytes reference_bytes(const CheckpointBlob& b) {
  BytesWriter w;
  if (b.is_delta()) {
    w.put_u64(~0ull);
    w.put_u64(b.checkpoint_id);
    w.put_u64(b.base_checkpoint_id);
    w.put_u32(static_cast<std::uint32_t>(b.changed.size()));
    for (const auto& [k, v] : b.changed) {
      w.put_string(k);
      w.put_i64(v);
    }
    w.put_u32(static_cast<std::uint32_t>(b.deleted.size()));
    for (const auto& k : b.deleted) w.put_string(k);
  } else {
    w.put_u64(b.checkpoint_id);
    w.put_bytes(b.state.serialize());
  }
  w.put_u32(static_cast<std::uint32_t>(b.pending.size()));
  for (const Event& ev : b.pending) serialize_event(w, ev);
  return w.take();
}

/// A random state with a random change record: upserts, tombstones (some
/// of keys that were never there), and dirty keys no longer in the map.
/// Round 0 is the empty state.
TaskState random_state(Rng& rng, int round) {
  TaskState s;
  if (round == 0) return s;
  const std::uint64_t keys = rng.uniform_int(0, 20);
  for (std::uint64_t k = 0; k < keys; ++k) {
    s["k" + std::to_string(k)] = static_cast<std::int64_t>(rng.next());
  }
  if (rng.uniform01() < 0.5) s.clear_dirty();
  const std::uint64_t muts = rng.uniform_int(0, 12);
  for (std::uint64_t m = 0; m < muts; ++m) {
    const std::string key = "k" + std::to_string(rng.next() % (keys + 4));
    const double roll = rng.uniform01();
    if (roll < 0.5) {
      s[key] = static_cast<std::int64_t>(rng.next());
    } else if (roll < 0.75) {
      s.erase(key);
    } else {
      // Dirty, but gone from the map: the key is erased after a PREPARE
      // hand-over, and a ROLLBACK merges the snapshot's changes back.
      s[key] = 1;
      TaskState snap;
      s.hand_over_snapshot(snap);
      s.erase(key);
      s.merge_dirty_from(snap);
    }
  }
  return s;
}

TEST(CheckpointBlob, EncodersMatchTheBlobPath) {
  Rng rng(0x5EEDC0DEull);
  for (int round = 0; round < 200; ++round) {
    const TaskState state = random_state(rng, round);
    std::vector<Event> pending;
    const std::uint64_t events = rng.uniform_int(0, 3);
    for (std::uint64_t i = 0; i < events; ++i) {
      Event ev = sample_event();
      ev.id = rng.next();
      ev.key = rng.next();
      pending.push_back(ev);
    }
    const std::uint64_t cid = rng.uniform_int(2, 1000);
    const std::uint64_t base = cid - 1;

    CheckpointBlob full;
    full.checkpoint_id = cid;
    full.state = state;
    full.pending = pending;
    const Bytes full_bytes = CheckpointBlob::encode_full(cid, state, pending);
    EXPECT_EQ(full_bytes, full.serialize()) << "round " << round;
    EXPECT_EQ(full_bytes, reference_bytes(full)) << "round " << round;

    const CheckpointBlob delta =
        CheckpointBlob::make_delta(cid, base, state, pending);
    const Bytes delta_bytes =
        CheckpointBlob::encode_delta(cid, base, state, pending);
    EXPECT_EQ(delta_bytes, delta.serialize()) << "round " << round;
    EXPECT_EQ(delta_bytes, reference_bytes(delta)) << "round " << round;

    EXPECT_EQ(CheckpointBlob::full_size(state),
              CheckpointBlob::encode_full(cid, state, {}).size())
        << "round " << round;
    EXPECT_EQ(CheckpointBlob::delta_size(state),
              CheckpointBlob::encode_delta(cid, base, state, {}).size())
        << "round " << round;

    // PREPARE hand-over into a snapshot that still holds an older wave.
    TaskState live = state;
    TaskState snap = random_state(rng, round + 1);
    live.hand_over_snapshot(snap);
    EXPECT_FALSE(live.has_dirty()) << "round " << round;
    EXPECT_EQ(live.counters, state.counters) << "round " << round;
    EXPECT_EQ(snap.counters, state.counters) << "round " << round;
    EXPECT_EQ(snap.dirty_keys(), state.dirty_keys()) << "round " << round;
    EXPECT_EQ(snap.deleted_keys(), state.deleted_keys()) << "round " << round;
  }
}

/// One clean key of `clean_len` bytes and the dirty key "d".  Full form:
/// 20 B of framing + (12 + clean_len) + 13; delta form: 36 + 13 = 49 B.
TaskState one_dirty_key(std::size_t clean_len) {
  TaskState s;
  s[std::string(clean_len, 'c')] = 1;
  s.clear_dirty();
  s["d"] = 2;
  return s;
}

TEST(CheckpointBlob, RatioGuardKeepsAHalfSizeDeltaAndNotOneByteMore) {
  const double ratio = PlatformConfig{}.ckpt_delta_max_ratio;
  ASSERT_EQ(ratio, 0.5);

  const TaskState at_half = one_dirty_key(53);
  ASSERT_EQ(CheckpointBlob::full_size(at_half), 98u);
  ASSERT_EQ(CheckpointBlob::delta_size(at_half), 49u);
  EXPECT_TRUE(CheckpointBlob::delta_within_ratio(at_half, ratio));

  const TaskState over = one_dirty_key(51);
  ASSERT_EQ(CheckpointBlob::full_size(over), 96u);
  ASSERT_EQ(CheckpointBlob::delta_size(over), 49u);
  EXPECT_FALSE(CheckpointBlob::delta_within_ratio(over, ratio));
}

}  // namespace
}  // namespace rill::dsps
