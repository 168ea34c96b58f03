#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "metrics/collector.hpp"

namespace rill::metrics {
namespace {

dsps::Event user_event(RootId origin, SimTime born, SimTime emitted,
                       bool replayed = false) {
  dsps::Event ev;
  ev.id = origin * 10;
  ev.root = origin;
  ev.origin = origin;
  ev.born_at = born;
  ev.emitted_at = emitted;
  ev.replayed = replayed;
  return ev;
}

SimTime at(double sec) { return static_cast<SimTime>(sec * 1e6); }

TEST(Collector, CountsSourceEmitsAndRoots) {
  Collector c;
  c.on_source_emit(user_event(1, at(1), at(1)), false);
  c.on_source_emit(user_event(2, at(2), at(2)), false);
  EXPECT_EQ(c.roots_emitted(), 2u);
  EXPECT_EQ(c.input().total(), 2u);
  EXPECT_EQ(c.roots().size(), 2u);
}

TEST(Collector, ReplayKeepsOriginRecord) {
  Collector c;
  c.on_source_emit(user_event(5, at(1), at(1)), false);
  c.on_source_emit(user_event(5, at(1), at(40), true), true);
  EXPECT_EQ(c.roots_emitted(), 1u);
  EXPECT_EQ(c.replayed_roots(), 1u);
  ASSERT_EQ(c.roots().size(), 1u);
  EXPECT_TRUE(c.roots().at(5).replay);
}

TEST(Collector, ReplayedEmissionsCounted) {
  Collector c;
  c.on_emit(user_event(1, at(1), at(1), true));
  c.on_emit(user_event(1, at(1), at(1), false));
  dsps::Event ctrl = user_event(2, at(1), at(1), true);
  ctrl.control = dsps::ControlKind::Init;
  c.on_emit(ctrl);  // control events never count
  EXPECT_EQ(c.replayed_messages(), 1u);
}

TEST(Collector, SinkArrivalUpdatesSeriesAndRecords) {
  Collector c;
  c.on_source_emit(user_event(1, at(1), at(1)), false);
  c.on_sink_arrival(user_event(1, at(1), at(1)), at(1.5));
  EXPECT_EQ(c.sink_arrivals(), 1u);
  EXPECT_EQ(c.output().total(), 1u);
  EXPECT_EQ(c.roots().at(1).sink_arrivals, 1u);
  EXPECT_EQ(c.latency().size(), 1u);
}

TEST(Collector, MigrationTimestamps) {
  Collector c;
  c.set_request_time(at(10));
  // Old event (born 9) arrives after the request.
  c.on_source_emit(user_event(1, at(9), at(9)), false);
  c.on_sink_arrival(user_event(1, at(9), at(9)), at(12));
  // New replayed event arrives later.
  c.on_sink_arrival(user_event(2, at(11), at(11), true), at(45));

  ASSERT_TRUE(c.first_sink_after_request().has_value());
  EXPECT_EQ(*c.first_sink_after_request(), at(12));
  ASSERT_TRUE(c.last_old_arrival().has_value());
  EXPECT_EQ(*c.last_old_arrival(), at(12));
  ASSERT_TRUE(c.last_replayed_arrival().has_value());
  EXPECT_EQ(*c.last_replayed_arrival(), at(45));
}

TEST(Collector, ArrivalsBeforeRequestDoNotCount) {
  Collector c;
  c.set_request_time(at(100));
  c.on_sink_arrival(user_event(1, at(1), at(1)), at(2));
  EXPECT_FALSE(c.first_sink_after_request().has_value());
  EXPECT_FALSE(c.last_old_arrival().has_value());
}

TEST(Collector, FirstSinkArrivalAfterBinarySearch) {
  Collector c;
  c.on_sink_arrival(user_event(1, at(1), at(1)), at(1));
  c.on_sink_arrival(user_event(2, at(2), at(2)), at(2));
  c.on_sink_arrival(user_event(3, at(3), at(3)), at(5));
  EXPECT_EQ(*c.first_sink_arrival_after(at(0.5)), at(1));
  EXPECT_EQ(*c.first_sink_arrival_after(at(1)), at(2));  // strictly after
  EXPECT_EQ(*c.first_sink_arrival_after(at(3)), at(5));
  EXPECT_FALSE(c.first_sink_arrival_after(at(5)).has_value());
}

TEST(Collector, FirstSinkArrivalAfterStrictBoundary) {
  Collector c;
  // Duplicate timestamps: `after(t)` must skip every arrival == t.
  c.on_sink_arrival(user_event(1, at(1), at(1)), at(2));
  c.on_sink_arrival(user_event(2, at(1), at(1)), at(2));
  c.on_sink_arrival(user_event(3, at(1), at(1)), at(2));
  c.on_sink_arrival(user_event(4, at(3), at(3)), at(4));
  EXPECT_EQ(*c.first_sink_arrival_after(at(2)), at(4));
  // t just below the duplicates still lands on them.
  EXPECT_EQ(*c.first_sink_arrival_after(at(2) - 1), at(2));
  // t at the final arrival: strictly-after means nothing qualifies.
  EXPECT_FALSE(c.first_sink_arrival_after(at(4)).has_value());
}

TEST(Collector, FirstSinkArrivalAfterEmpty) {
  Collector c;
  EXPECT_FALSE(c.first_sink_arrival_after(0).has_value());
  EXPECT_FALSE(c.first_sink_arrival_after(at(100)).has_value());
}

// ---- the root ledger ----

TEST(CollectorLedger, ReplayOfAnUnknownOriginStartsAMarkedRecord) {
  Collector c;
  c.on_source_emit(user_event(9, at(3), at(40), true), true);
  ASSERT_EQ(c.roots().size(), 1u);
  EXPECT_EQ(c.roots().at(9).born_at, at(3));
  EXPECT_TRUE(c.roots().at(9).replay);
  EXPECT_EQ(c.roots_emitted(), 0u);
}

TEST(CollectorLedger, ArrivalBeforeItsOriginIsEmittedIsIgnored) {
  Collector c;
  c.on_sink_arrival(user_event(4, at(1), at(1)), at(2));
  c.on_source_emit(user_event(4, at(3), at(3)), false);
  c.on_sink_arrival(user_event(4, at(3), at(3)), at(4));
  // Only the arrival logged after the emit counts.
  EXPECT_EQ(c.roots().at(4).sink_arrivals, 1u);
  EXPECT_EQ(c.sink_arrivals(), 2u);
}

TEST(CollectorLedger, FreshEmitRestartsTheRecord) {
  Collector c;
  c.on_source_emit(user_event(6, at(1), at(1)), false);
  c.on_source_emit(user_event(6, at(1), at(9), true), true);
  c.on_sink_arrival(user_event(6, at(1), at(9), true), at(10));
  c.on_source_emit(user_event(6, at(20), at(20)), false);
  c.on_sink_arrival(user_event(6, at(20), at(20)), at(21));
  const RootRecord rec = c.roots().at(6);
  EXPECT_EQ(rec.born_at, at(20));
  EXPECT_EQ(rec.sink_arrivals, 1u);
  EXPECT_FALSE(rec.replay);
}

TEST(CollectorLedger, RecordsAreOrderedByOrigin) {
  Collector c;
  for (const RootId o : {30u, 10u, 20u}) {
    c.on_source_emit(user_event(o, at(1), at(1)), false);
  }
  std::vector<RootId> order;
  for (const auto& [origin, rec] : c.roots()) order.push_back(origin);
  EXPECT_EQ(order, (std::vector<RootId>{10, 20, 30}));
}

/// The per-root map the ledger replaced, kept here as the model: each call
/// updates one record in place.
struct MapLedger {
  std::unordered_map<RootId, RootRecord> roots;

  void emit(const dsps::Event& ev, bool replay) {
    if (replay) {
      auto it = roots.find(ev.origin);
      if (it == roots.end()) {
        roots[ev.origin] = RootRecord{ev.born_at, 0, true};
      } else {
        it->second.replay = true;
      }
    } else {
      roots[ev.origin] = RootRecord{ev.born_at, 0, replay};
    }
  }
  void arrive(const dsps::Event& ev) {
    if (auto it = roots.find(ev.origin); it != roots.end()) {
      ++it->second.sink_arrivals;
    }
  }
};

TEST(CollectorLedger, RebuildMatchesThePerRootMapModel) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Collector c;
    MapLedger model;
    // A small origin pool, so replays of known and unknown origins, fresh
    // re-emits and arrivals before and after their emit all occur.
    for (int step = 0; step < 600; ++step) {
      const RootId origin = rng.uniform_int(0, 24);
      const SimTime born = at(static_cast<double>(rng.uniform_int(0, 50)));
      const SimTime now = at(60.0 + step);
      const std::uint64_t op = rng.uniform_int(0, 9);
      if (op < 3) {
        const bool replay = op == 0;
        const dsps::Event ev = user_event(origin, born, now, replay);
        c.on_source_emit(ev, replay);
        model.emit(ev, replay);
      } else {
        const dsps::Event ev = user_event(origin, born, now);
        c.on_sink_arrival(ev, now);
        model.arrive(ev);
      }
      if (step % 50 == 49) {
        const std::map<RootId, RootRecord> want(model.roots.begin(),
                                                model.roots.end());
        const std::map<RootId, RootRecord> got = c.roots();
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (const auto& [o, rec] : want) {
          ASSERT_TRUE(got.contains(o)) << "origin " << o;
          EXPECT_EQ(got.at(o).born_at, rec.born_at) << "origin " << o;
          EXPECT_EQ(got.at(o).sink_arrivals, rec.sink_arrivals)
              << "origin " << o;
          EXPECT_EQ(got.at(o).replay, rec.replay) << "origin " << o;
        }
      }
    }
  }
}

TEST(Collector, LostEventsSplitByKind) {
  Collector c;
  c.on_lost(user_event(1, at(1), at(1)), at(1));
  dsps::Event ctrl = user_event(2, at(1), at(1));
  ctrl.control = dsps::ControlKind::Prepare;
  c.on_lost(ctrl, at(1));
  EXPECT_EQ(c.lost_user_events(), 1u);
  EXPECT_EQ(c.lost_control_events(), 1u);
}

}  // namespace
}  // namespace rill::metrics
