#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill::dsps {
namespace {

using testutil::Harness;

TEST(Spout, EmitsAtConfiguredRate) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(20));
  const Spout& s = h.p().spout(h.p().topology().sources()[0]);
  // 8 ev/s × 20 s = 160 ± one tick.
  EXPECT_NEAR(static_cast<double>(s.stats().emitted), 160.0, 2.0);
  EXPECT_EQ(s.stats().generated, s.stats().emitted);
}

TEST(Spout, PauseBuffersIntoBacklog) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(5));
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  const auto emitted_before = s.stats().emitted;
  s.pause();
  h.run_for(time::sec(10));
  EXPECT_EQ(s.stats().emitted, emitted_before);  // nothing emitted
  EXPECT_NEAR(static_cast<double>(s.backlog()), 80.0, 2.0);
  EXPECT_GE(s.stats().backlog_peak, 78u);
}

TEST(Spout, UnpauseDrainsBacklogAtPumpRate) {
  PlatformConfig cfg;
  cfg.backlog_pump_rate = 40.0;
  Harness h(testutil::mini_chain(), cfg);
  h.p().start();
  h.run_for(time::sec(5));
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  s.pause();
  h.run_for(time::sec(10));  // backlog ≈ 80
  const auto backlog = s.backlog();
  s.unpause();
  // At 40/s pump + 8/s fresh generation the backlog drains in ~2.5 s.
  h.run_for(time::sec(4));
  EXPECT_EQ(s.backlog(), 0u);
  EXPECT_GT(backlog, 70u);
}

TEST(Spout, BacklogCapDropsExcess) {
  Harness h(testutil::mini_chain());
  h.p().start();
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  s.pause();
  h.run_for(time::sec(30));  // generates 240, cap 200
  static_assert(PlatformConfig::max_source_backlog == 200);
  EXPECT_EQ(s.backlog(), 200u);
  EXPECT_NEAR(static_cast<double>(s.stats().backlog_dropped), 40.0, 3.0);
}

TEST(Spout, AckingCachesUntilComplete) {
  Harness h(testutil::mini_chain());
  h.p().set_user_acking(true);
  h.p().start();
  h.run_for(time::sec(10));
  const Spout& s = h.p().spout(h.p().topology().sources()[0]);
  // Completed roots trail emissions only by the in-flight window.
  EXPECT_GT(s.stats().completed_roots, 60u);
  EXPECT_LE(s.cache_size(), 10u);
}

TEST(Spout, FailedRootsAreReplayedWithOriginalBirth) {
  // Kill the first worker permanently: every root times out and replays.
  PlatformConfig cfg;
  cfg.ack_timeout = time::sec(5);
  Harness h(testutil::mini_chain(), cfg);
  h.p().set_user_acking(true);
  h.p().start();
  h.run_for(time::sec(3));

  const InstanceRef victim = h.p().worker_instances()[0];
  Executor& ex = h.p().executor(victim);
  h.p().cluster().vacate(ex.slot());
  ex.kill();

  h.run_for(time::sec(10));
  const Spout& s = h.p().spout(h.p().topology().sources()[0]);
  EXPECT_GT(s.stats().replayed_roots, 5u);
  EXPECT_GT(h.collector.replayed_messages(), 0u);
  // Replays keep the original origin id: records flagged replay exist.
  int flagged = 0;
  for (const auto& [origin, rec] : h.collector.roots()) {
    if (rec.replay) ++flagged;
  }
  EXPECT_GT(flagged, 5);
}

TEST(Spout, MaxPendingThrottlesEmission) {
  PlatformConfig cfg;
  cfg.max_spout_pending = 10;
  cfg.ack_timeout = time::sec(1000);  // no replays, just throttling
  Harness h(testutil::mini_chain(), cfg);
  h.p().set_user_acking(true);
  h.p().start();
  h.run_for(time::sec(2));

  // Kill the first worker: acks stop, so at most 10 roots stay in flight.
  const InstanceRef victim = h.p().worker_instances()[0];
  Executor& ex = h.p().executor(victim);
  h.p().cluster().vacate(ex.slot());
  ex.kill();
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  const auto emitted_at_kill = s.stats().emitted;
  h.run_for(time::sec(20));
  EXPECT_LE(s.stats().emitted, emitted_at_kill + 12);
  EXPECT_LE(s.cache_size(), 10u);
  EXPECT_GT(s.backlog(), 100u);
}

TEST(Spout, StopHaltsGeneration) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(5));
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  s.stop();
  const auto n = s.stats().generated;
  h.run_for(time::sec(5));
  EXPECT_EQ(s.stats().generated, n);
}

// ---- integer-µs inter-arrival scheduling + set_rate (ISSUE 10) ----

TEST(Spout, IntegerRateAccumulatesNoPhaseDrift) {
  // 3 ev/s has no exact µs period (333333.3̅ µs).  The old float-period
  // timer drifted one whole event every ~92 min; the integer accumulator
  // carries the remainder, so long runs stay exact: 3 ev/s × 3600 s =
  // 10800 events, ± the one tick in flight.
  PlatformConfig cfg;
  cfg.source_rate = 3.0;
  Harness h(testutil::mini_chain(3.0), cfg);
  h.p().start();
  h.run_for(time::sec(3600));
  const Spout& s = h.p().spout(h.p().topology().sources()[0]);
  EXPECT_NEAR(static_cast<double>(s.stats().generated), 10800.0, 1.0);
}

TEST(Spout, SetRateTakesEffectMidRun) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));  // 8 ev/s × 10 s = 80
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  const auto before = s.stats().generated;
  EXPECT_NEAR(static_cast<double>(before), 80.0, 1.0);
  s.set_rate(40.0);
  h.run_for(time::sec(10));  // 40 ev/s × 10 s = 400 more
  EXPECT_NEAR(static_cast<double>(s.stats().generated - before), 400.0, 2.0);
}

TEST(Spout, SetRateIsPhaseContinuous) {
  // Halving the rate exactly halfway through an interval must emit the
  // next event at half of the *new* interval — no burst, no gap.  At
  // 8 ev/s ticks land at 125 ms boundaries; switching to 4 ev/s at
  // t=10.0625 s (halfway to the tick due at 10.125 s) reschedules it to
  // t=10.1875 s (halfway through the new 250 ms interval).
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(10));
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  h.run_for(time::ms(62) + time::us(500));
  s.set_rate(4.0);
  const auto before = s.stats().generated;
  h.run_for(time::ms(124));  // just before the rescheduled tick
  EXPECT_EQ(s.stats().generated, before);
  h.run_for(time::ms(2));  // crosses t = 10.1875 s
  EXPECT_EQ(s.stats().generated, before + 1);
}

TEST(Spout, SetRateZeroSilencesUntilRestarted) {
  Harness h(testutil::mini_chain());
  h.p().start();
  h.run_for(time::sec(5));
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  s.set_rate(0.0);
  const auto n = s.stats().generated;
  h.run_for(time::sec(20));
  EXPECT_EQ(s.stats().generated, n);
  EXPECT_EQ(s.rate_ueps(), 0u);
  s.set_rate(8.0);
  h.run_for(time::sec(10));
  EXPECT_NEAR(static_cast<double>(s.stats().generated - n), 80.0, 1.0);
}

TEST(Spout, KeyPickerOverridesRoundRobin) {
  struct KeyLog final : EventListener {
    std::vector<std::uint64_t> keys;
    void on_source_emit(const Event& ev, bool /*replay*/) override {
      keys.push_back(ev.key);
    }
  };
  Harness h(testutil::mini_chain());
  Spout& s = h.p().spout(h.p().topology().sources()[0]);
  s.set_key_picker([] { return std::uint64_t{7}; });
  KeyLog log;
  h.p().set_listener(&log);
  h.p().start();
  h.run_for(time::sec(5));
  ASSERT_FALSE(log.keys.empty());
  for (const std::uint64_t k : log.keys) EXPECT_EQ(k, 7u);
}

}  // namespace
}  // namespace rill::dsps
