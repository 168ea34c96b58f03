#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "dsps/event.hpp"
#include "sim/engine.hpp"

namespace rill::sim {
namespace {

// Callbacks are moved, never copied, so captures are never duplicated.
static_assert(!std::is_copy_constructible_v<Callback>);
static_assert(!std::is_copy_assignable_v<Callback>);
static_assert(std::is_nothrow_move_constructible_v<Callback>);
static_assert(std::is_nothrow_move_assignable_v<Callback>);

// The largest per-tuple capture, the executor's service completion
// (this + Event + epoch), is stored without a heap allocation.
constexpr auto kServiceCapture = [p = static_cast<void*>(nullptr),
                                  ev = dsps::Event{}, epoch = 0ull] {
  static_cast<void>(p);
  static_cast<void>(ev);
  static_cast<void>(epoch);
};
static_assert(Callback::fits_inline<decltype(kServiceCapture)>());

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_detached(time::ms(30), [&] { order.push_back(3); });
  e.schedule_detached(time::ms(10), [&] { order.push_back(1); });
  e.schedule_detached(time::ms(20), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameInstantFiresInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_detached(time::ms(5), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  SimTime seen = 0;
  e.schedule_detached(time::sec(5), [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, static_cast<SimTime>(time::sec(5)));
  EXPECT_EQ(e.now(), static_cast<SimTime>(time::sec(5)));
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine e;
  int fired = 0;
  e.schedule_detached(time::sec(1), [&] { ++fired; });
  e.schedule_detached(time::sec(10), [&] { ++fired; });
  e.run_until(static_cast<SimTime>(time::sec(5)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), static_cast<SimTime>(time::sec(5)));
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.run_until(static_cast<SimTime>(time::sec(42)));
  EXPECT_EQ(e.now(), static_cast<SimTime>(time::sec(42)));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  int fired = 0;
  const TimerId id = e.schedule(time::ms(10), [&] { ++fired; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // double-cancel reports failure
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancelFromInsideCallback) {
  Engine e;
  int fired = 0;
  const TimerId victim = e.schedule(time::ms(20), [&] { ++fired; });
  e.schedule_detached(time::ms(10), [&] { (void)e.cancel(victim); });
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  e.schedule_detached(time::sec(1), [] {});
  e.run();
  SimTime fired_at = 0;
  e.schedule_detached(time::ms(-50), [&] { fired_at = e.now(); });
  e.run();
  EXPECT_EQ(fired_at, static_cast<SimTime>(time::sec(1)));
}

TEST(Engine, ScheduleAtInPastClampsToNow) {
  Engine e;
  e.schedule_detached(time::sec(2), [] {});
  e.run();
  SimTime fired_at = 0;
  e.schedule_at_detached(static_cast<SimTime>(time::sec(1)), [&] { fired_at = e.now(); });
  e.run();
  EXPECT_EQ(fired_at, static_cast<SimTime>(time::sec(2)));
}

TEST(Engine, NestedScheduling) {
  Engine e;
  std::vector<SimTime> times;
  e.schedule_detached(time::ms(10), [&] {
    times.push_back(e.now());
    e.schedule_detached(time::ms(10), [&] { times.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], static_cast<SimTime>(time::ms(10)));
  EXPECT_EQ(times[1], static_cast<SimTime>(time::ms(20)));
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule_detached(time::ms(1), [&] { ++fired; });
  e.schedule_detached(time::ms(2), [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilLandingOnCancelledHead) {
  // The queue head sits exactly at the limit but is cancelled: run_until
  // must skip it without firing it or stalling the clock short of limit.
  Engine e;
  int fired = 0;
  const TimerId head = e.schedule(time::sec(5), [&] { ++fired; });
  e.schedule_detached(time::sec(7), [&] { ++fired; });
  EXPECT_TRUE(e.cancel(head));
  e.run_until(static_cast<SimTime>(time::sec(5)));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), static_cast<SimTime>(time::sec(5)));
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, CancelledHeadDoesNotAdvanceClock) {
  Engine e;
  const TimerId id = e.schedule(time::sec(9), [] {});
  SimTime fired_at = 0;
  e.schedule_detached(time::sec(1), [&] { fired_at = e.now(); });
  (void)e.cancel(id);
  e.run();
  // The cancelled 9 s entry must not drag the clock to 9 s.
  EXPECT_EQ(fired_at, static_cast<SimTime>(time::sec(1)));
  EXPECT_EQ(e.now(), static_cast<SimTime>(time::sec(1)));
}

TEST(Engine, StaleIdAfterSlotReuseIsRejected) {
  // A slot freed by cancel is recycled by the next schedule; the old
  // TimerId must not cancel the new occupant (generation / ABA guard).
  Engine e;
  const TimerId stale = e.schedule(time::ms(10), [] {});
  EXPECT_TRUE(e.cancel(stale));
  int fired = 0;
  e.schedule_detached(time::ms(20), [&] { ++fired; });  // reuses the freed slot
  EXPECT_FALSE(e.cancel(stale));
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StaleIdAfterFireIsRejected) {
  Engine e;
  const TimerId id = e.schedule(time::ms(1), [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
  int fired = 0;
  e.schedule_detached(time::ms(2), [&] { ++fired; });  // recycles the fired slot
  EXPECT_FALSE(e.cancel(id));
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, PendingExcludesCancelled) {
  Engine e;
  const TimerId a = e.schedule(time::ms(1), [] {});
  e.schedule_detached(time::ms(2), [] {});
  EXPECT_EQ(e.pending(), 2u);
  (void)e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RescheduleFromOwnCallbackReusesSlotSafely) {
  // A callback scheduling more work while its own slot is being recycled
  // is the acker's resend idiom; the engine must release the slot before
  // invoking, so the nested schedule may land in it.
  Engine e;
  int chain = 0;
  std::function<void()> again = [&] {
    if (++chain < 100) e.schedule_detached(time::us(1), again);
  };
  e.schedule_detached(time::us(1), again);
  e.run();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(e.executed(), 100u);
}

TEST(Engine, CaptureLargerThanInlineStorageStillRuns) {
  Engine e;
  std::array<std::uint64_t, 32> big{};
  std::iota(big.begin(), big.end(), 1);
  std::uint64_t sum = 0;
  auto cb = [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  };
  static_assert(!Callback::fits_inline<decltype(cb)>());
  e.schedule_detached(time::ms(1), std::move(cb));
  // A heap-stored callable survives being moved between Callbacks.
  Callback moved = [big, &sum] { sum += big.back(); };
  Callback target = std::move(moved);
  e.schedule_detached(time::ms(2), std::move(target));
  e.run();
  EXPECT_EQ(sum, 32u * 33u / 2u + 32u);
}

TEST(Engine, CancelDestroysCapturedStateImmediately) {
  // Inline and heap-stored captures alike are released by cancel(), not
  // when the stale heap entry is swept or the engine is destroyed.
  Engine e;
  auto token = std::make_shared<int>(0);
  std::array<char, 2 * Callback::kInlineBytes> pad{};
  const TimerId small = e.schedule(time::sec(1), [token] {});
  const TimerId large = e.schedule(time::sec(2), [token, pad] {
    static_cast<void>(pad);
  });
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_TRUE(e.cancel(small));
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(e.cancel(large));
  EXPECT_EQ(token.use_count(), 1);
  e.run();
  EXPECT_EQ(e.executed(), 0u);
}

TEST(Engine, CallbackGrowingTheSlotVectorCompletes) {
  // The running callback was moved out of its slot, so the slot vector can
  // reallocate under it while it schedules; the nested timers still fire
  // in (time, seq) order.
  Engine e;
  constexpr int kTimers = 1000;
  std::vector<int> fired;
  std::array<int, 16> payload{};
  payload.fill(3);
  int payload_sum = 0;
  e.schedule_detached(time::ms(1), [&e, &fired, &payload_sum, payload] {
    for (int i = 0; i < kTimers; ++i) {
      e.schedule_detached(time::us((kTimers - i) % 7),
                          [&fired, i] { fired.push_back(i); });
    }
    for (int v : payload) payload_sum += v;  // read after the growth
  });
  e.run();
  EXPECT_EQ(payload_sum, 48);
  std::vector<int> expected(kTimers);
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (kTimers - a) % 7 < (kTimers - b) % 7;
  });
  EXPECT_EQ(fired, expected);
}

TEST(Engine, ExecutedCounter) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_detached(time::ms(i), [] {});
  e.run();
  EXPECT_EQ(e.executed(), 5u);
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Engine e;
  std::vector<SimTime> ticks;
  PeriodicTimer t(e, time::sec(1), [&] { ticks.push_back(e.now()); });
  t.start();
  e.run_until(static_cast<SimTime>(time::sec_f(3.5)));
  t.stop();
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], static_cast<SimTime>(time::sec(1)));
  EXPECT_EQ(ticks[2], static_cast<SimTime>(time::sec(3)));
}

TEST(PeriodicTimer, StopInsideTick) {
  Engine e;
  int ticks = 0;
  PeriodicTimer t(e, time::sec(1), [&] {
    if (++ticks == 2) t.stop();
  });
  t.start();
  e.run_until(static_cast<SimTime>(time::sec(10)));
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTimer, StartIsIdempotent) {
  Engine e;
  int ticks = 0;
  PeriodicTimer t(e, time::sec(1), [&] { ++ticks; });
  t.start();
  t.start();
  e.run_until(static_cast<SimTime>(time::sec_f(1.5)));
  EXPECT_EQ(ticks, 1);
  t.stop();
}

TEST(PeriodicTimer, DestructorCancels) {
  Engine e;
  int ticks = 0;
  {
    PeriodicTimer t(e, time::sec(1), [&] { ++ticks; });
    t.start();
  }
  e.run_until(static_cast<SimTime>(time::sec(5)));
  EXPECT_EQ(ticks, 0);
}

}  // namespace
}  // namespace rill::sim
