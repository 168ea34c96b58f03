// Differential test: the engine against a reference queue.
//
// Each round runs the same seeded operations against sim::Engine and
// against a model built on an ordered std::map keyed by (when, seq), and
// compares everything a caller can observe after every operation: the
// labels fired (at entry and again at return), now(), pending(),
// executed() and every cancel() result.  Callbacks follow a script drawn
// from (round seed, label) alone, so both sides run the same nested
// schedules and cancels: at `now`, at ties, cancelling other timers and
// their own id.  Besides random rounds, shaped rounds drive the engine's
// sorted-array queue to its edges: inserts at either end, ties across a
// re-centre or a growth of its buffer, and a queue drained to empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace rill::sim {
namespace {

// Delays a schedule draws from: negative and zero clamp to now, the small
// ones tie and interleave, 30 s is the acker timeout.
constexpr SimDuration kDelays[] = {time::sec(-1), time::us(-5), 0,
                                   time::us(1),   time::us(2),  time::us(3),
                                   time::us(150), time::us(1200),
                                   time::ms(5),   time::sec(30)};

SimDuration draw_delay(Rng& rng) {
  return kDelays[rng.uniform_int(0, std::size(kDelays) - 1)];
}

// What the callback with a given label does when it fires.
struct Script {
  std::vector<SimDuration> schedules;
  std::optional<int> cancel_other;  // a label issued before this one fired
  bool cancel_self{false};
};

Script script_for(std::uint64_t seed, int label, int labels_so_far,
                  int label_cap) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(label + 1)));
  Script s;
  const double r = rng.uniform01();
  const int children = r < 0.45 ? 0 : (r < 0.8 ? 1 : 2);
  for (int i = 0; i < children && labels_so_far + i < label_cap; ++i) {
    s.schedules.push_back(draw_delay(rng));
  }
  if (rng.uniform01() < 0.3) {
    s.cancel_other = static_cast<int>(
        rng.uniform_int(0, static_cast<std::uint64_t>(labels_so_far - 1)));
  }
  s.cancel_self = rng.uniform01() < 0.15;
  return s;
}

// Everything compared between the two sides besides the clock and counts.
struct Observed {
  std::vector<int> fired;     // labels as each callback starts
  std::vector<int> returned;  // labels re-read as each callback returns
  std::vector<bool> cancels;  // every cancel() result, in call order
};

// Runs `label`'s script against either side.
template <typename Side>
void run_script(Side& side, int label) {
  const Script s =
      script_for(side.seed(), label, side.labels(), side.label_cap());
  for (std::size_t i = 0; i < s.schedules.size(); ++i) {
    // Alternate the relative and absolute forms.
    if (i % 2 == 0) {
      side.schedule(s.schedules[i]);
    } else {
      side.schedule_at(side.now() + static_cast<SimTime>(
                                        std::max<SimDuration>(s.schedules[i], 0)));
    }
  }
  if (s.cancel_other) side.cancel(*s.cancel_other);
  if (s.cancel_self) side.cancel(label);
}

class EngineSide {
 public:
  EngineSide(std::uint64_t seed, int label_cap)
      : seed_(seed), label_cap_(label_cap) {}

  void schedule(SimDuration delay) {
    const int label = labels();
    ids_.push_back(engine_.schedule(delay, Fire{this, label}));
  }
  void schedule_at(SimTime when) {
    const int label = labels();
    ids_.push_back(engine_.schedule_at(when, Fire{this, label}));
  }
  void cancel(int label) {
    obs.cancels.push_back(engine_.cancel(ids_[static_cast<std::size_t>(label)]));
  }
  void cancel_default() { obs.cancels.push_back(engine_.cancel(TimerId{})); }
  bool step() { return engine_.step(); }
  void run_until(SimTime limit) { engine_.run_until(limit); }
  void run() { engine_.run(); }

  [[nodiscard]] SimTime now() const { return engine_.now(); }
  [[nodiscard]] std::size_t pending() const { return engine_.pending(); }
  [[nodiscard]] std::uint64_t executed() const { return engine_.executed(); }
  [[nodiscard]] int labels() const { return static_cast<int>(ids_.size()); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] int label_cap() const { return label_cap_; }

  Observed obs;

 private:
  struct Fire {
    EngineSide* side;
    int label;
    void operator()() const {
      side->obs.fired.push_back(label);
      run_script(*side, label);
      // Read from the callable again: its slot must not have been reused
      // by anything the script scheduled.
      side->obs.returned.push_back(label);
    }
  };

  std::uint64_t seed_;
  int label_cap_;
  Engine engine_;
  std::vector<TimerId> ids_;
};

class ModelSide {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;

  ModelSide(std::uint64_t seed, int label_cap)
      : seed_(seed), label_cap_(label_cap) {}

  void schedule(SimDuration delay) {
    push(delay <= 0 ? now_ : now_ + static_cast<SimTime>(delay));
  }
  void schedule_at(SimTime when) { push(when); }
  void cancel(int label) {
    std::optional<Key>& key = keys_[static_cast<std::size_t>(label)];
    obs.cancels.push_back(key.has_value());
    if (key) {
      cancelled_at_.push_back(key->first);
      queue_.erase(*key);
      key.reset();
    }
  }
  void cancel_default() { obs.cancels.push_back(false); }
  bool step() {
    if (queue_.empty()) return false;
    const auto [key, label] = *queue_.begin();
    queue_.erase(queue_.begin());
    keys_[static_cast<std::size_t>(label)].reset();
    now_ = key.first;
    ++executed_;
    obs.fired.push_back(label);
    run_script(*this, label);
    obs.returned.push_back(label);
    return true;
  }
  void run_until(SimTime limit) {
    while (!queue_.empty()) {
      if (queue_.begin()->first.first > limit) {
        now_ = limit;
        return;
      }
      step();
    }
    if (now_ < limit) now_ = limit;
  }
  void run() {
    while (step()) {
    }
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] int labels() const { return static_cast<int>(keys_.size()); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] int label_cap() const { return label_cap_; }
  /// Times of cancelled entries, for limits that land on a cancelled head.
  [[nodiscard]] const std::vector<SimTime>& cancelled_at() const {
    return cancelled_at_;
  }

  Observed obs;

 private:
  void push(SimTime when) {
    if (when < now_) when = now_;
    const Key key{when, next_seq_++};
    queue_.emplace(key, labels());
    keys_.emplace_back(key);
  }

  std::uint64_t seed_;
  int label_cap_;
  SimTime now_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::map<Key, int> queue_;
  std::vector<std::optional<Key>> keys_;  // the live key of each label
  std::vector<SimTime> cancelled_at_;
};

// True if two append-only logs are equal, given that they already were
// up to `from`; moves `from` to the end.
template <typename T>
bool same_log(const std::vector<T>& a, const std::vector<T>& b,
              std::size_t& from) {
  if (a.size() != b.size() ||
      !std::equal(a.begin() + static_cast<std::ptrdiff_t>(from), a.end(),
                  b.begin() + static_cast<std::ptrdiff_t>(from))) {
    return false;
  }
  from = a.size();
  return true;
}

// How far the two sides' logs have been compared.
struct Compared {
  std::size_t fired{0};
  std::size_t returned{0};
  std::size_t cancels{0};
};

// The engine and the model driven in lockstep: each operation goes to
// both sides, and they are compared after it.  The first mismatch is
// reported with the operation's number; from then on ok() is false and
// every operation is a no-op.
class Lockstep {
 public:
  Lockstep(std::uint64_t seed, int label_cap)
      : engine_(seed, label_cap), model_(seed, label_cap), seed_(seed) {}

  void schedule(SimDuration delay) {
    if (!ok_) return;
    engine_.schedule(delay);
    model_.schedule(delay);
    compare("schedule");
  }
  void schedule_at(SimTime when) {
    if (!ok_) return;
    engine_.schedule_at(when);
    model_.schedule_at(when);
    compare("schedule_at");
  }
  void cancel(int label) {
    if (!ok_) return;
    engine_.cancel(label);
    model_.cancel(label);
    compare("cancel");
  }
  void cancel_default() {
    if (!ok_) return;
    engine_.cancel_default();
    model_.cancel_default();
    compare("cancel TimerId{}");
  }
  void step() {
    if (!ok_) return;
    const bool e = engine_.step();
    const bool m = model_.step();
    if (e != m) {
      ADD_FAILURE() << "step() returned " << e << " vs model " << m << " at "
                    << where("step");
      ok_ = false;
      return;
    }
    compare("step");
  }
  void run_until(SimTime limit) {
    if (!ok_) return;
    engine_.run_until(limit);
    model_.run_until(limit);
    compare("run_until");
  }
  void run() {
    if (!ok_) return;
    engine_.run();
    model_.run();
    compare("run");
    EXPECT_EQ(engine_.pending(), 0u);
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const ModelSide& model() const { return model_; }

 private:
  [[nodiscard]] std::string where(const char* what) const {
    return "seed " + std::to_string(seed_) + ", op " + std::to_string(op_) +
           " (" + what + ")";
  }

  void compare(const char* what) {
    ++op_;
    const EngineSide& e = engine_;
    const ModelSide& m = model_;
    if (!same_log(e.obs.fired, m.obs.fired, done_.fired)) {
      ADD_FAILURE() << "fired labels differ at " << where(what);
    } else if (!same_log(e.obs.returned, m.obs.returned, done_.returned)) {
      ADD_FAILURE() << "labels read at return differ at " << where(what);
    } else if (!same_log(e.obs.cancels, m.obs.cancels, done_.cancels)) {
      ADD_FAILURE() << "cancel() results differ at " << where(what);
    } else if (e.now() != m.now() || e.pending() != m.pending() ||
               e.executed() != m.executed()) {
      ADD_FAILURE() << "now/pending/executed " << e.now() << "/"
                    << e.pending() << "/" << e.executed() << " vs model "
                    << m.now() << "/" << m.pending() << "/" << m.executed()
                    << " at " << where(what);
    } else {
      return;
    }
    ok_ = false;
  }

  EngineSide engine_;
  ModelSide model_;
  std::uint64_t seed_;
  int op_{0};
  Compared done_;
  bool ok_{true};
};

// One seeded round of `ops` random operations; returns the most timers
// that were pending at once.  `burst` > 0 adds an operation, run at least
// once, that schedules that many timers together.
std::size_t run_round(std::uint64_t seed, int ops, int burst, int label_cap) {
  Lockstep s(seed, label_cap);
  Rng rng(seed);
  int last_cancelled = -1;
  std::size_t max_pending = 0;
  for (int op = 0; op < ops && s.ok(); ++op) {
    const ModelSide& model = s.model();
    const std::uint64_t kind = rng.uniform_int(0, 99);
    const int labels = model.labels();
    if (burst > 0 && (op == 10 || kind >= 99)) {
      for (int i = 0; i < burst; ++i) {
        s.schedule(rng.uniform01() < 0.5
                       ? draw_delay(rng)
                       : static_cast<SimDuration>(
                             rng.uniform_int(0, time::sec(30))));
      }
    } else if (kind < 30 && labels < label_cap) {
      s.schedule(draw_delay(rng));
    } else if (kind < 38 && labels < label_cap) {
      // Mostly in the past or at now, clamped; sometimes ahead.
      const SimTime back = rng.uniform_int(0, time::ms(10));
      s.schedule_at(rng.uniform01() < 0.7
                        ? (model.now() > back ? model.now() - back : 0)
                        : model.now() + back);
    } else if (kind < 58 && labels > 0) {
      // Recent labels are mostly live; older ones have fired, were
      // cancelled, or name a slot that was since reused.
      const int recent = std::min(labels, 16);
      last_cancelled =
          rng.uniform01() < 0.6
              ? labels - 1 - static_cast<int>(rng.uniform_int(0, recent - 1))
              : static_cast<int>(rng.uniform_int(0, labels - 1));
      s.cancel(last_cancelled);
    } else if (kind < 62 && last_cancelled >= 0) {
      s.cancel(last_cancelled);  // again
    } else if (kind < 64) {
      s.cancel_default();
    } else if (kind < 84) {
      s.step();
    } else if (kind < 92) {
      // Half the time the limit is the instant of a cancelled entry, so
      // the queue head can be a cancelled entry sitting right at the limit.
      const std::vector<SimTime>& dead = model.cancelled_at();
      SimTime limit = model.now() + rng.uniform_int(0, time::ms(3));
      if (!dead.empty() && rng.uniform01() < 0.5) {
        const SimTime at = dead[rng.uniform_int(0, dead.size() - 1)];
        if (at >= model.now()) limit = at;
      }
      s.run_until(limit);
    } else {
      continue;
    }
    max_pending = std::max(max_pending, model.pending());
  }
  s.run();
  return max_pending;
}

TEST(EngineReference, RandomOperationsMatchTheModel) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    run_round(seed, 300, 0, 600);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EngineReference, DeepQueuesMatchTheModel) {
  // Bursts of 5 000+ timers: the queue's buffer doubles many times and
  // the slot store spans over 150 chunks.
  for (std::uint64_t seed = 1001; seed <= 1012; ++seed) {
    const std::size_t deepest =
        run_round(seed, 200, 5000 + static_cast<int>(seed % 7) * 100, 15000);
    if (::testing::Test::HasFailure()) return;
    EXPECT_GE(deepest, 5000u) << "seed " << seed;
  }
}

TEST(EngineReference, FarFutureTimersThenNearHeadOnesMatchTheModel) {
  // BM_EngineCancelHeavy's shape: monotone far-future timers, each one
  // landing at the tail, most of them cancelled, then near-head schedules
  // between steps.
  constexpr int kTimers = 20000;
  Lockstep s(7, 2 * kTimers);
  for (int i = 0; i < kTimers; ++i) s.schedule(time::sec(30) + time::us(i));
  for (int i = 0; i < kTimers; ++i) {
    if (i % 16 != 0) s.cancel(i);
  }
  Rng rng(7);
  for (int i = 0; i < kTimers; ++i) {
    s.schedule(draw_delay(rng));
    if (i % 2 == 1) s.step();
  }
  s.run();

  // The same shape on the engine alone, ten times deeper.  An insert
  // moves the shorter side of its place, which here is nothing; moving
  // the longer side instead would move every pending entry each time,
  // 2 * 10^10 entry moves in all, about ten seconds.
  constexpr int kDeep = 10 * kTimers;
  const auto start = std::chrono::steady_clock::now();
  Engine engine;
  std::vector<TimerId> ids;
  for (int i = 0; i < kDeep; ++i) {
    ids.push_back(engine.schedule(time::sec(30) + time::us(i), [] {}));
  }
  for (int i = 0; i < kDeep; ++i) {
    if (i % 16 != 0) engine.cancel(ids[static_cast<std::size_t>(i)]);
  }
  engine.run();
  EXPECT_EQ(engine.executed(), static_cast<std::uint64_t>(kDeep / 16));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(EngineReference, TiedBurstsAcrossRecentreAndGrowthMatchTheModel) {
  // Bursts tied on one instant, at the head, inside the queue or past its
  // tail, with steps between them.  Each burst's inserts take room from
  // one side until the live range moves back to the middle of its buffer
  // or the buffer doubles, with the tie group on both sides of the entry
  // that forces the move.
  constexpr SimDuration kTies[] = {0, time::us(1), time::us(150),
                                   time::ms(5), time::sec(30)};
  for (std::uint64_t seed = 2001; seed <= 2030; ++seed) {
    Lockstep s(seed, 20000);
    Rng rng(seed);
    for (int burst = 0; burst < 30 && s.ok(); ++burst) {
      const SimTime at =
          s.model().now() + static_cast<SimTime>(
                                kTies[rng.uniform_int(0, std::size(kTies) - 1)]);
      const auto n = static_cast<int>(rng.uniform_int(1, 300));
      for (int i = 0; i < n; ++i) s.schedule_at(at);
      const auto steps = static_cast<int>(rng.uniform_int(0, n));
      for (int i = 0; i < steps; ++i) s.step();
    }
    s.run();
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EngineReference, DrainedAndRefilledQueueMatchesTheModel) {
  // Every round drains the queue to empty, wherever in its buffer the
  // live range ended up, and fills it again.
  for (std::uint64_t seed = 3001; seed <= 3020; ++seed) {
    Lockstep s(seed, 20000);
    Rng rng(seed);
    for (int round = 0; round < 25 && s.ok(); ++round) {
      const auto n = static_cast<int>(rng.uniform_int(1, 200));
      for (int i = 0; i < n; ++i) s.schedule(draw_delay(rng));
      s.run();
    }
    s.run();
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EngineReference, SchedulesAtNowAfterRunUntilStopsShortMatchTheModel) {
  // run_until stops before a future head and leaves the clock at its
  // limit; what is then scheduled at now() goes in ahead of that head,
  // in schedule order.
  for (std::uint64_t seed = 4001; seed <= 4040; ++seed) {
    Lockstep s(seed, 20000);
    Rng rng(seed);
    for (int round = 0; round < 60 && s.ok(); ++round) {
      const auto ahead = static_cast<int>(rng.uniform_int(1, 8));
      for (int i = 0; i < ahead; ++i) {
        s.schedule(time::ms(1) +
                   static_cast<SimDuration>(rng.uniform_int(0, time::ms(4))));
      }
      s.run_until(s.model().now() +
                  static_cast<SimTime>(rng.uniform_int(0, time::us(999))));
      const auto at_now = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < at_now; ++i) {
        if (i % 2 == 0) {
          s.schedule(0);
        } else {
          s.schedule_at(s.model().now());
        }
      }
      const auto steps = static_cast<int>(rng.uniform_int(0, at_now + ahead));
      for (int i = 0; i < steps; ++i) s.step();
    }
    s.run();
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace rill::sim
