// Deterministic discrete-event simulation engine.
//
// Everything in Rill — network delivery, task service times, checkpoint
// waves, worker start-up, ack timeouts — is a callback scheduled on this
// engine.  Events fire in (time, sequence) order, so two events at the same
// instant fire in the order they were scheduled, which makes every run with
// the same seed bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/island.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"

namespace rill::sim {

/// Handle used to cancel a scheduled callback.
struct TimerId {
  std::uint64_t value{0};
  friend constexpr bool operator==(TimerId, TimerId) = default;
};

/// The simulation clock and event loop.
class RILL_SHARED Engine {
 public:
  using Callback = sim::Callback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `cb` to run `delay` from now.  Negative delays clamp to "now".
  /// The returned TimerId is the only handle for cancellation; callers that
  /// intend to never cancel must say so via schedule_detached().
  [[nodiscard("keep the TimerId to cancel, or use schedule_detached")]]
  TimerId schedule(SimDuration delay, Callback cb) {
    return push(at(delay), std::move(cb));
  }

  /// Schedule `cb` at an absolute instant (clamped to now if in the past).
  [[nodiscard("keep the TimerId to cancel, or use schedule_at_detached")]]
  TimerId schedule_at(SimTime when, Callback cb) {
    return push(when, std::move(cb));
  }

  /// Fire-and-forget variants for callbacks that are never cancelled — the
  /// callback itself must be safe to run late (e.g. it re-checks an epoch
  /// or a liveness flag).  Exists so discarding a TimerId is an explicit
  /// decision rather than a silent one.
  void schedule_detached(SimDuration delay, Callback cb) {
    push(at(delay), std::move(cb));
  }
  void schedule_at_detached(SimTime when, Callback cb) {
    push(when, std::move(cb));
  }

  /// Cancel a pending callback.  Returns false if it already fired or was
  /// previously cancelled.  Cancelling is O(1); the entry is lazily skipped.
  [[nodiscard("cancel() reports whether the callback was still pending")]]
  bool cancel(TimerId id);

  /// Run until the event queue is empty or `limit` is reached, whichever is
  /// first.  The clock stops at the time of the last executed event (or at
  /// `limit` if events remain beyond it).
  void run_until(SimTime limit);

  /// Run until the queue is completely empty.
  void run();

  /// Execute exactly one event.  Returns false if the queue is empty.
  bool step();

  /// Number of callbacks still pending (cancelled entries excluded).
  [[nodiscard]] std::size_t pending() const noexcept { return active_count_; }

  /// Total callbacks executed since construction; useful for micro-benchmarks
  /// and for detecting runaway feedback loops in tests.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  // Callbacks live in an index-stable slot vector with a free-list, so the
  // schedule/fire hot path never hashes; with inline callback storage it
  // never allocates once the vectors have grown.  A slot's generation
  // counter is bumped on release, which both invalidates stale heap entries
  // (lazy cancellation) and stale TimerIds (ABA protection on slot reuse).
  struct Slot {
    Callback cb;
    std::uint32_t gen{0};
    bool active{false};
  };

  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t index;
    std::uint32_t gen;
  };

  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool live(const Entry& e) const noexcept {
    const Slot& s = slots_[e.index];
    return s.active && s.gen == e.gen;
  }

  [[nodiscard]] SimTime at(SimDuration delay) const noexcept {
    return delay <= 0 ? now_ : now_ + static_cast<SimTime>(delay);
  }

  // Stores `cb` in a free slot and queues it at `when` (clamped to now).
  TimerId push(SimTime when, Callback&& cb);

  // Marks the slot free and returns its callback.  The heap entry (if any)
  // becomes stale via the generation bump.
  Callback release(std::uint32_t index);

  SimTime now_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t active_count_{0};
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// A periodic timer that reschedules itself until stopped.  Non-copyable;
/// stopping (or destruction) cancels the pending tick.
class PeriodicTimer {
 public:
  PeriodicTimer(Engine& engine, SimDuration period, Engine::Callback on_tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Change the period; takes effect from the next (re)start or tick.
  void set_period(SimDuration period) noexcept { period_ = period; }

 private:
  void arm();

  Engine& engine_;
  SimDuration period_;
  Engine::Callback on_tick_;
  TimerId pending_{};
  bool running_{false};
};

}  // namespace rill::sim
