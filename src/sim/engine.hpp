// Deterministic discrete-event simulation engine.
//
// Everything in Rill — network delivery, task service times, checkpoint
// waves, worker start-up, ack timeouts — is a callback scheduled on this
// engine.  Events fire in time order, and two events at the same instant
// fire in the order they were scheduled, which makes every run with the
// same seed bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/callback.hpp"

namespace rill::sim {

/// Handle used to cancel a scheduled callback.  A default TimerId names no
/// callback, so cancelling it is a no-op that returns false.
struct TimerId {
  std::uint64_t value{0};
  friend constexpr bool operator==(TimerId, TimerId) = default;
};

/// The simulation clock and event loop.
class Engine {
 public:
  using Callback = sim::Callback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `f` to run `delay` from now.  Negative delays clamp to "now".
  /// The callable is built in the slot it fires from, so `f` is copied or
  /// moved exactly once.  The returned TimerId is the only handle for
  /// cancellation; callers that intend to never cancel must say so via
  /// schedule_detached().
  template <Callable F>
  [[nodiscard("keep the TimerId to cancel, or use schedule_detached")]]
  TimerId schedule(SimDuration delay, F&& f) {
    return push(at(delay), std::forward<F>(f));
  }

  /// Schedule `f` at an absolute instant (clamped to now if in the past).
  template <Callable F>
  [[nodiscard("keep the TimerId to cancel, or use schedule_at_detached")]]
  TimerId schedule_at(SimTime when, F&& f) {
    return push(when, std::forward<F>(f));
  }

  /// Fire-and-forget variants for callbacks that are never cancelled — the
  /// callback itself must be safe to run late (e.g. it re-checks an epoch
  /// or a liveness flag).  Exists so discarding a TimerId is an explicit
  /// decision rather than a silent one.
  template <Callable F>
  void schedule_detached(SimDuration delay, F&& f) {
    push(at(delay), std::forward<F>(f));
  }
  template <Callable F>
  void schedule_at_detached(SimTime when, F&& f) {
    push(when, std::forward<F>(f));
  }

  /// Cancel a pending callback and destroy it (and its captures) at once.
  /// Returns false if it already fired, is running, or was previously
  /// cancelled, so a cancel-if-pending caller may ignore the result.  The
  /// queue entry is lazily skipped when it reaches the head.
  bool cancel(TimerId id);

  /// Run until the event queue is empty or `limit` (at or after now()) is
  /// reached, whichever is first; either way the clock then reads `limit`.
  void run_until(SimTime limit);

  /// Run until the queue is completely empty.
  void run();

  /// Execute exactly one event.  Returns false if the queue is empty.  The
  /// callback runs in place in its slot.  Its own TimerId is dead before it
  /// starts, and its slot is freed only after it returns or throws, so it
  /// may schedule and cancel freely.  An exception propagates to the caller
  /// with the event counted as executed.
  bool step();

  /// Number of callbacks still pending (cancelled entries excluded).
  [[nodiscard]] std::size_t pending() const noexcept { return active_count_; }

  /// Total callbacks executed since construction; useful for micro-benchmarks
  /// and for detecting runaway feedback loops in tests.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  // Callbacks live in slots that never move: chunks of 32 slots (4 KB),
  // added one at a time, so an engine that schedules little allocates
  // little.  A slot's generation is odd while a callback waits in it and
  // even otherwise; it is bumped when the callback is queued and again
  // when it fires or is cancelled.  That one counter marks queue entries
  // stale (lazy cancellation) and rejects stale TimerIds after the slot
  // is reused.  Cache-line aligned, so a 128-byte slot spans two lines.
  struct alignas(64) Slot {
    Callback cb;
  };
  static constexpr std::uint32_t kChunkBits = 5;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  // A 16-byte queue entry.  The queue is one array sorted by `when`: the
  // live entries are queue_[lo_, hi_), with room on both sides of them.
  // An entry goes after every entry with the same `when`, so position
  // alone keeps same-instant events in schedule order.
  struct Entry {
    SimTime when;
    std::uint32_t index;
    std::uint32_t gen;
  };
  static_assert(sizeof(Entry) == 16);

  [[nodiscard]] bool live(const Entry& e) const noexcept {
    return gens_[e.index] == e.gen;
  }

  [[nodiscard]] SimTime at(SimDuration delay) const noexcept {
    return delay <= 0 ? now_ : now_ + static_cast<SimTime>(delay);
  }

  [[nodiscard]] Callback& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)].cb;
  }

  // Builds the callable in a free slot, then queues it at `when` (clamped
  // to now).  If building throws, the slot stays free and nothing is queued.
  template <typename F>
  TimerId push(SimTime when, F&& f) {
    const std::uint32_t index =
        free_slots_.empty() ? fresh_slot() : free_slots_.back();
    slot(index).emplace(std::forward<F>(f));
    return enqueue(when, index);
  }

  // The next never-used slot, adding a chunk when every slot is in use.
  std::uint32_t fresh_slot();
  // Claims the slot push() filled and puts it on the queue.
  TimerId enqueue(SimTime when, std::uint32_t index);
  // Pops the head entry and runs its callback.
  void fire();
  // Destroys slot `index`'s callable `cb` and puts the slot on the free list.
  void free_slot(Callback& cb, std::uint32_t index) noexcept;

  // Puts an entry after every entry at or before `when`, moving whichever
  // side of that place is shorter one step outward; if that side has no
  // room, recentre() makes some first.
  void insert(SimTime when, std::uint32_t index, std::uint32_t gen);
  // Moves the live range to the middle of the buffer.  The buffer doubles
  // first if the range fills half of it, so each move leaves a quarter of
  // the buffer free on both sides and is paid for by that many inserts.
  void recentre();

  SimTime now_{0};
  std::uint64_t executed_{0};
  std::size_t active_count_{0};
  std::vector<Entry> queue_;
  std::size_t lo_{0};
  std::size_t hi_{0};
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  // One generation per slot, at least for every chunk; even (free) until
  // the slot's first use.
  std::vector<std::uint32_t> gens_;
  std::uint32_t used_slots_{0};
  // Reserved to the slot capacity, so freeing a slot never allocates.
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

 private:
  void arm();

  Engine& engine_;
  SimDuration period_;
  Engine::Callback on_tick_;
  TimerId pending_{};
  bool running_{false};
};

}  // namespace rill::sim
