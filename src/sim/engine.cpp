#include "sim/engine.hpp"

#include <cassert>
#include <utility>

namespace rill::sim {

TimerId Engine::push(SimTime when, Callback&& cb) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.active = true;
  ++active_count_;
  heap_.push(Entry{when, seq, index, slot.gen});
  return TimerId{(static_cast<std::uint64_t>(slot.gen) << 32) | index};
}

Engine::Callback Engine::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  Callback cb = std::move(slot.cb);
  slot.active = false;
  ++slot.gen;  // invalidates the heap entry and any outstanding TimerId
  free_slots_.push_back(index);
  --active_count_;
  return cb;
}

bool Engine::cancel(TimerId id) {
  const auto index = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (index >= slots_.size()) return false;
  const Slot& slot = slots_[index];
  if (!slot.active || slot.gen != gen) return false;
  release(index);  // heap entry goes stale and is lazily swept
  return true;
}

bool Engine::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    if (!live(top)) continue;  // cancelled; lazily swept
    // Free the slot before invoking so a callback that schedules new timers
    // (or cancels its own now-dead id) sees consistent state.
    Callback cb = release(top.index);
    assert(top.when >= now_);
    now_ = top.when;
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void Engine::run_until(SimTime limit) {
  while (!heap_.empty()) {
    // Peek past cancelled entries without executing.
    const Entry top = heap_.top();
    if (!live(top)) {
      heap_.pop();
      continue;
    }
    if (top.when > limit) {
      now_ = limit;
      return;
    }
    step();
  }
  if (now_ < limit) now_ = limit;
}

void Engine::run() {
  while (step()) {
  }
}

PeriodicTimer::PeriodicTimer(Engine& engine, SimDuration period,
                             Engine::Callback on_tick)
    : engine_(engine), period_(period), on_tick_(std::move(on_tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  // lint: nodiscard-ok(cancel-if-pending: false just means the tick already fired)
  static_cast<void>(engine_.cancel(pending_));
}

void PeriodicTimer::arm() {
  pending_ = engine_.schedule(period_, [this] {
    if (!running_) return;
    // Re-arm first so that a tick which calls stop() cancels cleanly.
    arm();
    on_tick_();
  });
}

}  // namespace rill::sim
