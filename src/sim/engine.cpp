#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rill::sim {

std::uint32_t Engine::fresh_slot() {
  const std::size_t capacity = chunks_.size() * kChunkSlots;
  if (used_slots_ == capacity) {
    // Grow the vectors that index by slot first: if an allocation throws,
    // they are merely larger than the chunks they describe.
    gens_.resize(std::max(gens_.size(), capacity + kChunkSlots), 0);
    if (free_slots_.capacity() < capacity + kChunkSlots) {
      free_slots_.reserve(2 * (capacity + kChunkSlots));
    }
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return used_slots_;
}

void Engine::heap_push(SimTime when, std::uint64_t seq, std::uint32_t index,
                       std::uint32_t gen) {
  const Entry e{when, seq, index, gen};
  const Key k = key(e);
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (key(heap_[parent]) < k) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

TimerId Engine::enqueue(SimTime when, std::uint32_t index) {
  if (index == used_slots_) {
    ++used_slots_;
  } else {
    free_slots_.pop_back();
  }
  if (when < now_) when = now_;
  const std::uint32_t gen = ++gens_[index];  // odd: waiting
  ++active_count_;
  heap_push(when, next_seq_++, index, gen);
  return TimerId{(static_cast<std::uint64_t>(gen) << 32) | index};
}

void Engine::free_slot(Callback& cb, std::uint32_t index) noexcept {
  cb.reset();
  free_slots_.push_back(index);  // within the reserved capacity
}

bool Engine::cancel(TimerId id) {
  const auto index = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (index >= gens_.size() || gens_[index] != gen || gen % 2 == 0) {
    return false;
  }
  ++gens_[index];  // the queue entry goes stale and is lazily swept
  --active_count_;
  free_slot(slot(index), index);
  return true;
}

void Engine::fire() {
  const Entry e = heap_.front();
  heap_pop();
  // Dead before the call: the callback's own TimerId no longer cancels.
  ++gens_[e.index];
  --active_count_;
  assert(e.when >= now_);
  now_ = e.when;
  ++executed_;
  // The slot stays taken while the callback runs in it, so nothing
  // scheduled from inside can land there; it is freed on the way out,
  // normally or by an exception.
  Callback& cb = slot(e.index);
  struct Release {
    Engine& engine;
    Callback& cb;
    std::uint32_t index;
    ~Release() { engine.free_slot(cb, index); }
  } release{*this, cb, e.index};
  cb();
}

bool Engine::step() {
  while (!heap_.empty()) {
    if (live(heap_.front())) {
      fire();
      return true;
    }
    heap_pop();  // cancelled; lazily swept
  }
  return false;
}

void Engine::run_until(SimTime limit) {
  while (!heap_.empty()) {
    const Entry& head = heap_.front();
    if (!live(head)) {
      heap_pop();  // cancelled; lazily swept
    } else if (head.when > limit) {
      now_ = limit;
      return;
    } else {
      fire();
    }
  }
  if (now_ < limit) now_ = limit;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::heap_pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  const Key k = key(last);
  Entry* h = heap_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    std::size_t m;
    Key km;
    if (first + 3 < n) {
      // All four children exist.  Which one is smallest is a coin toss,
      // so it is picked with selects and masks, not branches.
      const Key k0 = key(h[first]), k1 = key(h[first + 1]);
      const Key k2 = key(h[first + 2]), k3 = key(h[first + 3]);
      const bool b01 = k1 < k0, b23 = k3 < k2;
      const std::size_t a = first + b01, b = first + 2 + b23;
      const std::size_t right = (b23 ? k3 : k2) < (b01 ? k1 : k0);
      m = a ^ ((a ^ b) & (0 - right));
      km = key(h[m]);
    } else if (first < n) {
      m = first;
      km = key(h[first]);
      for (std::size_t c = first + 1; c < n; ++c) {
        const Key kc = key(h[c]);
        if (kc < km) {
          m = c;
          km = kc;
        }
      }
    } else {
      break;
    }
    if (k < km) break;
    h[i] = h[m];
    i = m;
  }
  h[i] = last;
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
  engine_.cancel(pending_);
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
