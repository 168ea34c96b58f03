#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
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

void Engine::insert(SimTime when, std::uint32_t index, std::uint32_t gen) {
  // Most inserts land a few places from the head, so the search gallops
  // from there, then bisects the last stride with selects, not branches,
  // for the first entry later than `when`: ties go after their equals.
  Entry* q = queue_.data();
  std::size_t from = lo_, to = lo_;
  for (std::size_t stride = 1; to < hi_ && q[to].when <= when; stride *= 2) {
    from = to + 1;
    to += stride;
  }
  const Entry* base = q + from;
  std::size_t n = std::min(to, hi_) - from;
  for (; n > 1; n -= n / 2) {
    base = base[n / 2].when <= when ? base + n / 2 : base;
  }
  std::size_t at =
      static_cast<std::size_t>(base - q) + (n == 1 && base->when <= when);
  const bool left = at - lo_ <= hi_ - at;
  if (left ? lo_ == 0 : hi_ == queue_.size()) {
    const std::size_t old_lo = lo_;
    recentre();
    at = at - old_lo + lo_;
    q = queue_.data();
  }
  if (left) {
    std::memmove(q + lo_ - 1, q + lo_, (at - lo_) * sizeof(Entry));
    --lo_;
    --at;
  } else {
    std::memmove(q + at + 1, q + at, (hi_ - at) * sizeof(Entry));
    ++hi_;
  }
  q[at] = Entry{when, index, gen};
}

void Engine::recentre() {
  const std::size_t n = hi_ - lo_;
  const std::size_t size = 2 * n < queue_.size()
                               ? queue_.size()
                               : std::max<std::size_t>(2 * queue_.size(), 64);
  const std::size_t new_lo = (size - n) / 2;
  if (size == queue_.size()) {
    std::memmove(queue_.data() + new_lo, queue_.data() + lo_,
                 n * sizeof(Entry));
  } else {
    std::vector<Entry> grown(size);
    std::copy(queue_.begin() + static_cast<std::ptrdiff_t>(lo_),
              queue_.begin() + static_cast<std::ptrdiff_t>(hi_),
              grown.begin() + static_cast<std::ptrdiff_t>(new_lo));
    queue_.swap(grown);
  }
  lo_ = new_lo;
  hi_ = new_lo + n;
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
  insert(when, index, gen);
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
  const Entry e = queue_[lo_++];
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
  for (; lo_ != hi_; ++lo_) {  // cancelled entries are lazily swept
    if (live(queue_[lo_])) {
      fire();
      return true;
    }
  }
  return false;
}

void Engine::run_until(SimTime limit) {
  while (lo_ != hi_) {
    const Entry& head = queue_[lo_];
    if (!live(head)) {
      ++lo_;  // cancelled; lazily swept
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
