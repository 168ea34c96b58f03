#include "dsps/spout.hpp"

#include <algorithm>
#include <cmath>

#include "dsps/platform.hpp"
#include "obs/attribution.hpp"
#include "obs/trace.hpp"

namespace rill::dsps {

namespace {

/// µs·µev/s numerator an inter-arrival interval is carved from: at rate r
/// µev/s the exact interval is 10¹²/r µs (e.g. 8 ev/s → exactly 125000).
constexpr std::uint64_t kIntervalNumerator = 1'000'000'000'000ull;

[[nodiscard]] std::uint64_t to_ueps(double events_per_sec) {
  if (!(events_per_sec > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(events_per_sec * 1e6));
}

}  // namespace

Spout::Spout(Platform& platform, InstanceId id, InstanceRef ref, double rate)
    : platform_(platform),
      id_(id),
      ref_(ref),
      rate_ueps_(to_ueps(rate)),
      pump_timer_(platform.engine(),
                  time::sec_f(1.0 / platform.config().backlog_pump_rate),
                  [this] { pump_backlog(); }) {}

Spout::~Spout() { stop(); }

void Spout::start() {
  if (running_) return;
  running_ = true;
  if (rate_ueps_ > 0) schedule_next_tick();
}

void Spout::stop() {
  running_ = false;
  if (gen_armed_) {
    gen_armed_ = false;
    platform_.engine().cancel(gen_pending_);
  }
  pump_timer_.stop();
}

void Spout::arm_gen(std::uint64_t delay_us) {
  gen_armed_ = true;
  gen_due_ = platform_.engine().now() + delay_us;
  gen_pending_ = platform_.engine().schedule(
      static_cast<SimDuration>(delay_us), [this] {
        if (!running_) return;
        gen_armed_ = false;
        // Re-arm before the tick body, mirroring PeriodicTimer::arm(), so
        // a tick that calls stop()/set_rate() cancels cleanly and the
        // engine's sequence order matches the old periodic scheduling.
        schedule_next_tick();
        tick();
      });
}

void Spout::schedule_next_tick() {
  // Integer-µs inter-arrival accumulation: interval = ⌊(10¹² + carry) /
  // rate⌋, carrying the remainder forward.  Intervals differ by at most
  // 1 µs and average to exactly 10¹²/rate — e.g. rate 3 ev/s yields
  // 333334, 333333, 333333, repeating, instead of a drifting 333333.
  const std::uint64_t num = kIntervalNumerator + phase_rem_;
  const std::uint64_t interval = num / rate_ueps_;
  phase_rem_ = num % rate_ueps_;
  arm_gen(interval);
}

void Spout::set_rate(double events_per_sec) {
  const std::uint64_t ueps = to_ueps(events_per_sec);
  if (ueps == rate_ueps_) return;
  const std::uint64_t old_ueps = rate_ueps_;
  rate_ueps_ = ueps;
  phase_rem_ = 0;
  if (!running_) return;  // picked up by the next start()

  if (gen_armed_) {
    gen_armed_ = false;
    platform_.engine().cancel(gen_pending_);
  }
  if (rate_ueps_ == 0) return;  // silence until a later set_rate() > 0

  const SimTime now = platform_.engine().now();
  std::uint64_t delay;
  if (old_ueps > 0 && gen_due_ > now) {
    // Phase-continuous: keep the elapsed fraction of the interval.  The
    // remaining fraction is (due − now)/old_interval; the same fraction of
    // the new interval is (due − now) · old_rate / new_rate.  remaining ≤
    // 10¹²/old_ueps, so the product stays ≤ 10¹² — no overflow.
    delay = (gen_due_ - now) * old_ueps / rate_ueps_;
  } else {
    // Was stopped (rate 0) or due now: restart with a full interval.
    delay = kIntervalNumerator / rate_ueps_;
  }
  arm_gen(delay);
}

void Spout::pause() {
  paused_ = true;
  pump_timer_.stop();
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::instance_track(id_.value), "source", "pause",
                {obs::arg("backlog",
                          static_cast<std::uint64_t>(backlog_.size()))});
  }
}

void Spout::unpause() {
  if (!paused_) return;
  paused_ = false;
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::instance_track(id_.value), "source", "unpause",
                {obs::arg("backlog",
                          static_cast<std::uint64_t>(backlog_.size()))});
  }
  if (!backlog_.empty()) pump_timer_.start();
}

void Spout::tick() {
  ++stats_.generated;
  const SimTime born = platform_.engine().now();

  const bool cap_hit = platform_.user_acking() &&
                       cache_.size() >= platform_.config().max_spout_pending;
  if (paused_ || cap_hit || !backlog_.empty()) {
    if (backlog_.size() >= PlatformConfig::max_source_backlog) {
      ++stats_.backlog_dropped;  // the external feed does not buffer forever
      return;
    }
    backlog_.push_back(born);
    stats_.backlog_peak = std::max<std::uint64_t>(stats_.backlog_peak,
                                                  backlog_.size());
    if (!paused_ && !pump_timer_.running()) pump_timer_.start();
    return;
  }
  emit_root(born, /*replay=*/false);
}

void Spout::pump_backlog() {
  if (paused_ || backlog_.empty()) {
    pump_timer_.stop();
    return;
  }
  if (platform_.user_acking() &&
      cache_.size() >= platform_.config().max_spout_pending) {
    return;  // keep the timer armed; capacity frees when roots resolve
  }
  const SimTime born = backlog_.front();
  backlog_.pop_front();
  emit_root(born, /*replay=*/false);
  if (backlog_.empty()) pump_timer_.stop();
}

void Spout::emit_root(SimTime born_at, bool replay, RootId origin) {
  const RootId root = platform_.fresh_event_id();
  if (origin == 0) origin = root;

  if (platform_.user_acking()) {
    platform_.acker().register_root(
        root, [this](RootId r) { on_root_complete(r); },
        [this](RootId r) { on_root_fail(r); });
    cache_.insert_or_assign(root, CachedRoot{born_at, origin});
  }

  Event tmpl;
  tmpl.id = root;
  tmpl.root = root;
  tmpl.origin = origin;
  tmpl.key = key_picker_ ? key_picker_()
                         : next_key_++ % platform_.config().key_cardinality;
  tmpl.producer = ref_.task;
  tmpl.born_at = born_at;
  tmpl.emitted_at = platform_.engine().now();
  tmpl.replayed = replay;
  // Structural 1-in-N sampling for latency attribution.  The counter lives
  // in the attributor and only advances when one is attached, so unsampled
  // runs (the determinism gate) take the same branch pattern every time.
  if (auto* at = platform_.attributor()) tmpl.sampled = at->sample_next_root();

  platform_.emit_from_source(*this, tmpl, replay);

  if (platform_.user_acking()) {
    // Self-ack the root entry now that all copies are anchored.
    platform_.acker().ack(root, root);
  }

  ++stats_.emitted;
  if (replay) {
    ++stats_.replayed_roots;
    if (auto* tr = platform_.tracer()) {
      tr->instant(obs::instance_track(id_.value), "source", "replay",
                  {obs::arg("origin", origin),
                   obs::arg("born_at", static_cast<std::uint64_t>(born_at))});
    }
  }
}

void Spout::on_root_complete(RootId root) {
  cache_.erase(root);
  ++stats_.completed_roots;
  if (!paused_ && !backlog_.empty() && !pump_timer_.running()) {
    pump_timer_.start();
  }
}

void Spout::on_root_fail(RootId root) {
  CachedRoot* cached = cache_.find(root);
  if (cached == nullptr) return;
  const SimTime born = cached->born_at;
  const RootId origin = cached->origin;
  cache_.erase(cached);
  // At-least-once: re-emit the whole causal tree from the source, exactly
  // like Storm replaying a failed tuple.  The fresh root id starts a new
  // acker tree; `origin` keeps the lineage auditable.
  emit_root(born, /*replay=*/true, origin);
}

}  // namespace rill::dsps
