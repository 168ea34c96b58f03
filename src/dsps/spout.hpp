// Source task (spout): rate-driven synthetic event generator with the
// reliability features the paper's strategies depend on.
//
//  * Emits root events at a configurable rate (paper: 8 ev/s) and
//    duplicates each root to every out-edge.  Emission is scheduled by
//    integer-µs inter-arrival accumulation (no float phase error over long
//    runs) and the rate can be changed mid-run phase-continuously — the
//    traffic models (diurnal curves, flash crowds) drive set_rate().
//  * When user acking is enabled (DSM), caches emitted roots until the
//    acker reports the causal tree complete; failed roots are re-emitted
//    ("replayed") with the original birth timestamp so end-to-end latency
//    reflects the recovery delay.
//  * pause()/unpause(): while paused (DCR/CCR migration) the external
//    stream keeps producing into a backlog, which is pumped into the
//    dataflow at a configurable rate after unpause — this produces the
//    input-rate spike visible in the paper's Fig 7b/7c.
#pragma once

#include <cstdint>
#include <functional>

#include "common/ids.hpp"
#include "common/ring_queue.hpp"
#include "common/root_table.hpp"
#include "common/time.hpp"
#include "dsps/event.hpp"
#include "dsps/scheduler.hpp"
#include "sim/engine.hpp"

namespace rill::dsps {

class Platform;

struct SpoutStats {
  std::uint64_t generated{0};       ///< external stream events produced
  std::uint64_t emitted{0};         ///< root emissions into the dataflow
  std::uint64_t replayed_roots{0};  ///< failed roots re-emitted
  std::uint64_t completed_roots{0};
  std::uint64_t backlog_peak{0};
  std::uint64_t backlog_dropped{0};  ///< external-feed drops at the cap
};

class Spout {
 public:
  Spout(Platform& platform, InstanceId id, InstanceRef ref, double rate);
  ~Spout();

  Spout(const Spout&) = delete;
  Spout& operator=(const Spout&) = delete;

  [[nodiscard]] InstanceId id() const noexcept { return id_; }
  [[nodiscard]] InstanceRef ref() const noexcept { return ref_; }
  [[nodiscard]] TaskId task() const noexcept { return ref_.task; }
  [[nodiscard]] SlotId slot() const noexcept { return slot_; }
  void bind_slot(SlotId slot) noexcept { slot_ = slot; }

  /// Begin generating events.
  void start();
  void stop();

  /// Stop emitting into the dataflow; external generation continues into
  /// the backlog.
  void pause();
  /// Resume: drain the backlog at the configured pump rate, then return to
  /// direct emission.
  void unpause();

  /// Change the generation rate mid-run, phase-continuously: the elapsed
  /// fraction of the current inter-arrival interval is preserved, so a
  /// ramp produces no burst and no gap at the switch point.  Rate 0 stops
  /// generation until a later set_rate() > 0.
  void set_rate(double events_per_sec);
  /// Current rate in micro-events per second (integer; exact).
  [[nodiscard]] std::uint64_t rate_ueps() const noexcept { return rate_ueps_; }

  /// Override the partition-key assignment of emitted roots (default:
  /// round-robin over key_cardinality).  The traffic models install a
  /// Zipf-skewed sampler here; the picker must be deterministic.
  void set_key_picker(std::function<std::uint64_t()> picker) {
    key_picker_ = std::move(picker);
  }

  [[nodiscard]] bool paused() const noexcept { return paused_; }
  [[nodiscard]] std::size_t backlog() const noexcept { return backlog_.size(); }
  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_.size(); }
  [[nodiscard]] const SpoutStats& stats() const noexcept { return stats_; }

 private:
  struct CachedRoot {
    SimTime born_at{0};
    RootId origin{0};  ///< lineage id stable across replays
  };

  void tick();                   ///< periodic external generation
  void pump_backlog();
  /// Schedule the next generation tick `delay_us` from now.
  void arm_gen(std::uint64_t delay_us);
  /// Accumulate the next integer-µs inter-arrival interval and arm it.
  void schedule_next_tick();
  void emit_root(SimTime born_at, bool replay, RootId origin = 0);
  void on_root_complete(RootId root);
  void on_root_fail(RootId root);

  Platform& platform_;
  InstanceId id_;
  InstanceRef ref_;
  SlotId slot_{};
  bool running_{false};
  bool paused_{false};

  /// Generation rate in micro-events per second (rate · 10⁶, rounded).
  /// Inter-arrival intervals are carved from a 10¹² µs·µev/s numerator with
  /// a carried remainder, so the long-run average rate is exact — no float
  /// phase accumulates no matter how long the run or how often set_rate()
  /// retunes it.
  std::uint64_t rate_ueps_;
  /// Carried remainder of the inter-arrival division, < rate_ueps_.
  std::uint64_t phase_rem_{0};
  /// Absolute due time of the armed generation tick (phase-continuity).
  SimTime gen_due_{0};
  sim::TimerId gen_pending_{};
  bool gen_armed_{false};

  sim::PeriodicTimer pump_timer_;

  /// Rolling partition-key assignment for emitted roots.
  std::uint64_t next_key_{0};
  /// Optional key-assignment override (Zipf traffic model).
  std::function<std::uint64_t()> key_picker_;
  /// Birth timestamps of generated-but-not-yet-emitted events.
  RingQueue<SimTime> backlog_;
  /// Roots awaiting causal-tree completion (only when acking is on).
  RootTable<CachedRoot> cache_;

  SpoutStats stats_;
};

}  // namespace rill::dsps
