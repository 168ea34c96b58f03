// Failure/recovery estimators feeding the adaptive checkpoint policy.
//
// MttfEstimator tracks inter-failure times per fault kind (in sim time, fed
// by chaos::ChaosInjector's failure-notification hook) and combines the
// per-kind rates into one process-failure MTTF: independent failure sources
// superpose as Poisson processes, so rates add and the combined mean time
// to failure is 1 / Σ(1/mttf_k).
//
// MttrEstimator smooths measured recovery durations (failure detection →
// last INIT-restore completion, measured by ckpt::RecoveryTracker) so the
// policy solves against observed restore cost rather than a guessed bound.
//
// Both are EWMA smoothers over integral-microsecond durations; they draw no
// entropy, read no wallclock and schedule nothing, so attaching them to a
// run leaves the event schedule untouched (determinism rule R1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "chaos/plan.hpp"
#include "common/time.hpp"

namespace rill::ckpt {

class MttfEstimator {
 public:
  explicit MttfEstimator(double alpha = 0.3) noexcept : alpha_(alpha) {}

  /// One failure event of `kind` at sim time `at`.  The first event of a
  /// kind only anchors the stream; estimates start with the second.
  void note_failure(chaos::FaultKind kind, SimTime at);

  /// EWMA inter-failure time for one kind (nullopt until 2 events seen).
  [[nodiscard]] std::optional<SimDuration> kind_mttf(
      chaos::FaultKind kind) const;

  /// Combined MTTF across every kind with an estimate (rates add);
  /// nullopt until at least one kind has 2 events.
  [[nodiscard]] std::optional<SimDuration> combined_mttf() const;

  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t kind_count(chaos::FaultKind kind) const;

 private:
  struct KindTrack {
    std::uint64_t count{0};
    SimTime last_at{0};
    double ewma_us{0.0};  ///< EWMA of inter-failure gaps; valid iff count >= 2
  };

  double alpha_;
  // std::map: deterministic iteration order for combined_mttf() (rule R2).
  std::map<chaos::FaultKind, KindTrack> kinds_;
  std::uint64_t failures_{0};
};

class MttrEstimator {
 public:
  explicit MttrEstimator(double alpha = 0.3) noexcept : alpha_(alpha) {}

  /// One measured recovery: failure detection → restored and serving.
  void note_recovery(SimDuration downtime);

  /// EWMA recovery time; nullopt until the first measurement.
  [[nodiscard]] std::optional<SimDuration> estimate() const;

  [[nodiscard]] std::uint64_t recoveries() const noexcept { return count_; }
  [[nodiscard]] SimDuration max_seen() const noexcept { return max_; }

 private:
  double alpha_;
  double ewma_us_{0.0};
  std::uint64_t count_{0};
  SimDuration max_{0};
};

}  // namespace rill::ckpt
