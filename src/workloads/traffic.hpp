// Deterministic million-user traffic models (ROADMAP item 2).
//
// Three composable, seed-reproducible load shapes drive the spouts'
// time-varying emission rate and key skew:
//
//  * Diurnal curve — a piecewise-linear triangle wave (deliberately not a
//    libm sinusoid: bit-identical on every platform) scaling the base rate
//    between (1 − amplitude) at the trough and (1 + amplitude) at the peak
//    of each period, starting at the trough.
//  * Flash crowds — trapezoid multipliers (linear ramp → hold → linear
//    fall) that stack multiplicatively on the diurnal curve; a ×40 crowd
//    on a ±50 % diurnal swing is the ISSUE's 10–100× load swing.
//  * Zipf key popularity — emitted roots draw their partition key from a
//    Zipf(s) distribution over key_cardinality instead of round-robin, so
//    fields-grouped (keyed) tasks develop hot shards that only fine-grained
//    migration can relieve without stopping the world.
//
// RateSchedule is a pure function of sim time (no state, no RNG);
// TrafficDriver applies it to every spout through the phase-continuous
// Spout::set_rate() once per update period and installs the Zipf key
// picker (a forked xoshiro stream — deterministic per seed).
#pragma once

#include <cstdint>
#include <vector>

#include "common/pinned.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/engine.hpp"

namespace rill::dsps {
class Platform;
}

namespace rill::workloads {

/// One flash crowd: rate multiplier ramps 1→multiplier over [at, at+ramp),
/// holds, then falls back to 1 over [at+ramp+hold, at+ramp+hold+fall).
struct FlashCrowd {
  double at_sec{0.0};
  double ramp_sec{10.0};
  double hold_sec{60.0};
  double fall_sec{20.0};
  double multiplier{10.0};
};

struct TrafficConfig {
  /// Master switch; off = the spouts keep their static configured rate and
  /// round-robin keys (byte-identical to every pre-traffic baseline).
  bool enabled{false};
  /// Base rate (ev/s) the shapes below multiply.
  double base_rate{8.0};
  /// Diurnal triangle amplitude in [0, 1); 0 disables the curve.
  double diurnal_amplitude{0.0};
  /// Diurnal period, seconds of sim time; 0 disables the curve.
  double diurnal_period_sec{0.0};
  /// Flash crowds (may overlap; multipliers stack multiplicatively).
  std::vector<FlashCrowd> crowds;
  /// Zipf skew exponent s for key popularity; 0 keeps round-robin keys.
  double zipf_s{0.0};
  /// How often the driver re-applies the schedule to the spouts.
  static constexpr SimDuration update_period = time::sec(1);
};

/// Pure, deterministic rate shape: rate_at(t) = base · diurnal(t) · Π crowds.
class RateSchedule {
 public:
  explicit RateSchedule(TrafficConfig config) : config_(std::move(config)) {}

  [[nodiscard]] double rate_at(SimTime t) const;
  /// Largest rate the schedule ever reaches (crowd holds stacked on the
  /// diurnal peak) — what a static deployment must be provisioned for.
  [[nodiscard]] double peak_rate() const;

  [[nodiscard]] const TrafficConfig& config() const noexcept {
    return config_;
  }

 private:
  TrafficConfig config_;
};

/// Zipf(s) sampler over [0, cardinality) via an integer cumulative table
/// and a forked xoshiro stream.  Deterministic per seed; key 0 is hottest.
class ZipfKeys {
 public:
  ZipfKeys(std::uint64_t cardinality, double s, Rng rng);

  [[nodiscard]] std::uint64_t next();
  /// Probability share of key 0 in per mille (tests / sizing aid).
  [[nodiscard]] std::uint64_t hottest_share_per_mille() const;

 private:
  std::vector<std::uint64_t> cumulative_;  ///< scaled integer CDF
  Rng rng_;
};

/// Applies a RateSchedule to every spout of a platform, once per update
/// period, and installs the Zipf key picker.  Start before (or after)
/// Platform::start(); set_rate() is phase-continuous either way.
class RILL_PINNED TrafficDriver {
 public:
  TrafficDriver(dsps::Platform& platform, TrafficConfig config);

  void start();
  void stop();

  [[nodiscard]] const RateSchedule& schedule() const noexcept {
    return schedule_;
  }

 private:
  void apply();

  dsps::Platform& platform_;
  RateSchedule schedule_;
  std::vector<ZipfKeys> pickers_;  ///< one per spout, forked streams
  sim::PeriodicTimer timer_;
  bool installed_{false};
};

}  // namespace rill::workloads
