// Simulated-time primitives for the Rill discrete-event engine.
//
// All simulated durations and instants are integral microseconds.  We use
// strong-ish typedefs (via distinct helper constructors) rather than
// std::chrono because the engine's priority queue, the serde layer and the
// metric buckets all want a flat integral representation, and because mixing
// simulated time with wall-clock std::chrono types is a classic source of
// bugs in simulators.
#pragma once

#include <cstdint>
#include <limits>

namespace rill {

/// A simulated instant, in microseconds since simulation start.
using SimTime = std::uint64_t;

/// A simulated duration, in microseconds.  Signed so that deltas of
/// instants are representable without surprises.
using SimDuration = std::int64_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

/// Longest time a command-line flag may give: half of SimDuration's range,
/// so a run's own offsets added to it cannot overflow.
inline constexpr SimDuration kMaxFlagTime =
    std::numeric_limits<SimDuration>::max() / 2;

/// Convenience constructors.  `5 * time::sec` style arithmetic is
/// deliberately avoided; call sites read `time::sec(5)`.
namespace time {

constexpr SimDuration us(std::int64_t v) noexcept { return v; }
constexpr SimDuration ms(std::int64_t v) noexcept { return v * 1000; }
constexpr SimDuration sec(std::int64_t v) noexcept { return v * 1000 * 1000; }
constexpr SimDuration min(std::int64_t v) noexcept { return v * 60ll * 1000 * 1000; }

/// Fractional-second constructor for rates and jitter.
constexpr SimDuration sec_f(double v) noexcept {
  return static_cast<SimDuration>(v * 1e6);
}

constexpr double to_sec(SimDuration d) noexcept { return static_cast<double>(d) / 1e6; }
constexpr double to_ms(SimDuration d) noexcept { return static_cast<double>(d) / 1e3; }

/// Instant → seconds-from-start, for reporting.
constexpr double at_sec(SimTime t) noexcept { return static_cast<double>(t) / 1e6; }

}  // namespace time

}  // namespace rill
