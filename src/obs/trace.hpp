// Flight-recorder span/event tracer.
//
// Records begin/end spans, instant events and counter samples against the
// deterministic simulation clock, and exports them as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing) or append-friendly JSONL.
// The tracer is attached to a Platform with set_tracer(); every hot path
// guards on the raw pointer, so a run without a tracer pays one branch per
// potential record and allocates nothing.
//
// Tracks map onto Chrome's (pid, tid) pair: the control plane (controller,
// coordinator, rebalancer, acker), the key-value store, the chaos injector
// and the dataflow (one tid per task instance) each get their own lane, so
// a migration renders as per-task PREPARE/COMMIT/INIT spans under the
// controller's state-machine timeline.
//
// Besides the record list, the tracer keeps a compact sink-arrival log
// (one SimTime per sink delivery, no per-arrival record).  TraceValidator
// reconstructs the §4 restore duration from it, and the exporters render
// it as a per-second "sink_arrivals" counter series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace rill::sim {
class Engine;
}

namespace rill::obs {

/// Chrome trace-event lane: process id groups related tracks, thread id
/// separates lanes within the group.
struct Track {
  std::int32_t pid{1};
  std::int32_t tid{0};
  friend constexpr bool operator==(Track, Track) = default;
};

/// Well-known control-plane tracks.
inline constexpr Track kTrackController{1, 1};
inline constexpr Track kTrackCoordinator{1, 2};
inline constexpr Track kTrackRebalancer{1, 3};
inline constexpr Track kTrackAcker{1, 4};
inline constexpr Track kTrackKvStore{2, 1};
inline constexpr Track kTrackChaos{3, 1};
/// Dataflow instances: pid 4, tid = instance id value.
inline constexpr std::int32_t kDataflowPid = 4;
/// Derived sink-throughput counter lane.
inline constexpr Track kTrackSinks{5, 1};

[[nodiscard]] constexpr Track instance_track(std::uint32_t instance_id) noexcept {
  return Track{kDataflowPid, static_cast<std::int32_t>(instance_id)};
}

/// Index of a begun-but-unfinished span; kNoSpan when tracing is off.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = ~0ull;

/// One pre-rendered key/value argument.  `json` holds the value already in
/// JSON form (quoted+escaped string, bare number, true/false), so export is
/// a straight concatenation and every record costs one small vector.
struct Arg {
  std::string key;
  std::string json;
};

[[nodiscard]] Arg arg(std::string key, const std::string& value);
[[nodiscard]] Arg arg(std::string key, const char* value);
[[nodiscard]] Arg arg(std::string key, std::uint64_t value);
[[nodiscard]] Arg arg(std::string key, std::int64_t value);
[[nodiscard]] Arg arg(std::string key, int value);
[[nodiscard]] Arg arg(std::string key, double value);
[[nodiscard]] Arg arg(std::string key, bool value);

class Tracer {
 public:
  /// Record phase, matching Chrome's "ph" field.
  enum class Phase : char { Span = 'X', Instant = 'i', Counter = 'C' };

  struct Record {
    Phase ph{Phase::Instant};
    SimTime ts{0};
    SimDuration dur{0};
    Track track{};
    const char* cat{""};  ///< static string; categories are compile-time
    std::string name;
    std::vector<Arg> args;
    bool open{false};  ///< span begun but never ended (run stopped mid-span)
  };

  /// Bind the simulation clock.  All records are stamped with
  /// `engine->now()`; a tracer with no clock stamps 0 (unit tests).
  void bind_clock(const sim::Engine* engine) noexcept { engine_ = engine; }

  // ---- recording ----
  [[nodiscard]] SpanId begin(Track track, const char* cat, std::string name,
                             std::vector<Arg> args = {});
  /// Close a span; extra args are appended to the begin-time ones.
  void end(SpanId id, std::vector<Arg> extra = {});
  void instant(Track track, const char* cat, std::string name,
               std::vector<Arg> args = {});
  /// Record a complete span retrospectively, with an explicit start and
  /// duration instead of the current clock.  Used by the latency
  /// attributor, which only learns a tuple's full path when it reaches a
  /// sink and then back-fills the tuple/hop spans.
  void span_at(Track track, const char* cat, std::string name, SimTime ts,
               SimDuration dur, std::vector<Arg> args = {});
  void counter(Track track, std::string name, double value);

  /// Compact sink-arrival channel (see header comment).
  void note_sink_arrival(SimTime t) { sink_arrivals_.push_back(t); }

  /// Perfetto lane labels, emitted as metadata events.
  void set_process_name(std::int32_t pid, std::string name);
  void set_thread_name(Track track, std::string name);

  // ---- inspection ----
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<SimTime>& sink_arrivals() const noexcept {
    return sink_arrivals_;
  }
  [[nodiscard]] SimTime now() const noexcept;

  // ---- export ----
  /// Chrome trace-event JSON object ({"traceEvents": [...]}).
  [[nodiscard]] std::string to_chrome_json() const;
  /// One JSON object per line, in recording order — append-friendly.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  void render_record(const Record& r, std::string& out) const;

  const sim::Engine* engine_{nullptr};
  std::vector<Record> records_;
  std::vector<SimTime> sink_arrivals_;  // monotone (sim-time ordered)
  std::vector<std::pair<std::int32_t, std::string>> process_names_;
  std::vector<std::pair<Track, std::string>> thread_names_;
};

}  // namespace rill::obs
