// Offline analysis of exported JSONL traces (the rill_trace CLI's engine,
// kept in the library so it is unit-testable).
//
// parse_jsonl() reads the Tracer::to_jsonl() format — one flat JSON object
// per line — into TraceEvent records.  Numeric arg values are kept as raw
// text until asked for: EventId/RootId are 64-bit and would lose precision
// through a double.  analyze() then reconstructs:
//
//   * migration phases from the control-plane vocabulary ("strategy"
//     request / checkpoint_done / init_complete / unpause instants, the
//     "rebalance" span and its "kill" instant) — the Fig-7 breakdown;
//   * sampled tuples and their per-hop attribution from the pid-6 "tuple"
//     track the LatencyAttributor emits.
//
// check() asserts the attribution invariants CI relies on: per-cause
// components sum to each tuple's end-to-end latency within tolerance, and
// in the migration window the slow tail is dominated by Pause.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/attribution.hpp"

namespace rill::obs::analysis {

/// One parsed trace line.  `args` holds (key, value) pairs: string values
/// are unescaped, everything else (numbers, booleans, nested) stays as the
/// raw JSON token.
struct TraceEvent {
  char ph{'i'};
  std::uint64_t ts{0};
  std::int64_t dur{0};
  int pid{0};
  int tid{0};
  std::string cat;
  std::string name;
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] const std::string* arg_raw(const std::string& key) const;
  [[nodiscard]] std::optional<std::uint64_t> arg_u64(
      const std::string& key) const;
};

struct ParseStats {
  std::size_t lines{0};   ///< non-empty input lines
  std::size_t parsed{0};  ///< lines yielding an event
  std::vector<std::string> errors;  ///< "line N: why" per rejected line
};

/// Parse a whole JSONL export.  Malformed lines are reported in `stats`
/// (when given) and skipped; the parse never throws.
[[nodiscard]] std::vector<TraceEvent> parse_jsonl(const std::string& text,
                                                  ParseStats* stats = nullptr);

/// A sampled end-to-end tuple span (pid-6 "tuple" record).
struct TupleView {
  std::uint64_t root{0};
  std::uint64_t origin{0};
  SimTime born{0};
  std::uint64_t latency_us{0};
  std::uint64_t cause_us[kCauseCount]{};
  std::uint64_t hops{0};

  [[nodiscard]] SimTime done() const noexcept { return born + latency_us; }
  [[nodiscard]] std::uint64_t cause_sum() const noexcept {
    std::uint64_t s = 0;
    for (const std::uint64_t c : cause_us) s += c;
    return s;
  }
};

/// One hop of a sampled tuple (pid-6 "hop" record).
struct HopView {
  std::uint64_t root{0};
  std::string task;
  SimTime start{0};
  std::uint64_t dur_us{0};
  std::uint64_t cause_us[kCauseCount]{};
};

/// Fig-7 phase instants, reconstructed from the control-plane records.
/// All are the LAST occurrence (retries re-stamp, like obs::validate).
struct MigrationPhases {
  std::optional<SimTime> request;
  std::optional<SimTime> checkpoint_done;  ///< capture complete (DCR/CCR)
  std::optional<SimTime> rebalance_start;
  std::optional<std::uint64_t> rebalance_dur_us;
  std::optional<SimTime> killed_at;
  std::optional<SimTime> first_restored;  ///< first task state restore
  std::optional<SimTime> init_complete;
  std::optional<SimTime> unpause;
};

struct Analysis {
  MigrationPhases phases;
  std::vector<TupleView> tuples;  ///< completion (trace) order
  std::vector<HopView> hops;      ///< all hop spans, trace order
  std::size_t events{0};          ///< total parsed records
};

[[nodiscard]] Analysis analyze(const std::vector<TraceEvent>& events);

/// Indices of the `k` slowest tuples, slowest first (ties: earlier born
/// first, so the order is deterministic).
[[nodiscard]] std::vector<std::size_t> slowest_tuples(const Analysis& a,
                                                      std::size_t k);

/// Hops of one tuple (matched by root, in trace order).
[[nodiscard]] std::vector<const HopView*> hops_of(const Analysis& a,
                                                  std::uint64_t root);

struct CheckResult {
  bool ok{true};
  std::size_t tuples_checked{0};
  std::vector<std::string> failures;
};

/// How far, as a fraction of the end-to-end latency, check() lets a
/// tuple's per-cause components sum away from it.
inline constexpr double kCheckTolerance = 0.01;

/// CI assertions over an analyzed trace:
///   1. every tuple's per-cause components sum to its end-to-end latency
///      within kCheckTolerance (1 %);
///   2. when a migration request is present and tuples completed after it,
///      the aggregate slow-tail (top 1%, at least 10 tuples) attribution
///      is dominated by Pause — migration stall, not queueing noise.
[[nodiscard]] CheckResult check(const Analysis& a);

}  // namespace rill::obs::analysis
