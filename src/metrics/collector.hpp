// Metrics collector: observes the platform's event lifecycle and gathers
// everything needed to compute the paper's seven performance metrics (§4)
// and the Fig 7/9 timeline series.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "dsps/event.hpp"
#include "dsps/listener.hpp"
#include "metrics/series.hpp"

namespace rill::metrics {

/// Per-origin accounting used by the reliability invariants (exactly-once
/// delivery per sink path under DCR/CCR, at-least-once under DSM).
struct RootRecord {
  SimTime born_at{0};
  std::uint32_t sink_arrivals{0};
  bool replay{false};
};

class Collector final : public dsps::EventListener {
 public:
  /// Mark the migration request instant; "old" events are those whose
  /// roots were born before it.
  void set_request_time(SimTime t) noexcept { request_ = t; }
  [[nodiscard]] std::optional<SimTime> request_time() const noexcept {
    return request_;
  }

  // ---- EventListener ----
  void on_source_emit(const dsps::Event& ev, bool replay) override;
  void on_emit(const dsps::Event& ev) override;
  void on_sink_arrival(const dsps::Event& ev, SimTime now) override;
  void on_lost(const dsps::Event& ev, SimTime now) override;

  // ---- series ----
  [[nodiscard]] const RateSeries& input() const noexcept { return input_; }
  [[nodiscard]] const RateSeries& output() const noexcept { return output_; }
  [[nodiscard]] const LatencySeries& latency() const noexcept { return latency_; }

  // ---- counters ----
  /// All user-event emissions tainted `replayed` (paper Fig 6's "number of
  /// failed and replayed messages").
  [[nodiscard]] std::uint64_t replayed_messages() const noexcept {
    return replayed_messages_;
  }
  [[nodiscard]] std::uint64_t replayed_roots() const noexcept {
    return replayed_roots_;
  }
  [[nodiscard]] std::uint64_t lost_user_events() const noexcept {
    return lost_user_;
  }
  [[nodiscard]] std::uint64_t lost_control_events() const noexcept {
    return lost_control_;
  }
  [[nodiscard]] std::uint64_t roots_emitted() const noexcept {
    return roots_emitted_;
  }
  /// One latency sample is logged per sink arrival.
  [[nodiscard]] std::uint64_t sink_arrivals() const noexcept {
    return latency_.size();
  }

  // ---- migration timestamps ----
  [[nodiscard]] std::optional<SimTime> first_sink_after_request() const noexcept {
    return first_sink_after_request_;
  }
  /// First sink arrival strictly after `t` (binary search over the
  /// latency log, which holds one sample per arrival in arrival order).
  /// The §4 Restore Duration uses t = kill time: output is silent from the
  /// moment the migrating workers die until the dataflow produces again.
  [[nodiscard]] std::optional<SimTime> first_sink_arrival_after(SimTime t) const;
  [[nodiscard]] std::optional<SimTime> last_old_arrival() const noexcept {
    return last_old_arrival_;
  }
  [[nodiscard]] std::optional<SimTime> last_replayed_arrival() const noexcept {
    return last_replayed_arrival_;
  }

  /// Per-origin records, ordered by origin (tests).  Rebuilt from the two
  /// logs on every call, replaying them in the order they were written: a
  /// fresh emit (re)starts its origin's record, a replay emit marks the
  /// origin's record (or starts a marked one), and an arrival counts only
  /// when its origin was emitted before it.
  [[nodiscard]] std::map<RootId, RootRecord> roots() const;

 private:
  std::optional<SimTime> request_;

  RateSeries input_;
  RateSeries output_;
  LatencySeries latency_;

  std::uint64_t roots_emitted_{0};
  std::uint64_t replayed_roots_{0};
  std::uint64_t replayed_messages_{0};
  std::uint64_t lost_user_{0};
  std::uint64_t lost_control_{0};

  std::optional<SimTime> first_sink_after_request_;
  std::optional<SimTime> last_old_arrival_;
  std::optional<SimTime> last_replayed_arrival_;

  /// The root ledger, as two append-only logs: recording a source emit or
  /// a sink arrival is a push_back, with no per-root lookup or node.
  struct SourceEmit {
    RootId origin{0};
    SimTime born_at{0};
    /// Sink arrivals logged before this emit: where it falls among them.
    std::uint64_t arrivals_before : 63 {0};
    std::uint64_t replay : 1 {0};
  };
  std::vector<SourceEmit> emits_;
  std::vector<RootId> arrival_origins_;
};

}  // namespace rill::metrics
