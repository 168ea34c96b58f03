// RecoveryTracker: measures end-to-end recovery time.
//
// A recovery window opens at failure detection (the rebalancer's
// coordinated kill, or a chaos-injected worker/VM crash) and closes when
// the platform is whole again: every killed instance is back up AND, if
// any of them awaits state, the INIT-restore session has completed.  The
// measured window is the paper-facing "how long were we broken" number —
// it feeds the MTTR estimator, the `ckpt.recovery_ms` histogram and a
// `recovery` span on the coordinator trace lane (so TraceValidator can
// cross-check it from the trace alone).
//
// Each record also carries the checkpoint staleness at failure time (now −
// last committed wave): a restore rolls state back by that much, so
// downtime + staleness is the recovery-time figure the policy's RTO is
// solved against (the restored run must re-cover that window from replay).
//
// The tracker is passive: it schedules nothing and draws nothing, so runs
// that never fail record nothing and stay byte-identical (rule R1); trace
// records are only emitted when a tracer is attached.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "obs/trace.hpp"

namespace rill::obs {
class MetricsRegistry;
}

namespace rill::ckpt {

struct RecoveryRecord {
  SimTime failed_at{0};
  SimDuration downtime{0};   ///< failure detection → whole again
  SimDuration staleness{0};  ///< failure → last committed checkpoint
  int instances{0};          ///< instances killed in this window

  /// RTO-facing recovery time: restore latency plus the replay window the
  /// restored state rolls back over.
  [[nodiscard]] SimDuration total() const noexcept {
    return downtime + staleness;
  }
};

class RecoveryTracker {
 public:
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }
  /// Called once per closed recovery window (feeds the MTTR estimator).
  void set_sink(std::function<void(const RecoveryRecord&)> sink) {
    sink_ = std::move(sink);
  }

  /// `instances` workers died at `at`; `staleness` is the age of the last
  /// committed checkpoint at that moment.  Opens a window if none is open,
  /// otherwise folds into the open one (cascading failures are one outage).
  void on_failure(SimTime at, int instances, SimDuration staleness,
                  const char* cause);
  /// A worker came back up.  `awaiting_init` marks it as pending a state
  /// restore, so the window stays open until the INIT session completes.
  void on_worker_ready(SimTime at, bool awaiting_init);
  void on_init_start(SimTime at);
  void on_init_complete(SimTime at, bool ok);

  [[nodiscard]] const std::vector<RecoveryRecord>& recoveries()
      const noexcept {
    return records_;
  }

 private:
  void maybe_close(SimTime at);

  obs::Tracer* tracer_{nullptr};
  obs::MetricsRegistry* metrics_{nullptr};
  std::function<void(const RecoveryRecord&)> sink_;

  bool open_{false};
  SimTime failed_at_{0};
  SimDuration staleness_{0};
  int instances_{0};
  int down_{0};            ///< killed instances not yet back up
  bool init_pending_{false};  ///< a ready worker awaits a restore session
  bool init_active_{false};   ///< an INIT session is running
  obs::SpanId span_{obs::kNoSpan};
  std::vector<RecoveryRecord> records_;
};

}  // namespace rill::ckpt
