// XOR causal-tree acknowledgement service (Storm's acker, §2 of the paper).
//
// Each root event registers a 64-bit id.  Every causally-derived event id
// is XORed into the root's hash once when it is created ("add") and once
// when its processing is acknowledged ("ack"); the hash therefore returns
// to the registration value exactly when every event in the causal tree
// has been acked.  A periodic scan fails roots that have not completed
// within the ack timeout (Storm default 30 s), triggering replay at the
// owner (the spout, or the checkpoint coordinator for protocol waves).
#pragma once

#include <cstdint>
#include <functional>

#include "common/ids.hpp"
#include "common/root_table.hpp"
#include "common/time.hpp"
#include "sim/engine.hpp"

namespace rill::obs {
class Tracer;
}

namespace rill::dsps {

struct AckerStats {
  std::uint64_t roots_registered{0};
  std::uint64_t roots_completed{0};
  std::uint64_t roots_failed{0};
  std::uint64_t adds{0};
  std::uint64_t acks{0};
};

/// The acking service.  Owners (spouts / checkpoint coordinator) register
/// roots with completion/failure callbacks; executors add and ack derived
/// events as they emit and finish processing them.
class AckerService {
 public:
  using OnComplete = std::function<void(RootId)>;
  using OnFail = std::function<void(RootId)>;

  /// How often the scanner looks for roots past the ack timeout.
  static constexpr SimDuration kScanPeriod = time::sec(1);

  AckerService(sim::Engine& engine, SimDuration ack_timeout);

  /// Start / stop the timeout scanner.  The scanner is idempotent to start.
  void start();
  void stop();

  /// Register a root.  The root's own id is XORed in as its first pending
  /// entry — the source acks it after a successful emit downstream.
  void register_root(RootId root, OnComplete on_complete, OnFail on_fail);

  /// Is this root still pending?
  [[nodiscard]] bool pending(RootId root) const;

  /// A new event derived from `root` was emitted.
  void add(RootId root, EventId event);

  /// An event belonging to `root` finished processing.
  void ack(RootId root, EventId event);

  /// Explicitly fail a root (e.g. user logic error).  Fires on_fail.
  void fail(RootId root);

  /// Drop a root without firing callbacks (owner no longer cares, e.g. a
  /// superseded checkpoint wave).
  void forget(RootId root);

  [[nodiscard]] const AckerStats& stats() const noexcept { return stats_; }

  /// Flight recorder: timeout scans that expire roots emit an instant.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  struct PendingRoot {
    std::uint64_t hash{0};
    SimTime registered_at{0};
    /// Monotone registration sequence; the timeout scan fails expired roots
    /// in this order so replay never depends on slot order (root ids are
    /// random 64-bit values, so sorting by id would be arbitrary).
    std::uint64_t seq{0};
    OnComplete on_complete;
    OnFail on_fail;
  };

  void scan();

  sim::Engine& engine_;
  SimDuration ack_timeout_;
  sim::PeriodicTimer scanner_;
  std::uint64_t next_seq_{0};
  /// Pending roots in one flat table: registering, adding to and acking a
  /// root allocate nothing once the table has grown to the in-flight set.
  RootTable<PendingRoot> pending_;
  AckerStats stats_;
  obs::Tracer* tracer_{nullptr};
};

}  // namespace rill::dsps
