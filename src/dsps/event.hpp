// Dataflow events: user tuples and checkpoint-protocol control events.
//
// User events carry the 64-bit id of their causal root (the spout-emitted
// ancestor) for the acking service, the root's birth time for end-to-end
// latency measurement, and a `replayed` taint that propagates to children so
// the metrics layer can count the reprocessing that DSM causes (paper Fig 6).
//
// Control events implement the three-phase checkpoint protocol from the
// paper (§2–§3): PREPARE / COMMIT / ROLLBACK snapshots and INIT restore.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace rill::dsps {

/// Checkpoint-protocol message kinds.  `None` marks an ordinary user tuple.
enum class ControlKind : std::uint8_t { None, Prepare, Commit, Rollback, Init };

[[nodiscard]] constexpr std::string_view to_string(ControlKind k) noexcept {
  switch (k) {
    case ControlKind::None: return "user";
    case ControlKind::Prepare: return "PREPARE";
    case ControlKind::Commit: return "COMMIT";
    case ControlKind::Rollback: return "ROLLBACK";
    case ControlKind::Init: return "INIT";
  }
  return "?";
}

/// How a checkpoint wave is wired, chosen by whoever starts the wave.
///  * Wave: PREPARE/COMMIT/INIT sweep through the dataflow edges (DSM, DCR).
///  * Capture: PREPARE/INIT are broadcast straight into every task's input
///    queue and in-flight events are captured (CCR).
enum class CheckpointMode : std::uint8_t { Wave, Capture };

/// One message flowing on a dataflow edge (or the broadcast channel).
struct Event {
  /// Unique id of this event; participates in the acker's XOR hash.
  EventId id{0};
  /// Id of the causal root (spout emission).  For control events this is
  /// the wave id that the checkpoint coordinator tracks.
  RootId root{0};
  /// Stable lineage id: the first root id this event descends from.  A
  /// replay re-registers under a fresh `root` (new acker tree) but keeps
  /// `origin`, so delivery guarantees can be audited per original event.
  RootId origin{0};
  /// Task that produced this event (source task for root events).
  TaskId producer{};
  /// Simulated instant the causal ROOT was generated at the external
  /// stream.  Sink latency = arrival - born_at, so time spent paused or
  /// queued during migration is (correctly) charged to latency.
  SimTime born_at{0};
  /// Instant this particular event was emitted.
  SimTime emitted_at{0};
  /// Control kind; None for user tuples.
  ControlKind control{ControlKind::None};
  /// The wiring of this copy's wave (control events only), stamped by the
  /// coordinator and kept by forwarded copies.  Never serialized.
  CheckpointMode wiring{CheckpointMode::Wave};
  /// Checkpoint wave sequence number (control events only).
  std::uint64_t checkpoint_id{0};
  /// True if this event descends from a replayed root (DSM recovery).
  bool replayed{false};
  /// Partitioning key (e.g. a sensor/meter id).  Assigned at the source,
  /// inherited by children; fields-grouped edges route by hash(key).
  std::uint64_t key{0};
  /// Approximate serialised size, for the network/store cost models.
  std::uint32_t payload_size{64};
  /// Latency-attribution taint: this event descends from a sampled root
  /// and every lifecycle edge reports a stamp to the attributor.  Only
  /// ever true when an attributor is attached.  Deliberately NOT
  /// serialized into checkpoint blobs (blob bytes feed the network and
  /// store cost models, so carrying it would perturb unsampled runs);
  /// events restored from a durable blob lose the taint and their paths
  /// are counted as abandoned.
  bool sampled{false};

  [[nodiscard]] bool is_control() const noexcept {
    return control != ControlKind::None;
  }
};

}  // namespace rill::dsps
