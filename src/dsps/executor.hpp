// Task-instance executor: one logical task replica bound to a 1-core slot.
//
// Mirrors Storm's executor + StatefulBoltExecutor pair (§2, §3): a
// single-threaded FIFO input queue, user logic invoked per event with the
// task's service time, and platform logic that intercepts the checkpoint
// protocol events, by the wiring each control copy carries:
//
//  * Wave mode (DSM, DCR): PREPARE/COMMIT/INIT arrive through the dataflow
//    edges with barrier alignment across upstream instances — PREPARE is a
//    rearguard behind all in-flight events.
//  * Capture mode (CCR): PREPARE/INIT arrive directly on the broadcast
//    channel; after PREPARE the executor *captures* later user events into
//    a pending list that COMMIT persists together with the state, and INIT
//    replays after migration.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/pinned.hpp"
#include "common/ring_queue.hpp"
#include "common/root_table.hpp"
#include "common/time.hpp"
#include "dsps/config.hpp"
#include "dsps/event.hpp"
#include "dsps/scheduler.hpp"
#include "dsps/state.hpp"
#include "dsps/topology.hpp"

namespace rill::obs {
class Counter;
class Gauge;
class Histogram;
class LatencyAttributor;
}

namespace rill::dsps {

class Platform;

/// Per-executor counters for tests and invariant checks.
///
/// The loss counters are mutually exclusive per delivery, so user events
/// obey the conservation ledger (checked by the chaos property sweep):
///   delivered + init_replays ==
///       processed + lost_enqueue + lost_at_kill + lost_mid_service
///       + transport_overflow + capture_handoff + buffered_user_events()
struct ExecutorStats {
  std::uint64_t delivered{0};   ///< user events handed to enqueue()
  std::uint64_t processed{0};
  std::uint64_t emitted{0};
  std::uint64_t captured{0};
  std::uint64_t lost_enqueue{0};  ///< user deliveries while dead
  std::uint64_t lost_control_enqueue{0};  ///< control copies while dead/starting
  std::uint64_t lost_at_kill{0};  ///< queued events dropped by kill
  std::uint64_t lost_mid_service{0};  ///< the in-flight delivery killed
                                      ///< mid-service (at most 1 per kill)
  std::uint64_t transport_overflow{0};  ///< Starting-buffer cap overflows
  std::uint64_t capture_handoff{0};  ///< captured events whose only copy moved
                                     ///< to the durable blob at kill
  std::uint64_t init_replays{0};  ///< events re-injected from restored blobs
  std::uint64_t post_commit_arrivals{0};  ///< CCR invariant: must stay 0
  std::uint64_t init_restores{0};
  std::uint64_t duplicate_inits{0};
  std::uint64_t fgm_batches_moved{0};  ///< FGM key-batches committed to the shadow
  std::uint64_t fgm_diverted{0};  ///< tuples held in the FGM divert buffer
};

/// Result of one FGM batch-move step (see Executor::fgm_move_next_batch).
enum class FgmMoveOutcome : std::uint8_t {
  Moved,     ///< one more batch committed; call again for the next
  AllMoved,  ///< every partition (including the reserved one) has moved
  Failed     ///< store failure or worker death; unmoved ranges stay local
};

/// Worker lifecycle.  Dead: killed, no destination exists — deliveries are
/// lost (Storm's broken connections during rebalance).  Starting: the
/// replacement worker is assigned and launching — senders' transport
/// clients buffer deliveries until the connection comes up (Storm's netty
/// client reconnect behaviour).  Running: processing normally.
enum class LifeState : std::uint8_t { Dead, Starting, Running };

class RILL_PINNED Executor {
 public:
  Executor(Platform& platform, InstanceId id, InstanceRef ref);

  // Non-copyable: identity object owned by the platform.
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // ---- identity & placement ----
  [[nodiscard]] InstanceId id() const noexcept { return id_; }
  [[nodiscard]] InstanceRef ref() const noexcept { return ref_; }
  [[nodiscard]] TaskId task() const noexcept { return ref_.task; }
  [[nodiscard]] SlotId slot() const noexcept { return slot_; }
  /// Every write of slot() goes through here: a busy executor's entry in
  /// the per-VM busy count (Cluster::add_busy) moves with it.
  void bind_slot(SlotId slot);

  // ---- lifecycle (driven by the rebalancer) ----
  /// Kill the worker: drop queued events (counted lost), state, snapshots.
  void kill();
  /// Assign the replacement worker to a new slot; not yet ready.
  void respawn(SlotId new_slot);
  /// Scoped-re-pin support: moves out every delivered-but-unprocessed user
  /// event (sender transport buffer, queue, INIT holding pen) so a scoped
  /// coordinated kill can hand them back to the respawned instance.  A
  /// full-placement kill must NOT preserve these — there every upstream is
  /// also reverted to the checkpoint and regenerates its in-flight events,
  /// so a preserved copy would arrive twice.
  [[nodiscard]] std::vector<Event> drain_unprocessed_for_requeue();
  /// Re-delivers events drained by drain_unprocessed_for_requeue() after a
  /// respawn.  Bypasses the `delivered` counter: the original enqueue
  /// already counted them, and they are still bound for this instance.
  void requeue(std::vector<Event> events);
  /// Worker process is up: accept deliveries.  Pass `awaiting_init` true
  /// after a migration respawn so user events pend until INIT restores the
  /// state (Storm's StatefulBoltExecutor behaviour).
  void set_ready(bool awaiting_init = false);

  [[nodiscard]] bool ready() const noexcept {
    return life_ == LifeState::Running;
  }
  [[nodiscard]] LifeState life() const noexcept { return life_; }
  /// Incarnation counter; lets externally-scheduled lifecycle callbacks
  /// (worker start-up timers) no-op when the worker was killed meanwhile.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool awaiting_init() const noexcept { return awaiting_init_; }
  [[nodiscard]] bool capturing() const noexcept { return capturing_; }
  /// Currently serving an event (user or control) — the VM-interference
  /// model counts busy colocated neighbours.
  [[nodiscard]] bool busy() const noexcept { return busy_; }

  // ---- dataflow ----
  /// Deliver an event into the input queue (network callback).  Dropped
  /// and reported lost when the worker is not ready.
  void enqueue(Event ev);

  [[nodiscard]] std::size_t queue_depth() const noexcept { return queue_.size(); }
  [[nodiscard]] const TaskState& state() const noexcept { return state_; }
  [[nodiscard]] const std::vector<Event>& pending_capture() const noexcept {
    return pending_capture_;
  }
  [[nodiscard]] const ExecutorStats& stats() const noexcept { return stats_; }
  /// User events currently owned by this executor in some buffer: input
  /// queue + pend-until-init + senders' transport buffers + the capture
  /// list + an in-flight user delivery.  Closes the stats ledger.
  [[nodiscard]] std::uint64_t buffered_user_events() const noexcept;

  /// Version of the user logic this worker runs; bumped by migrations
  /// that carry logic updates.  The user logic tags per-version counters
  /// ("v<N>") so tests can audit which version processed which events.
  [[nodiscard]] int logic_version() const noexcept { return logic_version_; }
  void set_logic_version(int v);

  // ---- FGM fluid migration (StrategyKind::FGM) ----
  // The executor never pauses: it keeps its old slot while a *shadow* slot
  // warms up on the target VM, then moves its keyed state one partition
  // batch at a time through the checkpoint store.  Tuples whose key range
  // already moved are delivered to the shadow slot (delivery_slot); tuples
  // whose range is mid-transfer wait in a divert buffer and are charged to
  // the `migration` attribution cause.

  /// Start a fluid migration: the shadow slot is occupied on the target VM
  /// and `partitions` key ranges (plus the reserved non-keyed bucket) are
  /// scheduled to move.  The shadow is not ready until fgm_shadow_up().
  void fgm_begin(SlotId shadow_slot, int partitions);
  /// The shadow worker process finished starting up; batches may now move.
  void fgm_shadow_up() noexcept { fgm_shadow_ready_ = true; }
  /// Move the next unmoved partition batch through the store (PUT from the
  /// source VM, GET from the shadow VM), then re-inject diverted tuples.
  /// On failure the extracted batch is merged back locally and every range
  /// that already moved stays moved — a retry resumes where this left off.
  void fgm_move_next_batch(std::function<void(FgmMoveOutcome)> done);
  /// All batches moved: the shadow slot becomes the real slot.  The caller
  /// (rebalancer) vacates the old slot first.
  void fgm_finalize();

  [[nodiscard]] bool fgm_active() const noexcept { return fgm_active_; }
  [[nodiscard]] bool fgm_shadow_is_ready() const noexcept {
    return fgm_shadow_ready_;
  }
  /// Partitions (including the reserved bucket) not yet moved.
  [[nodiscard]] int fgm_unmoved() const noexcept;

  /// Where the network should deliver `ev` for this executor: the shadow
  /// slot when the event's key range has already moved, the bound slot
  /// otherwise.  Control events always use the bound slot.  A pure branch:
  /// without an active fluid migration this is exactly slot().
  [[nodiscard]] SlotId delivery_slot(const Event& ev) const;

 private:
  friend class Platform;

  void pump();
  /// Every write of busy_ goes through here, keeping the per-VM busy count
  /// (Cluster::add_busy) in step.
  void set_busy(bool busy);
  void finish_user_event(const Event& ev);
  /// `span` is the flight-recorder span covering this control event's
  /// handling (obs::kNoSpan when tracing is off); each handler closes it at
  /// its terminal point — possibly inside an async store callback.
  void handle_control(const Event& ev, std::uint64_t span);

  /// Snapshot `state_` for a PREPARE of wave `cid`, keeping dirty-set
  /// custody correct across failed waves and re-PREPAREs.
  void snapshot_for_prepare(std::uint64_t cid);
  void on_prepare(const Event& ev, std::uint64_t span);
  void on_commit(const Event& ev, std::uint64_t span);
  void on_rollback(const Event& ev, std::uint64_t span);
  void on_init(const Event& ev, std::uint64_t span);

  /// COMMIT persistence: serialises the blob for `ev.checkpoint_id` (delta
  /// or full, per the decision recorded in `decided_*`), PUTs it, and on
  /// success re-persists if the capture list grew while the write was in
  /// flight (the CCR capture window), then forwards + acks.
  void persist_commit_blob(const Event& ev, std::uint64_t span);
  /// Chooses delta vs full for this wave and records the choice so COMMIT
  /// retries re-serialise the same form with a refreshed pending list.
  void decide_commit_form(std::uint64_t cid);
  /// Post-persist bookkeeping: advance the delta chain, emit stats, and
  /// garbage-collect blobs superseded by the last globally-committed wave.
  void note_persisted(std::uint64_t cid, std::size_t bytes);
  void gc_superseded_blobs();
  /// Forget the delta chain so the next blob is forced full (after kill,
  /// restore and rollback — the cases where the base may not survive).
  void reset_delta_chain();

  /// INIT restore bookkeeping for one blob fetch: accumulates the delta
  /// chain (newest first) and either recurses for the base or reconstructs
  /// the full state and restores.
  struct InitFetch {
    Event ev;
    std::uint64_t span{0};
    std::vector<CheckpointBlob> chain;  // newest → oldest
  };
  /// Fetches `key` (prefetch cache first, then the store) and continues the
  /// chain walk.  On store failure the INIT root is released so a later
  /// wave retries; on success with a full base the state is reconstructed.
  void continue_init_fetch(std::shared_ptr<InitFetch> fetch, std::string key);
  void finish_init_restore(InitFetch& fetch);

  void trace_end(std::uint64_t span);
  /// The tail of every control-event handler: forward `ev` downstream if
  /// asked (sequential wiring), ack it, then close its span.
  void settle(const Event& ev, std::uint64_t span, bool forward);
  /// Move a held buffer back to the head of the queue, in order, and stamp
  /// each sampled event's release (a migration release for the FGM divert
  /// buffer).  Leaves `held` empty.
  template <typename Held>
  void release_to_front(Held& held, bool migration);
  /// Lazily resolve this instance's registry instruments (first processed
  /// event after a registry is attached); raw pointers keep the hot path
  /// allocation-free.
  void bind_metrics();

  /// The latency attributor iff `ev` carries the sampled taint; null
  /// otherwise, so every stamp site is one branch on the common path.
  [[nodiscard]] obs::LatencyAttributor* attributor_for(const Event& ev) const;
  /// Cached "task/replica" label for attribution hops.
  [[nodiscard]] const std::string& attr_label();

  /// Barrier alignment: true when all expected copies of this wave root
  /// have been consumed at this executor.
  bool aligned(const Event& ev, int expected);

  void apply_user_logic(const Event& ev);
  void restore_from_blob(CheckpointBlob&& blob);

  /// Key-range bucket `ev` belongs to: its key's partition for keyed tasks,
  /// the reserved bucket otherwise (non-keyed state mutates on every event).
  [[nodiscard]] int fgm_partition_of(const Event& ev) const;
  /// True when `ev` must wait out the in-flight batch transfer.
  [[nodiscard]] bool fgm_diverts(const Event& ev) const;
  /// A batch transfer failed: merge the extracted partition back into the
  /// local state and release the diverted tuples — nothing was moved.
  void fgm_abort_batch(const TaskState& part);

  Platform& platform_;
  InstanceId id_;
  InstanceRef ref_;
  SlotId slot_{};

  RingQueue<Event> queue_;
  bool busy_{false};
  LifeState life_{LifeState::Dead};
  bool awaiting_init_{false};
  /// Deliveries that arrived while Starting (buffered in the senders'
  /// transport clients until the worker connection comes up).
  RingQueue<Event> transport_buffer_;
  /// User events pended while awaiting INIT (Storm's StatefulBoltExecutor
  /// buffers pre-init tuples).
  RingQueue<Event> pend_until_init_;

  TaskState state_;
  /// Cached slots of the fixed keys apply_user_logic updates on every
  /// event ("key/<n>" varies per event and is probed).
  TaskState::Handle processed_slot_;
  TaskState::Handle sig_slot_;
  TaskState::Handle replayed_slot_;
  /// "v<logic_version_>" and its cached slot; set_logic_version resets
  /// both.
  std::string version_key_;
  TaskState::Handle version_slot_;
  std::optional<TaskState> prepared_state_;
  std::uint64_t prepared_checkpoint_{0};
  bool committed_this_wave_{false};
  /// Checkpoint id whose blob this incarnation has durably persisted (0 =
  /// none).  A retried COMMIT wave skips the re-PUT when it matches, so
  /// only the shards whose writes actually failed see retry traffic.
  std::uint64_t committed_checkpoint_{0};

  // CCR capture machinery.
  bool capturing_{false};
  std::vector<Event> pending_capture_;
  /// True while a *user* event is in its service-time callback; the kill
  /// path charges exactly one lost_at_kill for it (the callback itself then
  /// no-ops on the epoch guard), keeping the loss counters exclusive.
  bool user_in_flight_{false};

  // ---- incremental (delta) checkpoint chain ----
  /// Last durably persisted blob's checkpoint id — the base the next delta
  /// builds on.  0 = no valid base: the next blob is forced full (first
  /// wave, and after kill / restore / rollback).
  std::uint64_t delta_base_cid_{0};
  /// Deltas persisted since the last full blob (0 right after a full).
  int delta_chain_len_{0};
  /// COMMIT form decision for the current wave: valid while
  /// decided_cid_ == the wave's checkpoint id.  decided_base_ == 0 = full.
  std::uint64_t decided_cid_{0};
  std::uint64_t decided_base_{0};
  /// Capture-list length at the moment the durable blob for
  /// committed_checkpoint_ was serialised; a COMMIT retry whose capture
  /// list grew past this re-persists instead of skipping (the capture
  /// window fix — without it those events exist only in memory and die
  /// with the kill).
  std::size_t persisted_pending_count_{0};
  /// Blobs this incarnation persisted: cid → base cid (0 = full); the
  /// store key is CheckpointBlob::key(cid, task, replica).  Feeds
  /// compaction GC; reset at kill (pre-kill keys are leaked deliberately —
  /// see DESIGN.md).
  std::map<std::uint64_t, std::uint64_t> persisted_base_;

  // Barrier alignment: wave root → copies consumed so far.
  RootTable<int> align_count_;
  // INIT dedup: wave roots already acted on (forwarded / restored); the
  // value is unused.
  RootTable<std::uint8_t> seen_init_roots_;

  // ---- FGM fluid migration state ----
  bool fgm_active_{false};
  bool fgm_shadow_ready_{false};
  SlotId fgm_shadow_slot_{};
  /// Key-range partitions this migration moves; the moved bitmap has one
  /// extra trailing entry for the reserved (non-keyed) bucket, moved last.
  int fgm_partitions_{0};
  std::vector<bool> fgm_moved_;
  int fgm_in_flight_{-1};
  RingQueue<Event> fgm_buffer_;
  std::uint64_t fgm_batch_seq_{0};

  /// Bumped on kill/respawn so that in-flight scheduled callbacks from a
  /// previous incarnation become no-ops.
  std::uint64_t epoch_{0};

  int logic_version_{1};

  // Registry instruments (null until bind_metrics() resolves them).
  obs::Histogram* m_process_us_{nullptr};
  obs::Counter* m_processed_{nullptr};
  obs::Counter* m_emitted_{nullptr};
  obs::Gauge* m_queue_depth_{nullptr};

  /// Lazily-built "task/replica" label for attribution hops.
  std::string attr_label_;

  ExecutorStats stats_;
};

}  // namespace rill::dsps
