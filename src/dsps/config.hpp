// Platform configuration: the platform's timing model and its calibration.
// The key-value store's and the network's live beside their layers, in
// kvstore::StoreConfig and net::NetworkConfig.
//
// Values follow DESIGN.md §6 — paper-specified values where the paper
// gives them (100 ms service time, 8 ev/s sources, 30 s ack timeout and
// checkpoint interval, 1 s DCR/CCR INIT re-send, ≈7.26 s rebalance command)
// and fitted values for the JVM-worker start-up model.  A value some
// workload, bench or tool sets, or one a test needs to reach a case no other
// value reaches, is a field; every other calibration value is a
// `static constexpr` member, so the compiler rejects an assignment to it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.hpp"

namespace rill::dsps {

struct PlatformConfig {
  // ---- Workload ----
  /// Source emission rate, events per second.
  double source_rate = 8.0;

  // ---- Reliability ----
  /// Ack timeout for user events and for un-acked checkpoint waves.
  SimDuration ack_timeout = time::sec(30);
  /// Periodic checkpoint interval (DSM keeps this running; DCR/CCR do a
  /// just-in-time wave instead).  Runtime-retunable: the wave scheduler
  /// re-reads it on every arm (see CheckpointCoordinator::apply_interval).
  SimDuration checkpoint_interval = time::sec(30);
  /// When a chaos-crashed stateful worker respawns outside an INIT session
  /// and a committed checkpoint exists, start a recovery INIT session for
  /// it instead of resuming with fresh state.  Off by default: the
  /// pre-existing at-least-once behaviour (fresh state on lone respawns)
  /// is what the chaos suite pins down.
  bool respawn_restore = false;

  // ---- Fault handling / transactional migration ----
  /// Extra attempts the coordinator gives a failed PREPARE/COMMIT wave
  /// before broadcasting ROLLBACK.
  static constexpr int checkpoint_wave_retries = 2;
  /// Give-up deadline for a DCR/CCR restore INIT session; on expiry the
  /// strategy aborts the migration and re-pins the old placement.  0 keeps
  /// re-sending forever (DSM, and the abort path's recovery INIT).
  SimDuration init_deadline = time::sec(120);

  // ---- Checkpoint store tier ----
  /// Number of store VMs behind the consistent-hash ShardedStore facade.
  /// 1 (the default) reproduces the paper's single-Redis setup and keeps
  /// every seed byte-identical to the unsharded baseline; N > 1 spreads
  /// checkpoint traffic and enables COMMIT write coalescing and the INIT
  /// cross-shard prefetch.
  int kv_shards = 1;

  // ---- Incremental (delta) checkpointing ----
  /// When true, COMMIT persists a delta blob (changed/deleted keys on top
  /// of the last committed base) whenever a valid base exists; otherwise a
  /// full blob.  Off by default so the determinism baseline stays
  /// byte-identical to the pre-delta wire format.
  bool ckpt_delta = false;
  /// Fall back to a full blob when the serialised delta exceeds this
  /// fraction of the serialised full blob (a delta that is nearly as big
  /// as the state just lengthens the restore chain for nothing).
  double ckpt_delta_max_ratio = 0.5;
  /// Compaction: every Nth persisted blob per task instance is forced full
  /// and the superseded delta chain is garbage-collected, bounding restore
  /// chain length even under chaos-injected wave rollbacks.
  int ckpt_full_every = 8;

  // ---- Fluid (FGM) migration ----
  /// Key-range partitions an FGM migration moves one at a time.  Each batch
  /// covers ~key_cardinality / fgm_batch_keys distinct keys; the non-keyed
  /// counters ride in one extra reserved batch moved last.  Smaller batches
  /// mean shorter divert windows (lower per-tuple ripple) but more store
  /// round trips.  Only read by StrategyKind::FGM.
  int fgm_batch_keys = 8;

  /// Cap on deliveries a sender-side transport client buffers for a worker
  /// that is still Starting (Storm's netty client write buffer).  Overflow
  /// deliveries are dropped — counted in ExecutorStats::transport_overflow
  /// — and recovered by the acker's replay path.
  std::size_t max_transport_buffer = 1024;

  // ---- Control-plane latencies ----
  /// Platform-logic handling time for a control event at a task.
  static constexpr SimDuration control_handling = time::ms(2);
  /// DCR/CCR aggressive INIT re-send period (paper §3.1).
  SimDuration init_resend_period = time::sec(1);

  // ---- Rebalance / worker model ----
  /// Mean and stddev of Storm's rebalance command latency (paper: 7.26 s
  /// average, "relatively constant across dataflows, VM counts and
  /// strategies").
  static constexpr double rebalance_mean_sec = 7.26;
  static constexpr double rebalance_stddev_sec = 0.5;
  /// Delay between the rebalance request and the kill of migrating tasks.
  static constexpr SimDuration kill_delay = time::ms(200);
  /// A migrated worker becomes able to receive events U(min,max) after the
  /// rebalance command completes, plus a contention term per instance
  /// CO-LOCATED on the same target VM (JVM spin-up and code distribution
  /// compete for the host) — this is what makes scale-in (4 workers per
  /// D3) start up slower than scale-out (1 worker per D1), echoing the
  /// paper's Grid restore gap (92 s in vs 70 s out).
  static constexpr double worker_startup_min_sec = 28.0;
  static constexpr double worker_startup_max_sec = 34.0;
  static constexpr double worker_startup_per_colocated_sec = 2.0;
  /// Slow-start tail: each worker independently suffers an extra
  /// U(slow_min, slow_max) with this probability (JVM + code-distribution
  /// stragglers).  Larger migrations are more likely to contain a
  /// straggler and hence to miss a whole 30 s INIT wave under DSM —
  /// the paper's DAG-size-dependent restore jumps.
  static constexpr double worker_slow_start_prob = 0.05;
  static constexpr double worker_slow_start_min_sec = 4.0;
  static constexpr double worker_slow_start_max_sec = 10.0;

  // ---- Source behaviour ----
  /// While paused, the external stream keeps producing; on unpause the
  /// backlog is pumped into the dataflow at this rate (ev/s).
  double backlog_pump_rate = 40.0;
  /// Max unacked roots a spout keeps in flight when acking is on (Storm's
  /// max.spout.pending); bounds DSM's replay storms.
  std::size_t max_spout_pending = 40;
  /// Max events the paused external stream buffers before dropping (a
  /// sensor feed does not buffer unboundedly); bounds the post-unpause
  /// refill surge for DCR/CCR.
  static constexpr std::size_t max_source_backlog = 200;

  /// Distinct partition keys the synthetic sources cycle through (e.g.
  /// sensor ids); fields-grouped edges route by hash of these.
  std::uint64_t key_cardinality = 64;

  // ---- VM interference (noisy neighbours) ----
  /// Per-busy-colocated-neighbour service-time dilation, in per mille of
  /// the task's base service time: a user event served while `n` other
  /// instances on the same VM are busy takes
  ///   service · (1000 + vm_steal_permille · n) / 1000.
  /// This is what gives the paper's VM packing its capacity meaning — a
  /// consolidated D3 (4 slots) steals CPU under load where a dedicated D1
  /// does not — and is what the autoscale controller's scale-out relieves.
  /// `n` comes from a per-VM busy-executor count the executors keep as
  /// they start and finish events and change slot, so a tuple costs O(1)
  /// here however many executors the platform runs.  0 (default) disables
  /// the model entirely and keeps every baseline byte-identical.
  int vm_steal_permille = 0;

  /// Master seed; every component forks its own stream from this.
  std::uint64_t seed = 42;
};

}  // namespace rill::dsps
