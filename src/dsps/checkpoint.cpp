#include "dsps/checkpoint.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_set>
#include <utility>

#include "ckpt/recovery.hpp"
#include "dsps/platform.hpp"
#include "dsps/state.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace rill::dsps {

CheckpointCoordinator::CheckpointCoordinator(Platform& platform)
    : platform_(platform) {}

CheckpointCoordinator::~CheckpointCoordinator() {
  stop_periodic();
  // An INIT session may still be in flight at teardown: its resend and
  // deadline timers capture `this` and would fire into a destroyed
  // coordinator if the engine keeps running (tests tear platforms down
  // while the engine lives on).  Cancel both; a cleared TimerId is a no-op.
  platform_.engine().cancel(init_resend_timer_);
  platform_.engine().cancel(init_deadline_timer_);
}

void CheckpointCoordinator::start_periodic() {
  if (periodic_running_) return;
  periodic_running_ = true;
  arm_periodic();
}

void CheckpointCoordinator::stop_periodic() {
  if (!periodic_running_) return;
  periodic_running_ = false;
  platform_.engine().cancel(periodic_timer_);
}

bool CheckpointCoordinator::periodic_running() const noexcept {
  return periodic_running_;
}

void CheckpointCoordinator::arm_periodic() {
  // Re-read the interval on every arm: a config_mut() edit (or a policy
  // retune via apply_interval) takes effect on the next wave instead of
  // being latched at start_periodic() time.
  periodic_timer_ =
      platform_.engine().schedule(platform_.config().checkpoint_interval,
                                  [this] {
                                    if (!periodic_running_) return;
                                    // Re-arm first so a tick that calls
                                    // stop_periodic() cancels cleanly.
                                    arm_periodic();
                                    on_periodic_tick();
                                  });
}

void CheckpointCoordinator::apply_interval(SimDuration interval) {
  platform_.config_mut().checkpoint_interval = interval;
  if (!periodic_running_) return;
  platform_.engine().cancel(periodic_timer_);
  arm_periodic();
}

void CheckpointCoordinator::on_periodic_tick() {
  // Skip ticks while a wave, an init session or a rebalance is in flight —
  // Storm deactivates checkpointing while the topology is rebalancing.
  if (checkpoint_active_ || init_.active ||
      platform_.rebalancer().in_progress()) {
    return;
  }
  // A wave that includes a dead or INIT-awaiting worker cannot commit; it
  // would just hang until the ack timeout and block the scheduler for the
  // whole retry budget.  Defer to the next arm instead.
  for (const InstanceRef& ref : platform_.worker_and_sink_instances()) {
    const Executor& ex = platform_.executor(ref);
    if (ex.life() != LifeState::Running || ex.awaiting_init()) {
      ++stats_.waves_deferred;
      return;
    }
  }
  run_checkpoint(CheckpointMode::Wave, [](bool) {});
}

RootId CheckpointCoordinator::send_wave(ControlKind kind,
                                        std::uint64_t checkpoint_id,
                                        CheckpointMode wiring,
                                        AckerOnDone on_complete,
                                        AckerOnDone on_fail) {
  const RootId root = platform_.fresh_event_id();
  platform_.acker().register_root(root, std::move(on_complete),
                                  std::move(on_fail));

  Event base;
  base.root = root;
  base.control = kind;
  base.checkpoint_id = checkpoint_id;
  base.wiring = wiring;
  base.born_at = platform_.engine().now();
  base.payload_size = 32;

  auto send_copy = [&](InstanceRef dst) {
    Event copy = base;
    copy.id = platform_.fresh_event_id();
    copy.emitted_at = platform_.engine().now();
    platform_.acker().add(root, copy.id);
    platform_.send_control_from_coordinator(dst, copy);
  };

  // COMMIT sweeps in either wiring, so it lands behind every in-flight user
  // event; ROLLBACK must reach every instance, wherever its wave stopped.
  const bool broadcast =
      kind == ControlKind::Rollback ||
      (kind != ControlKind::Commit && wiring == CheckpointMode::Capture);
  if (broadcast) {
    // Hub-and-spoke: straight into every task instance's input queue.
    for (const InstanceRef& ref : platform_.worker_and_sink_instances()) {
      send_copy(ref);
    }
  } else {
    // Sequential wiring: inject at the entry tasks (one copy per source
    // in-edge per replica); executors sweep it downstream.
    const Topology& topo = platform_.topology();
    for (TaskId t : platform_.entry_tasks()) {
      int source_edges = 0;
      for (TaskId up : topo.upstream(t)) {
        if (topo.task(up).kind == TaskKind::Source) ++source_edges;
      }
      for (int r = 0; r < topo.task(t).parallelism; ++r) {
        for (int c = 0; c < source_edges; ++c) {
          send_copy(InstanceRef{t, r});
        }
      }
    }
  }

  // Self-ack the root entry now that all first-hop copies are anchored.
  platform_.acker().ack(root, root);
  return root;
}

void CheckpointCoordinator::run_checkpoint(CheckpointMode mode, Done done) {
  if (checkpoint_active_) {
    // A request made during a wave (a migration asking on a periodic tick)
    // waits for it instead of failing.  Only one request waits.
    if (!waiting_.has_value()) {
      waiting_ = Waiting{mode, std::move(done)};
    } else if (done) {
      done(false);
    }
    return;
  }
  checkpoint_active_ = true;
  wave_doomed_ = false;
  ++stats_.waves_started;
  wave_started_at_ = platform_.engine().now();
  const std::uint64_t cid = next_checkpoint_id_++;
  ckpt_span_ = obs::kNoSpan;
  if (auto* tr = platform_.tracer()) {
    ckpt_span_ = tr->begin(
        obs::kTrackCoordinator, "checkpoint", "checkpoint",
        {obs::arg("cid", cid),
         obs::arg("mode",
                  mode == CheckpointMode::Capture ? "capture" : "wave")});
  }
  start_phase(ControlKind::Prepare, mode, cid, 1,
              std::make_shared<Done>(std::move(done)));
}

void CheckpointCoordinator::on_worker_down() {
  if (!checkpoint_active_ || wave_doomed_) return;
  wave_doomed_ = true;
  ++stats_.waves_aborted_on_death;
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::kTrackCoordinator, "checkpoint", "wave_abort_on_death",
                {});
  }
  // Fires the phase's failure handler synchronously; wave_doomed_ makes it
  // abort (rollback + fresh wave at the next periodic arm) without retries.
  platform_.acker().fail(wave_root_);
}

void CheckpointCoordinator::end_checkpoint(std::uint64_t cid, bool committed,
                                           const std::shared_ptr<Done>& done) {
  checkpoint_active_ = false;
  wave_doomed_ = false;
  wave_root_ = 0;
  if (auto* tr = platform_.tracer()) {
    tr->end(ckpt_span_, {obs::arg("committed", committed)});
  }
  if (!committed) {
    ++stats_.waves_rolled_back;
    broadcast_rollback(cid);
  }
  // The waiting request starts before the ended one's done fires, so a
  // request made from that done waits behind it.
  if (auto next = std::exchange(waiting_, std::nullopt)) {
    run_checkpoint(next->mode, std::move(next->done));
  }
  if (*done) (*done)(committed);
}

void CheckpointCoordinator::note_commit_blob(bool delta, std::size_t bytes,
                                             int chain_len) {
  if (delta) {
    ++stats_.delta_blobs;
    stats_.delta_bytes += bytes;
  } else {
    ++stats_.full_blobs;
    stats_.full_bytes += bytes;
  }
  stats_.max_chain_len =
      std::max(stats_.max_chain_len, static_cast<std::uint64_t>(chain_len));
  if (auto* reg = platform_.metrics()) {
    reg->counter(delta ? "ckpt.delta_bytes" : "ckpt.full_bytes")
        ->add(static_cast<std::uint64_t>(bytes));
    reg->gauge("ckpt.chain_len")->set(static_cast<double>(chain_len));
  }
}

void CheckpointCoordinator::broadcast_rollback(std::uint64_t checkpoint_id) {
  // Best-effort rollback broadcast; completion is not tracked.
  ++stats_.rollbacks_broadcast;
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::kTrackCoordinator, "checkpoint", "rollback_broadcast",
                {obs::arg("cid", checkpoint_id)});
  }
  // ROLLBACK broadcasts in either wiring, and its handler reads none.
  send_wave(ControlKind::Rollback, checkpoint_id, CheckpointMode::Wave,
            [](RootId) {}, [](RootId) {});
}

void CheckpointCoordinator::start_phase(ControlKind kind, CheckpointMode mode,
                                        std::uint64_t cid, int attempt,
                                        std::shared_ptr<Done> done) {
  const bool prepare = kind == ControlKind::Prepare;
  std::uint64_t wave_span = obs::kNoSpan;
  if (auto* tr = platform_.tracer()) {
    wave_span = tr->begin(obs::kTrackCoordinator, "checkpoint",
                          prepare ? "prepare" : "commit",
                          {obs::arg("cid", cid), obs::arg("attempt", attempt)});
  }
  wave_root_ = send_wave(
      kind, cid, mode,
      [this, prepare, mode, cid, done, wave_span](RootId) {
        if (auto* tr = platform_.tracer()) {
          tr->end(wave_span, {obs::arg("ok", true)});
        }
        if (prepare) {
          // All tasks prepared: persist.
          start_phase(ControlKind::Commit, mode, cid, 1, done);
          return;
        }
        last_committed_ = cid;
        last_committed_wiring_ = mode;
        last_committed_at_ = platform_.engine().now();
        ++stats_.waves_committed;
        // Measured wave cost (PREPARE start → COMMIT cleared): the C term
        // of the adaptive policy's Young/Daly solve.
        const auto cost_us =
            static_cast<double>(last_committed_at_ - wave_started_at_);
        wave_cost_ewma_us_ = stats_.waves_committed == 1
                                 ? cost_us
                                 : 0.3 * cost_us + 0.7 * wave_cost_ewma_us_;
        end_checkpoint(cid, /*committed=*/true, done);
      },
      [this, kind, mode, cid, attempt, done, wave_span](RootId) {
        if (auto* tr = platform_.tracer()) {
          tr->end(wave_span, {obs::arg("ok", false)});
          tr->instant(obs::kTrackCoordinator, "checkpoint", "wave_timeout",
                      {obs::arg("cid", cid),
                       obs::arg("kind", std::string(to_string(kind))),
                       obs::arg("attempt", attempt)});
        }
        // A wave timed out (dropped copy, dead task, store outage).  Retry
        // the same wave id: each retry is a fresh wave root, so executors
        // re-align from scratch and re-snapshot (or re-persist)
        // idempotently.  A doomed wave (participant died under it) skips
        // the retries — no retry can commit once a prepared snapshot died
        // with its process.
        if (!wave_doomed_ &&
            attempt <= PlatformConfig::checkpoint_wave_retries) {
          ++stats_.wave_retries;
          start_phase(kind, mode, cid, attempt + 1, done);
          return;
        }
        end_checkpoint(cid, /*committed=*/false, done);
      });
}

void CheckpointCoordinator::run_init(std::uint64_t checkpoint_id,
                                     CheckpointMode mode,
                                     SimDuration resend_period, Done done,
                                     SimDuration deadline) {
  assert(!init_.active && "init session already running");
  init_.checkpoint_id = checkpoint_id;
  init_.mode = mode;
  init_.resend_period = resend_period;
  init_.done = std::move(done);
  init_.outstanding.clear();
  init_.active = true;
  first_init_received_.reset();
  init_completed_at_.reset();
  last_init_attempt_at_.reset();

  init_span_ = obs::kNoSpan;
  if (auto* tr = platform_.tracer()) {
    init_span_ = tr->begin(
        obs::kTrackCoordinator, "checkpoint", "init",
        {obs::arg("cid", checkpoint_id),
         obs::arg("resend_sec", time::to_sec(resend_period))});
  }
  if (auto* rec = platform_.recovery()) {
    rec->on_init_start(platform_.engine().now());
  }

  if (deadline > 0) {
    init_deadline_timer_ =
        platform_.engine().schedule(deadline, [this] {
          if (init_.active) end_init_session(std::nullopt);
        });
  }

  start_init_prefetch();
  send_init_attempt();

  // Aggressive re-send (DCR/CCR, paper: every 1 s); DSM (period 0)
  // re-sends only on wave failure.
  if (resend_period > 0) arm_init_resend();
}

void CheckpointCoordinator::arm_init_resend() {
  if (!init_.active) return;
  init_resend_timer_ =
      platform_.engine().schedule(init_.resend_period, [this] {
        if (!init_.active) return;
        send_init_attempt();
        arm_init_resend();
      });
}

const std::optional<Bytes>* CheckpointCoordinator::prefetched(
    const std::string& key) const {
  if (!init_.active || !prefetch_ready_) return nullptr;
  auto it = prefetch_.find(key);
  return it == prefetch_.end() ? nullptr : &it->second;
}

void CheckpointCoordinator::clear_init_prefetch() {
  prefetch_.clear();
  prefetch_ready_ = false;
}

void CheckpointCoordinator::start_init_prefetch() {
  ++init_generation_;
  clear_init_prefetch();
  if (platform_.store().shards() <= 1) return;  // nothing to overlap

  std::vector<std::string> keys;
  std::vector<InstanceRef> refs;
  for (const InstanceRef& ref : platform_.worker_and_sink_instances()) {
    keys.push_back(
        CheckpointBlob::key(init_.checkpoint_id, ref.task, ref.replica));
    refs.push_back(ref);
  }
  prefetch_round(init_generation_, std::move(keys), std::move(refs),
                 /*round=*/1);
}

void CheckpointCoordinator::prefetch_round(std::uint64_t generation,
                                           std::vector<std::string> keys,
                                           std::vector<InstanceRef> refs,
                                           int round) {
  // lint: lifetime-ok(the reply arrives through the pinned Store's own
  // callbacks, and the Platform that owns the Store owns this coordinator)
  platform_.store().get_batch(
      platform_.io_vm(), keys,
      [this, generation, keys, refs = std::move(refs),
       round](bool ok, std::vector<std::optional<Bytes>> values) {
        // A stale reply (session ended, a newer one started, or a rollback
        // invalidated the cache) or a failed shard read leaves the cache
        // unset; executors fall back to their own GETs, so the prefetch is
        // purely an optimisation.
        if (generation != init_generation_ || !init_.active || !ok) return;
        // Deltas reference base blobs; collect the bases this round's
        // answers point at that the cache doesn't hold yet.
        std::vector<std::string> next_keys;
        std::vector<InstanceRef> next_refs;
        std::unordered_set<std::string> queued;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (values[i].has_value()) {
            if (const auto base = CheckpointBlob::delta_base_of(*values[i])) {
              const std::string base_key = CheckpointBlob::key(
                  *base, refs[i].task, refs[i].replica);
              if (!prefetch_.contains(base_key) &&
                  base_key != keys[i] && queued.insert(base_key).second) {
                next_keys.push_back(base_key);
                next_refs.push_back(refs[i]);
              }
            }
          }
          prefetch_.emplace(keys[i], std::move(values[i]));
        }
        // Bound the walk: chains are compacted to < ckpt_full_every links,
        // so a deep recursion means a corrupt store — let executors fail
        // individually instead of spinning here.
        if (next_keys.empty() || round >= 64) {
          finish_init_prefetch(prefetch_.size());
          return;
        }
        prefetch_round(generation, std::move(next_keys), std::move(next_refs),
                       round + 1);
      });
}

void CheckpointCoordinator::finish_init_prefetch(std::size_t blobs) {
  prefetch_ready_ = true;
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::kTrackCoordinator, "checkpoint", "init_prefetch",
                {obs::arg("cid", init_.checkpoint_id),
                 obs::arg("blobs", static_cast<std::uint64_t>(blobs))});
  }
}

void CheckpointCoordinator::end_init_session(std::optional<RootId> completed) {
  const bool ok = completed.has_value();
  init_.active = false;
  clear_init_prefetch();
  // Either timer may have fired.  On the deadline path this runs inside the
  // deadline's own callback, whose id the engine already retired.
  platform_.engine().cancel(init_resend_timer_);
  platform_.engine().cancel(init_deadline_timer_);
  for (RootId r : init_.outstanding) {
    if (r != completed) platform_.acker().forget(r);
  }
  init_.outstanding.clear();
  if (ok) {
    ++stats_.init_completions;
    init_completed_at_ = platform_.engine().now();
  } else {
    ++stats_.init_sessions_failed;
  }
  if (auto* tr = platform_.tracer()) {
    tr->end(init_span_, {obs::arg("ok", ok)});
  }
  if (auto* rec = platform_.recovery()) {
    rec->on_init_complete(platform_.engine().now(), ok);
  }
  Done done = std::move(init_.done);
  if (done) done(ok);
}

void CheckpointCoordinator::send_init_attempt() {
  ++stats_.init_attempts;
  last_init_attempt_at_ = platform_.engine().now();
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::kTrackCoordinator, "checkpoint", "init_attempt",
                {obs::arg("cid", init_.checkpoint_id),
                 obs::arg("attempt", stats_.init_attempts)});
  }
  const RootId root = send_wave(
      ControlKind::Init, init_.checkpoint_id, init_.mode,
      [this](RootId completed) {
        if (init_.active) end_init_session(completed);
      },
      [this](RootId) {
        // A wave timed out (some worker dropped its INIT copy).  DSM
        // (resend_period == 0) re-sends only now — producing the ≈30 s
        // restore jumps; DCR/CCR already re-send on the 1 s timer.
        if (!init_.active) return;
        if (init_.resend_period == 0) send_init_attempt();
      });
  init_.outstanding.push_back(root);
}

void CheckpointCoordinator::note_init_received(SimTime t) {
  if (init_.active && !first_init_received_.has_value()) {
    first_init_received_ = t;
  }
}

}  // namespace rill::dsps
