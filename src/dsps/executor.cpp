#include "dsps/executor.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "ckpt/recovery.hpp"
#include "dsps/platform.hpp"
#include "obs/attribution.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace rill::dsps {

namespace {

/// splitmix64 finalizer — order-independent signature hashing for the
/// user-logic state so tests can compare "same multiset of events
/// processed" across migrations.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Room for a short state-key prefix plus any 64-bit integer in decimal.
using KeyBuf = std::array<char, 32>;

/// `prefix` followed by `n` in decimal — the text of
/// prefix + std::to_string(n) — formatted into `buf` without allocating.
template <typename Int>
std::string_view numbered_key(KeyBuf& buf, std::string_view prefix, Int n) {
  char* end = std::copy(prefix.begin(), prefix.end(), buf.data());
  end = std::to_chars(end, buf.data() + buf.size(), n).ptr;
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

/// The per-version counter the user logic bumps: "v<version>".
std::string version_key(int version) {
  KeyBuf buf;
  return std::string(numbered_key(buf, "v", version));
}

}  // namespace

Executor::Executor(Platform& platform, InstanceId id, InstanceRef ref)
    : platform_(platform), id_(id), ref_(ref) {
  version_key_ = version_key(logic_version_);
}

void Executor::bind_slot(SlotId slot) {
  if (busy_) {
    platform_.cluster().add_busy(slot_, -1);
    platform_.cluster().add_busy(slot, +1);
  }
  slot_ = slot;
}

void Executor::set_busy(bool busy) {
  if (busy == busy_) return;
  busy_ = busy;
  platform_.cluster().add_busy(slot_, busy ? +1 : -1);
}

void Executor::set_logic_version(int v) {
  logic_version_ = v;
  version_key_ = version_key(v);
  version_slot_ = {};
}

void Executor::trace_end(std::uint64_t span) {
  if (auto* tr = platform_.tracer()) tr->end(span);
}

void Executor::settle(const Event& ev, std::uint64_t span, bool forward) {
  if (forward) platform_.forward_control(*this, ev);
  platform_.acker().ack(ev.root, ev.id);
  trace_end(span);
}

template <typename Held>
void Executor::release_to_front(Held& held, bool migration) {
  const SimTime now = platform_.engine().now();
  for (std::size_t i = held.size(); i-- > 0;) {
    const Event& ev = held[i];
    if (auto* at = attributor_for(ev)) {
      if (migration) {
        at->on_migration_release(ev.id, now);
      } else {
        at->on_release(ev.id, now);
      }
    }
    queue_.push_front(ev);
  }
  held.clear();
}

void Executor::bind_metrics() {
  auto* reg = platform_.metrics();
  if (reg == nullptr || m_processed_ != nullptr) return;
  const std::string& task = platform_.topology().task(ref_.task).name;
  m_process_us_ =
      reg->histogram(obs::names::task_metric(task, ref_.replica, "process_us"));
  m_processed_ =
      reg->counter(obs::names::task_metric(task, ref_.replica, "processed"));
  m_emitted_ =
      reg->counter(obs::names::task_metric(task, ref_.replica, "emitted"));
  m_queue_depth_ =
      reg->gauge(obs::names::task_metric(task, ref_.replica, "queue_depth"));
}

obs::LatencyAttributor* Executor::attributor_for(const Event& ev) const {
  return ev.sampled ? platform_.attributor() : nullptr;
}

const std::string& Executor::attr_label() {
  if (attr_label_.empty()) {
    attr_label_ = obs::names::task_label(
        platform_.topology().task(ref_.task).name, ref_.replica);
  }
  return attr_label_;
}

void Executor::kill() {
  ++epoch_;
  life_ = LifeState::Dead;
  set_busy(false);
  awaiting_init_ = false;
  if (user_in_flight_) {
    // The delivery being serviced dies with the worker.  Charged here (not
    // in the orphaned service callback) so the ledger closes even when the
    // simulation ends before that callback's scheduled time.  Kept apart
    // from lost_at_kill, which feeds the rebalancer's lost_in_queues trace
    // arg and only ever meant *queued* events.
    ++stats_.lost_mid_service;
    user_in_flight_ = false;
  }
  for (const Event& ev : transport_buffer_) {
    if (!ev.is_control()) ++stats_.lost_at_kill;
    platform_.note_lost(ev);
  }
  transport_buffer_.clear();
  for (const Event& ev : queue_) {
    if (!ev.is_control()) {
      ++stats_.lost_at_kill;
    }
    platform_.note_lost(ev);
  }
  queue_.clear();
  for (const Event& ev : pend_until_init_) {
    ++stats_.lost_at_kill;
    platform_.note_lost(ev);
  }
  pend_until_init_.clear();
  for (const Event& ev : fgm_buffer_) {
    ++stats_.lost_at_kill;
    platform_.note_lost(ev);
  }
  fgm_buffer_.clear();
  if (fgm_active_) {
    // The shadow slot is this executor's private booking (the rebalancer
    // and chaos injector only know about slot()); free it here or the
    // target VM leaks a phantom occupant.
    platform_.cluster().vacate(fgm_shadow_slot_);
    fgm_active_ = false;
    fgm_shadow_ready_ = false;
    fgm_partitions_ = 0;
    fgm_moved_.clear();
    fgm_in_flight_ = -1;
  }
  state_ = TaskState{};
  prepared_state_.reset();
  prepared_checkpoint_ = 0;
  committed_this_wave_ = false;
  capturing_ = false;
  // Captured events that made it into the durable blob are handed off to
  // the store (they come back via INIT replay); any tail the commit never
  // persisted dies with the worker.
  const std::size_t durable =
      committed_checkpoint_ != 0
          ? std::min(pending_capture_.size(), persisted_pending_count_)
          : 0;
  committed_checkpoint_ = 0;
  stats_.capture_handoff += durable;
  stats_.lost_at_kill += pending_capture_.size() - durable;
  pending_capture_.clear();
  align_count_ = {};
  seen_init_roots_ = {};
  reset_delta_chain();
  persisted_base_.clear();
  persisted_pending_count_ = 0;
  // Last, with this executor fully torn down: a PREPARE/COMMIT wave that
  // counted on this process can never commit — let the coordinator abort
  // it now instead of burning the ack-timeout retry budget.
  platform_.coordinator().on_worker_down();
}

std::vector<Event> Executor::drain_unprocessed_for_requeue() {
  std::vector<Event> out;
  const auto take = [&out](RingQueue<Event>& q) {
    RingQueue<Event> keep;
    for (const Event& ev : q) {
      if (ev.is_control()) {
        // Control events stay behind: their wave or INIT session dies with
        // this process and the coordinator re-sends as needed.
        keep.push_back(ev);
      } else {
        out.push_back(ev);
      }
    }
    q = std::move(keep);
  };
  take(transport_buffer_);
  take(queue_);
  take(pend_until_init_);
  return out;
}

void Executor::requeue(std::vector<Event> events) {
  for (const Event& ev : events) queue_.push_back(ev);
  // No-op while Starting; set_ready()/restore will pump the queue once the
  // respawned worker is accepting work again.
  pump();
}

std::uint64_t Executor::buffered_user_events() const noexcept {
  std::uint64_t n =
      pending_capture_.size() + pend_until_init_.size() + fgm_buffer_.size();
  for (const Event& ev : queue_) {
    if (!ev.is_control()) ++n;
  }
  for (const Event& ev : transport_buffer_) {
    if (!ev.is_control()) ++n;
  }
  if (user_in_flight_) ++n;
  return n;
}

void Executor::respawn(SlotId new_slot) {
  ++epoch_;
  bind_slot(new_slot);
  life_ = LifeState::Starting;
}

void Executor::set_ready(bool awaiting_init) {
  life_ = LifeState::Running;
  awaiting_init_ = awaiting_init;
  // Recovery-window edge: this worker is back up (the tracker ignores the
  // call when no failure window is open, e.g. at initial deploy).
  if (auto* rec = platform_.recovery()) {
    rec->on_worker_ready(platform_.engine().now(), awaiting_init);
  }
  // Senders' transport clients flush once the worker connection is up.
  while (!transport_buffer_.empty()) {
    const Event& ev = transport_buffer_.front();
    if (auto* at = attributor_for(ev))
      at->on_release(ev.id, platform_.engine().now());
    queue_.push_back(ev);
    transport_buffer_.pop_front();
  }
  pump();
}

void Executor::enqueue(Event ev) {
  if (!ev.is_control()) ++stats_.delivered;
  switch (life_) {
    case LifeState::Dead:
      if (ev.is_control()) {
        ++stats_.lost_control_enqueue;
      } else {
        ++stats_.lost_enqueue;
      }
      platform_.note_lost(ev);
      return;
    case LifeState::Starting:
      if (ev.is_control()) {
        // Checkpoint-stream events need a live, subscribed task; a worker
        // that is still launching cannot consume them — the wave times out
        // and the coordinator re-sends (paper §5.1: "INIT events timeout
        // without acking due to the tasks not being active yet").
        ++stats_.lost_control_enqueue;
        platform_.note_lost(ev);
        return;
      }
      if (transport_buffer_.size() >= platform_.config().max_transport_buffer) {
        // The sender's netty client write buffer is full: the delivery is
        // dropped on the floor.  With acking on, the root stays unacked and
        // the spout replays it after ack_timeout.
        ++stats_.transport_overflow;
        platform_.note_lost(ev);
        return;
      }
      if (auto* at = attributor_for(ev))
        at->on_enqueue(ev.id, platform_.engine().now());
      transport_buffer_.push_back(ev);
      return;
    case LifeState::Running:
      if (auto* at = attributor_for(ev))
        at->on_enqueue(ev.id, platform_.engine().now());
      queue_.push_back(ev);
      if (platform_.metrics() != nullptr) {
        bind_metrics();
        m_queue_depth_->set(static_cast<double>(queue_.size()));
      }
      pump();
      return;
  }
}

void Executor::pump() {
  // Instant branches (capture / pend) loop; timed branches schedule and
  // return, re-entering pump() on completion.
  while (ready() && !busy_ && !queue_.empty()) {
    const Event ev = queue_.front();
    queue_.pop_front();

    if (ev.is_control()) {
      set_busy(true);
      const std::uint64_t epoch = epoch_;
      platform_.engine().schedule_detached(
          PlatformConfig::control_handling, [this, ev, epoch] {
            if (epoch != epoch_) return;
            set_busy(false);
            std::uint64_t span = obs::kNoSpan;
            if (auto* tr = platform_.tracer()) {
              span = tr->begin(obs::instance_track(id_.value), "task",
                               std::string(to_string(ev.control)),
                               {obs::arg("cid", ev.checkpoint_id)});
            }
            handle_control(ev, span);
            pump();
          });
      return;
    }

    if (fgm_in_flight_ >= 0 && fgm_diverts(ev)) {
      // FGM: this tuple's key range is mid-transfer — hold it until the
      // batch commits (or aborts) so the moving partition stays quiescent.
      ++stats_.fgm_diverted;
      fgm_buffer_.push_back(ev);
      continue;
    }

    if (capturing_) {
      // CCR: snapshot the in-flight event instead of processing it.
      ++stats_.captured;
      if (committed_this_wave_) ++stats_.post_commit_arrivals;
      pending_capture_.push_back(ev);
      continue;
    }

    if (awaiting_init_) {
      // Storm's StatefulBoltExecutor pends pre-init tuples.
      pend_until_init_.push_back(ev);
      continue;
    }

    set_busy(true);
    user_in_flight_ = true;
    if (auto* at = attributor_for(ev))
      at->on_service_start(ev.id, platform_.engine().now(), attr_label());
    const std::uint64_t epoch = epoch_;
    // Noisy-neighbour dilation: busy colocated instances on this VM steal
    // CPU (no-op at the default knob, where this is the base service time).
    const SimDuration service = platform_.user_service_time(*this);
    platform_.engine().schedule_detached(service, [this, ev, epoch] {
      if (epoch != epoch_) {
        // Killed mid-processing: the event is lost with the worker.  The
        // kill already charged lost_mid_service for it (and must not be
        // charged again here — the same delivery would count twice).
        platform_.note_lost(ev);
        return;
      }
      user_in_flight_ = false;
      finish_user_event(ev);
      set_busy(false);
      pump();
    });
    return;
  }
}

void Executor::apply_user_logic(const Event& ev) {
  state_.at(processed_slot_, "processed") += 1;
  state_.at(sig_slot_, "sig") ^= static_cast<std::int64_t>(mix64(ev.id));
  if (ev.replayed) state_.at(replayed_slot_, "replayed_seen") += 1;
  if (platform_.topology().task(ref_.task).keyed_state) {
    KeyBuf buf;
    state_[numbered_key(buf, "key/", ev.key)] += 1;
  }
  state_.at(version_slot_, version_key_) += 1;
}

void Executor::finish_user_event(const Event& ev) {
  apply_user_logic(ev);
  ++stats_.processed;

  const std::uint64_t emitted_before = stats_.emitted;
  const TaskDef& def = platform_.topology().task(ref_.task);
  if (def.kind == TaskKind::Sink) {
    const SimTime now = platform_.engine().now();
    platform_.listener().on_sink_arrival(ev, now);
    if (auto* tr = platform_.tracer()) tr->note_sink_arrival(now);
    if (auto* at = attributor_for(ev)) at->on_sink(ev.id, now);
  } else {
    stats_.emitted +=
        static_cast<std::uint64_t>(platform_.emit_user_children(*this, ev));
    // Children (if any) each carried the path forward via fork(); the
    // parent's ledger entry is done either way.
    if (auto* at = attributor_for(ev)) at->retire(ev.id);
  }
  if (platform_.metrics() != nullptr) {
    bind_metrics();
    // Upstream emit → processing complete: network + queue wait + service.
    m_process_us_->record(platform_.engine().now() - ev.emitted_at);
    m_processed_->add();
    m_emitted_->add(stats_.emitted - emitted_before);
  }
  if (platform_.user_acking()) {
    platform_.acker().ack(ev.root, ev.id);
  }
}

bool Executor::aligned(const Event& ev, int expected) {
  int* count = align_count_.find(ev.root);
  if (count == nullptr) count = &align_count_.insert_or_assign(ev.root, 0);
  if (++*count < expected) return false;
  align_count_.erase(count);
  return true;
}

void Executor::handle_control(const Event& ev, std::uint64_t span) {
  switch (ev.control) {
    case ControlKind::Prepare: on_prepare(ev, span); break;
    case ControlKind::Commit: on_commit(ev, span); break;
    case ControlKind::Rollback: on_rollback(ev, span); break;
    case ControlKind::Init:
      platform_.coordinator().note_init_received(platform_.engine().now());
      on_init(ev, span);
      break;
    case ControlKind::None: assert(false && "user event in handle_control"); break;
  }
}

void Executor::snapshot_for_prepare(std::uint64_t cid) {
  // Dirty-set custody: the snapshot takes over every change recorded since
  // the last blob that persisted them, and the live state restarts
  // recording for the *next* wave.  If the previous snapshot was never
  // durably persisted (its wave failed or this is a re-PREPARE of the same
  // wave), its recorded changes must flow back first, or a later delta
  // would silently drop them.
  if (prepared_state_.has_value() &&
      committed_checkpoint_ != prepared_checkpoint_) {
    state_.merge_dirty_from(*prepared_state_);
  }
  if (!prepared_state_.has_value()) prepared_state_.emplace();
  state_.hand_over_snapshot(*prepared_state_);
  prepared_checkpoint_ = cid;
}

void Executor::on_prepare(const Event& ev, std::uint64_t span) {
  if (ev.wiring == CheckpointMode::Capture) {
    // Broadcast copy (fan-in 1): snapshot state now — everything that was
    // ahead of PREPARE in the queue has been processed — and start
    // capturing later arrivals.
    snapshot_for_prepare(ev.checkpoint_id);
    capturing_ = true;
    committed_this_wave_ = false;
    settle(ev, span, /*forward=*/false);
    return;
  }
  // Sequential wave: PREPARE is a rearguard.  Align across all upstream
  // instances; forward only once aligned.
  if (!aligned(ev, platform_.control_fanin(ref_.task))) {
    settle(ev, span, /*forward=*/false);
    return;
  }
  snapshot_for_prepare(ev.checkpoint_id);
  settle(ev, span, /*forward=*/true);
}

void Executor::reset_delta_chain() {
  delta_base_cid_ = 0;
  delta_chain_len_ = 0;
  decided_cid_ = 0;
  decided_base_ = 0;
}

void Executor::decide_commit_form(std::uint64_t cid) {
  if (decided_cid_ == cid) return;  // COMMIT retry keeps the first choice
  decided_cid_ = cid;
  decided_base_ = 0;
  const PlatformConfig& cfg = platform_.config();
  if (!cfg.ckpt_delta || delta_base_cid_ == 0) return;
  // Compaction: every ckpt_full_every-th blob per instance is forced full,
  // bounding the restore chain.
  if (cfg.ckpt_full_every > 0 && delta_chain_len_ + 1 >= cfg.ckpt_full_every) {
    return;
  }
  // Size guard, on sizes computed from the snapshot without encoding it.
  const TaskState& snap = prepared_state_.has_value() ? *prepared_state_
                                                      : state_;
  if (!CheckpointBlob::delta_within_ratio(snap, cfg.ckpt_delta_max_ratio)) {
    return;
  }
  decided_base_ = delta_base_cid_;
}

void Executor::note_persisted(std::uint64_t cid, std::size_t bytes) {
  const bool was_delta = decided_base_ != 0;
  committed_checkpoint_ = cid;
  persisted_base_[cid] = decided_base_;
  delta_chain_len_ = was_delta ? delta_chain_len_ + 1 : 0;
  delta_base_cid_ = cid;
  platform_.coordinator().note_commit_blob(was_delta, bytes, delta_chain_len_);
  if (platform_.config().ckpt_delta) {
    if (auto* tr = platform_.tracer()) {
      tr->instant(obs::instance_track(id_.value), "task", "commit_blob",
                  {obs::arg("cid", cid),
                   obs::arg("form", was_delta ? "delta" : "full"),
                   obs::arg("bytes", static_cast<std::uint64_t>(bytes)),
                   obs::arg("chain",
                            static_cast<std::uint64_t>(delta_chain_len_))});
    }
    gc_superseded_blobs();
  }
}

void Executor::gc_superseded_blobs() {
  // Blobs older than the last *globally* committed wave that are not on
  // the chain serving it can never be read again — neither by a restore
  // (which targets last_committed) nor by a rollback (which re-reads the
  // same).  The current wave's blob is durable but not yet global, so it
  // and the chain under it must survive.
  const std::uint64_t committed = platform_.coordinator().last_committed();
  if (committed == 0) return;
  std::set<std::uint64_t> live;
  std::uint64_t cur = committed;
  while (cur != 0 && live.insert(cur).second) {
    auto it = persisted_base_.find(cur);
    cur = it == persisted_base_.end() ? 0 : it->second;
  }
  // Everything we persisted *after* the committed wave is also still live
  // (the in-flight wave and its chain links back to `committed`).
  std::vector<std::string> doomed;
  for (auto it = persisted_base_.begin(); it != persisted_base_.end();) {
    if (it->first < committed && !live.contains(it->first)) {
      doomed.push_back(
          CheckpointBlob::key(it->first, ref_.task, ref_.replica));
      it = persisted_base_.erase(it);
    } else {
      ++it;
    }
  }
  if (doomed.empty()) return;
  platform_.coordinator().note_gc(doomed.size());
  platform_.store().del_batch(platform_.cluster().vm_of(slot_),
                              std::move(doomed), [](bool) {
                                // Best-effort: a failed delete just leaves
                                // an unreferenced blob behind.
                              });
}

void Executor::persist_commit_blob(const Event& ev, std::uint64_t span) {
  const bool capture_mode = ev.wiring == CheckpointMode::Capture;
  decide_commit_form(ev.checkpoint_id);

  const TaskState& snap = prepared_state_.has_value() ? *prepared_state_
                                                      : state_;
  std::span<const Event> pending;
  if (capture_mode) pending = pending_capture_;
  const std::size_t pending_at_serialize = pending_capture_.size();
  Bytes raw = decided_base_ != 0
                  ? CheckpointBlob::encode_delta(ev.checkpoint_id,
                                                 decided_base_, snap, pending)
                  : CheckpointBlob::encode_full(ev.checkpoint_id, snap,
                                                pending);
  const std::size_t bytes = raw.size();

  const std::uint64_t epoch = epoch_;
  platform_.store().put_pipelined(
      platform_.cluster().vm_of(slot_),
      CheckpointBlob::key(ev.checkpoint_id, ref_.task, ref_.replica),
      std::move(raw),
      [this, ev, epoch, span, bytes, pending_at_serialize,
       capture_mode](bool ok) {
        if (epoch != epoch_ || !ok) {
          // Killed while persisting, or store unreachable: withhold the ack
          // so the wave times out and the coordinator retries or aborts.
          trace_end(span);
          return;
        }
        if (prepared_checkpoint_ != ev.checkpoint_id) {
          // A ROLLBACK landed while the write was in flight; the wave is
          // abandoned and the blob will be superseded.  Don't advance the
          // chain or ack a forgotten root.
          trace_end(span);
          return;
        }
        // Only a *persisted* snapshot counts as committed — a retried
        // COMMIT wave must re-snapshot, not trip the post-commit counter.
        if (committed_checkpoint_ != ev.checkpoint_id) {
          note_persisted(ev.checkpoint_id, bytes);
        }
        persisted_pending_count_ = pending_at_serialize;
        if (capture_mode && capturing_ &&
            pending_capture_.size() != pending_at_serialize) {
          // The capture window: events delivered while the PUT was in
          // flight exist only in this list — if the worker is killed now,
          // the durable blob misses them.  Re-persist (same form, same
          // base, refreshed pending) before acking the wave.
          persist_commit_blob(ev, span);
          return;
        }
        committed_this_wave_ = true;
        settle(ev, span, /*forward=*/true);
      });
}

void Executor::on_commit(const Event& ev, std::uint64_t span) {
  // COMMIT always sweeps the dataflow wiring, in both modes.
  if (!aligned(ev, platform_.control_fanin(ref_.task))) {
    settle(ev, span, /*forward=*/false);
    return;
  }
  const TaskDef& def = platform_.topology().task(ref_.task);
  const bool capture_mode = ev.wiring == CheckpointMode::Capture;

  if (!def.stateful && (!capture_mode || pending_capture_.empty())) {
    committed_this_wave_ = true;
    settle(ev, span, /*forward=*/true);
    return;
  }

  if (committed_checkpoint_ == ev.checkpoint_id &&
      (!capture_mode ||
       pending_capture_.size() == persisted_pending_count_)) {
    // This incarnation already persisted this checkpoint's blob on an
    // earlier COMMIT attempt (the wave failed elsewhere — e.g. one shard's
    // outage).  The prepared snapshot is frozen and sources are quiesced,
    // so the durable blob is still exact: forward and ack without
    // re-writing, leaving retry traffic to the tasks whose writes failed.
    // Capture mode re-persists instead when the capture list grew past the
    // durable copy — skipping would strand those events in memory.
    committed_this_wave_ = true;
    settle(ev, span, /*forward=*/true);
    return;
  }

  persist_commit_blob(ev, span);
}

void Executor::on_rollback(const Event& ev, std::uint64_t span) {
  if (prepared_state_.has_value()) {
    // The snapshot's recorded changes were never (usably) persisted; fold
    // them back so the next wave's blob still covers them.
    state_.merge_dirty_from(*prepared_state_);
  }
  prepared_state_.reset();
  prepared_checkpoint_ = 0;
  committed_this_wave_ = false;
  committed_checkpoint_ = 0;
  // A rolled-back wave may have left a durable blob that will never become
  // the committed base; forget the chain so the next blob is forced full.
  reset_delta_chain();
  if (capturing_) {
    // Re-inject captured events at the head of the queue so processing
    // resumes exactly where capture froze it.
    capturing_ = false;
    release_to_front(pending_capture_, /*migration=*/false);
  }
  settle(ev, span, /*forward=*/false);
}

void Executor::on_init(const Event& ev, std::uint64_t span) {
  const bool capture_mode = ev.wiring == CheckpointMode::Capture;

  if (seen_init_roots_.contains(ev.root)) {
    // Another copy of a wave root we already handled (multi-input tasks in
    // sequential wiring).  Just ack.
    ++stats_.duplicate_inits;
    settle(ev, span, /*forward=*/false);
    return;
  }
  seen_init_roots_.insert_or_assign(ev.root, std::uint8_t{1});

  if (awaiting_init_) {
    // Respawned worker: state (and CCR pending events) come from the store
    // — possibly as a delta chain that continue_init_fetch walks down to
    // its full base.
    auto fetch = std::make_shared<InitFetch>();
    fetch->ev = ev;
    fetch->span = span;
    continue_init_fetch(
        std::move(fetch),
        CheckpointBlob::key(ev.checkpoint_id, ref_.task, ref_.replica));
    return;
  }

  if (capturing_) {
    // Never-killed instance (e.g. the pinned sink) resuming from its
    // in-memory capture: no store round-trip needed.
    capturing_ = false;
    committed_this_wave_ = false;
    ++stats_.init_restores;
    release_to_front(pending_capture_, /*migration=*/false);
    settle(ev, span, /*forward=*/!capture_mode);
    return;
  }

  // Already initialised (or nothing to restore): forward so downstream
  // stragglers still receive this wave, then ack.
  ++stats_.duplicate_inits;
  settle(ev, span, /*forward=*/!capture_mode);
}

void Executor::continue_init_fetch(std::shared_ptr<InitFetch> fetch,
                                   std::string key) {
  const Event ev = fetch->ev;
  const std::uint64_t span = fetch->span;

  // Shared continuation for a fetched (or known-missing) blob value.
  auto consume = [this, fetch](const std::optional<Bytes>& raw) {
    const Event& ev2 = fetch->ev;
    if (!raw.has_value()) {
      if (fetch->chain.empty()) {
        // Nothing committed for this instance: restore empty state.
        finish_init_restore(*fetch);
        return;
      }
      // A delta references a base the store no longer holds (e.g. the
      // aborted placement's chain was superseded).  Fail this wave so a
      // later INIT retries against a consistent chain.
      seen_init_roots_.erase(ev2.root);
      trace_end(fetch->span);
      return;
    }
    CheckpointBlob blob = CheckpointBlob::deserialize(*raw);
    const bool is_delta = blob.is_delta();
    const std::uint64_t cid = blob.checkpoint_id;
    const std::uint64_t base = blob.base_checkpoint_id;
    fetch->chain.push_back(std::move(blob));
    if (!is_delta) {
      finish_init_restore(*fetch);
      return;
    }
    // Chain sanity: bases must strictly descend, or the walk could cycle
    // on a corrupted store.
    if (base >= cid || fetch->chain.size() > 256) {
      seen_init_roots_.erase(ev2.root);
      trace_end(fetch->span);
      return;
    }
    platform_.coordinator().note_chain_fetch();
    continue_init_fetch(fetch,
                        CheckpointBlob::key(base, ref_.task, ref_.replica));
  };

  if (const std::optional<Bytes>* pre =
          platform_.coordinator().prefetched(key)) {
    // The coordinator's cross-shard prefetch already fetched this blob in
    // a pipelined MGET — no individual store round-trip.
    platform_.coordinator().note_prefetch_hit();
    consume(*pre);
    return;
  }
  const std::uint64_t epoch = epoch_;
  platform_.store().get(
      platform_.cluster().vm_of(slot_), key,
      [this, ev, epoch, span, consume](bool ok, std::optional<Bytes> raw) {
        if (epoch != epoch_) {
          trace_end(span);
          return;
        }
        if (!ok) {
          // Store unreachable: stay un-restored and withhold the ack so
          // this wave fails; a later INIT wave retries the restore.
          seen_init_roots_.erase(ev.root);
          trace_end(span);
          return;
        }
        if (!awaiting_init_) {
          // A concurrent INIT root restored us while this GET was in
          // flight (re-sent waves overlap when the store is slow to
          // answer).  Re-applying the blob would re-inject its pending
          // events a second time — just ack this copy.
          ++stats_.duplicate_inits;
          settle(ev, span, /*forward=*/ev.wiring == CheckpointMode::Wave);
          return;
        }
        consume(raw);
      });
}

void Executor::finish_init_restore(InitFetch& fetch) {
  const Event& ev = fetch.ev;
  CheckpointBlob restored;
  if (!fetch.chain.empty()) {
    // chain is newest → oldest and ends in a full blob: start from that
    // base state and replay the deltas oldest-first.
    TaskState st = std::move(fetch.chain.back().state);
    for (std::size_t i = fetch.chain.size() - 1; i-- > 0;) {
      fetch.chain[i].apply_delta_to(st);
    }
    restored.checkpoint_id = fetch.chain.front().checkpoint_id;
    restored.state = std::move(st);
    restored.pending = std::move(fetch.chain.front().pending);
  }
  restore_from_blob(std::move(restored));
  settle(ev, fetch.span, /*forward=*/ev.wiring == CheckpointMode::Wave);
}

void Executor::restore_from_blob(CheckpointBlob&& blob) {
  state_ = std::move(blob.state);
  state_.clear_dirty();  // the restored map IS the next full baseline
  awaiting_init_ = false;
  capturing_ = false;
  committed_this_wave_ = false;
  committed_checkpoint_ = 0;
  // Per the chain rules, the first blob after a restore is forced full —
  // this incarnation never observed the old chain being persisted.
  reset_delta_chain();
  stats_.init_replays += blob.pending.size();
  ++stats_.init_restores;
  if (auto* tr = platform_.tracer()) {
    tr->instant(obs::instance_track(id_.value), "task", "restored",
                {obs::arg("pending",
                          static_cast<std::uint64_t>(blob.pending.size()))});
  }

  // Rebuild the queue front: captured in-flight events first (they were
  // logically ahead), then any tuples pended while awaiting init.  (Events
  // from blob.pending never carry the sampled taint — it is not
  // serialized — so their release stamps are no-ops.)
  release_to_front(pend_until_init_, /*migration=*/false);
  release_to_front(blob.pending, /*migration=*/false);
  pump();
}

// ---- FGM fluid migration ----

void Executor::fgm_begin(SlotId shadow_slot, int partitions) {
  fgm_active_ = true;
  fgm_shadow_ready_ = false;
  fgm_shadow_slot_ = shadow_slot;
  fgm_partitions_ = partitions < 1 ? 1 : partitions;
  // One trailing entry for the reserved (non-keyed) bucket, moved last.
  fgm_moved_.assign(static_cast<std::size_t>(fgm_partitions_) + 1, false);
  fgm_in_flight_ = -1;
}

int Executor::fgm_unmoved() const noexcept {
  int n = 0;
  for (const bool moved : fgm_moved_) {
    if (!moved) ++n;
  }
  return n;
}

int Executor::fgm_partition_of(const Event& ev) const {
  if (!platform_.topology().task(ref_.task).keyed_state) {
    return fgm_partitions_;
  }
  return StatePartitionMap(fgm_partitions_).partition_of_key(ev.key);
}

bool Executor::fgm_diverts(const Event& ev) const {
  if (fgm_in_flight_ < 0) return false;
  // The reserved bucket holds the non-keyed counters, which every event
  // mutates — while it is in flight, everything waits.
  if (fgm_in_flight_ == fgm_partitions_) return true;
  return platform_.topology().task(ref_.task).keyed_state &&
         fgm_partition_of(ev) == fgm_in_flight_;
}

SlotId Executor::delivery_slot(const Event& ev) const {
  if (!fgm_active_ || ev.is_control()) return slot_;
  const int p = fgm_partition_of(ev);
  return fgm_moved_[static_cast<std::size_t>(p)] ? fgm_shadow_slot_ : slot_;
}

void Executor::fgm_abort_batch(const TaskState& part) {
  merge_partition(state_, part);
  fgm_in_flight_ = -1;
  release_to_front(fgm_buffer_, /*migration=*/true);
  pump();
}

void Executor::fgm_move_next_batch(std::function<void(FgmMoveOutcome)> done) {
  if (!fgm_active_ || !fgm_shadow_ready_ || !ready()) {
    done(FgmMoveOutcome::Failed);
    return;
  }
  int next = -1;
  for (int p = 0; p <= fgm_partitions_; ++p) {
    if (!fgm_moved_[static_cast<std::size_t>(p)]) {
      next = p;
      break;
    }
  }
  if (next < 0) {
    done(FgmMoveOutcome::AllMoved);
    return;
  }
  fgm_in_flight_ = next;
  const StatePartitionMap map(fgm_partitions_);
  TaskState part = extract_partition(state_, map, next);

  Bytes raw = CheckpointBlob::encode_full(++fgm_batch_seq_, part, {});
  const std::size_t bytes = raw.size();
  const std::string key =
      CheckpointBlob::fgm_key(fgm_batch_seq_, ref_.task, ref_.replica);

  // The extracted copy survives in the continuation so a failed transfer
  // merges it back — unmoved ranges never leave the source.
  auto keep = std::make_shared<TaskState>(std::move(part));
  const std::uint64_t epoch = epoch_;
  const int batch = next;
  platform_.store().put_pipelined(
      platform_.cluster().vm_of(slot_), key, std::move(raw),
      [this, done, keep, epoch, batch, key, bytes](bool ok) {
        if (epoch != epoch_) {
          // Killed while the PUT was in flight: the partition died with the
          // worker's state either way.
          done(FgmMoveOutcome::Failed);
          return;
        }
        if (!ok) {
          fgm_abort_batch(*keep);
          done(FgmMoveOutcome::Failed);
          return;
        }
        platform_.store().get(
            platform_.cluster().vm_of(fgm_shadow_slot_), key,
            [this, done, keep, epoch, batch,
             bytes](bool ok2, std::optional<Bytes> fetched_raw) {
              if (epoch != epoch_) {
                done(FgmMoveOutcome::Failed);
                return;
              }
              if (!ok2 || !fetched_raw.has_value()) {
                fgm_abort_batch(*keep);
                done(FgmMoveOutcome::Failed);
                return;
              }
              // The batch landed on the shadow's VM: commit the handover.
              CheckpointBlob fetched = CheckpointBlob::deserialize(*fetched_raw);
              merge_partition(state_, fetched.state);
              fgm_moved_[static_cast<std::size_t>(batch)] = true;
              fgm_in_flight_ = -1;
              ++stats_.fgm_batches_moved;
              if (auto* tr = platform_.tracer()) {
                tr->instant(
                    obs::instance_track(id_.value), "task", "fgm_batch",
                    {obs::arg("batch", static_cast<std::uint64_t>(batch)),
                     obs::arg("bytes", static_cast<std::uint64_t>(bytes)),
                     obs::arg("left",
                              static_cast<std::uint64_t>(fgm_unmoved()))});
              }
              release_to_front(fgm_buffer_, /*migration=*/true);
              pump();
              done(FgmMoveOutcome::Moved);
            });
      });
}

void Executor::fgm_finalize() {
  // May run while this executor serves a tuple: bind_slot moves its busy
  // count to the shadow's VM with it.
  bind_slot(fgm_shadow_slot_);
  fgm_active_ = false;
  fgm_shadow_ready_ = false;
  fgm_partitions_ = 0;
  fgm_moved_.clear();
  fgm_in_flight_ = -1;
  // Defensive: no batch is in flight at finalize.
  release_to_front(fgm_buffer_, /*migration=*/true);
  pump();
}

}  // namespace rill::dsps
