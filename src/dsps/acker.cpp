#include "dsps/acker.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace rill::dsps {

AckerService::AckerService(sim::Engine& engine, SimDuration ack_timeout)
    : engine_(engine),
      ack_timeout_(ack_timeout),
      scanner_(engine, kScanPeriod, [this] { scan(); }) {}

void AckerService::start() { scanner_.start(); }
void AckerService::stop() { scanner_.stop(); }

void AckerService::register_root(RootId root, OnComplete on_complete,
                                 OnFail on_fail) {
  ++stats_.roots_registered;
  PendingRoot p;
  p.hash = root;  // the root event itself is the first pending entry
  p.registered_at = engine_.now();
  p.seq = next_seq_++;
  p.on_complete = std::move(on_complete);
  p.on_fail = std::move(on_fail);
  pending_.insert_or_assign(root, std::move(p));
}

bool AckerService::pending(RootId root) const {
  return pending_.contains(root);
}

void AckerService::add(RootId root, EventId event) {
  PendingRoot* p = pending_.find(root);
  if (p == nullptr) return;  // root already resolved; late add is a no-op
  ++stats_.adds;
  p->hash ^= event;
}

void AckerService::ack(RootId root, EventId event) {
  PendingRoot* p = pending_.find(root);
  if (p == nullptr) return;  // late ack after timeout/fail: ignore
  ++stats_.acks;
  p->hash ^= event;
  if (p->hash == 0) {
    ++stats_.roots_completed;
    OnComplete cb = std::move(p->on_complete);
    pending_.erase(p);  // the probe above serves the erase
    if (cb) cb(root);
  }
}

void AckerService::fail(RootId root) {
  PendingRoot* p = pending_.find(root);
  if (p == nullptr) return;
  ++stats_.roots_failed;
  OnFail cb = std::move(p->on_fail);
  pending_.erase(p);
  if (cb) cb(root);
}

void AckerService::forget(RootId root) { pending_.erase(root); }

void AckerService::scan() {
  // Collect first so that fail callbacks (which may register new roots,
  // e.g. replays) do not invalidate the iteration.
  std::vector<std::pair<std::uint64_t, RootId>> expired;
  const SimTime now = engine_.now();
  // lint: unordered-iter-ok(read-only scan; expired is sorted by
  // registration seq below before any side effect reaches fail())
  for (const auto& [root, p] : pending_) {
    if (now >= p.registered_at + static_cast<SimTime>(ack_timeout_)) {
      expired.emplace_back(p.seq, root);
    }
  }
  // Fail in registration order, not in slot order.  Replay scheduling and
  // trace emission follow the fail order, so slot order here would leak
  // the table's probe layout into the deterministic surface.
  std::sort(expired.begin(), expired.end());
  if (tracer_ != nullptr && !expired.empty()) {
    tracer_->instant(
        obs::kTrackAcker, "acker", "timeout",
        {obs::arg("expired_roots", static_cast<std::uint64_t>(expired.size())),
         obs::arg("inflight", static_cast<std::uint64_t>(pending_.size()))});
  }
  for (const auto& [seq, root] : expired) fail(root);
}

}  // namespace rill::dsps
