#include "obs/attribution.hpp"

#include <algorithm>

#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace rill::obs {

namespace {

/// Per-hop component split (see header: components telescope exactly).
struct HopSplit {
  std::uint64_t queue{0};
  std::uint64_t service{0};
  std::uint64_t network{0};
  std::uint64_t pause{0};
  std::uint64_t chaos{0};
  std::uint64_t migration{0};
};

[[nodiscard]] HopSplit split(const HopRecord& h) noexcept {
  HopSplit s;
  const std::uint64_t wire = h.enqueued - h.emitted;
  s.chaos = std::min(h.chaos_us, wire);
  s.network = wire - s.chaos;
  // Buffer residency (enqueue → final release) splits into the FGM divert
  // share, accumulated by on_migration_release, and whatever else stalled
  // the event; clamping keeps the telescoping exact.
  const std::uint64_t buffered = h.released - h.enqueued;
  s.migration = std::min(h.migration_us, buffered);
  s.pause = buffered - s.migration;
  s.queue = h.svc_start - h.released;
  s.service = h.svc_end - h.svc_start;
  return s;
}

[[nodiscard]] constexpr Track tuple_track(RootId root) noexcept {
  return Track{kTuplesPid,
               static_cast<std::int32_t>(root % static_cast<RootId>(kTupleLanes))};
}

}  // namespace

LatencyAttributor::LatencyAttributor(std::uint64_t sample_every)
    : sample_every_(sample_every == 0 ? 1 : sample_every) {}

void LatencyAttributor::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) tracer_->set_process_name(kTuplesPid, "tuples");
}

void LatencyAttributor::on_root_copy(EventId id, RootId root, RootId origin,
                                     SimTime born, SimTime now) {
  Path path;
  path.root = root;
  path.origin = origin;
  path.born = born;
  // Time between external arrival and the spout handing the event to the
  // network is a stall (source pause, backlog pump, DSM replay wait).
  path.cause_us[static_cast<int>(Cause::Pause)] += now - born;
  path.cur.emitted = now;
  path.open = true;
  live_[id] = std::move(path);
}

void LatencyAttributor::on_send(EventId id, std::uint64_t chaos_us) {
  const auto it = live_.find(id);
  if (it == live_.end() || !it->second.open) return;
  it->second.cur.chaos_us += chaos_us;
}

void LatencyAttributor::on_drop(EventId id) {
  if (live_.erase(id) != 0) ++dropped_;
}

void LatencyAttributor::on_enqueue(EventId id, SimTime now) {
  const auto it = live_.find(id);
  if (it == live_.end() || !it->second.open) return;
  it->second.cur.enqueued = now;
  it->second.cur.released = now;
}

void LatencyAttributor::on_release(EventId id, SimTime now) {
  const auto it = live_.find(id);
  if (it == live_.end() || !it->second.open) return;
  it->second.cur.released = now;
}

void LatencyAttributor::on_migration_release(EventId id, SimTime now) {
  const auto it = live_.find(id);
  if (it == live_.end() || !it->second.open) return;
  HopRecord& h = it->second.cur;
  h.migration_us += now - h.released;
  h.released = now;
}

void LatencyAttributor::on_service_start(EventId id, SimTime now,
                                         const std::string& label) {
  const auto it = live_.find(id);
  if (it == live_.end() || !it->second.open) return;
  it->second.cur.svc_start = now;
  it->second.cur.label = label;
}

void LatencyAttributor::close_hop(Path& path, SimTime now) {
  if (!path.open) return;
  path.cur.svc_end = now;
  const HopSplit s = split(path.cur);
  path.cause_us[static_cast<int>(Cause::Queue)] += s.queue;
  path.cause_us[static_cast<int>(Cause::Service)] += s.service;
  path.cause_us[static_cast<int>(Cause::Network)] += s.network;
  path.cause_us[static_cast<int>(Cause::Pause)] += s.pause;
  path.cause_us[static_cast<int>(Cause::Chaos)] += s.chaos;
  path.cause_us[static_cast<int>(Cause::Migration)] += s.migration;
  if (metrics_ != nullptr && !path.cur.label.empty()) {
    metrics_->histogram(names::attr_metric(path.cur.label, "queue"))
        ->record(s.queue);
    metrics_->histogram(names::attr_metric(path.cur.label, "service"))
        ->record(s.service);
    metrics_->histogram(names::attr_metric(path.cur.label, "network"))
        ->record(s.network);
    metrics_->histogram(names::attr_metric(path.cur.label, "pause"))
        ->record(s.pause);
    metrics_->histogram(names::attr_metric(path.cur.label, "chaos"))
        ->record(s.chaos);
    metrics_->histogram(names::attr_metric(path.cur.label, "migration"))
        ->record(s.migration);
  }
  path.hops.push_back(std::move(path.cur));
  path.cur = HopRecord{};
  path.open = false;
}

void LatencyAttributor::fork(EventId parent, EventId child, SimTime now) {
  const auto it = live_.find(parent);
  if (it == live_.end()) return;
  close_hop(it->second, now);
  Path path = it->second;  // closed hops + folded causes travel to the child
  path.cur = HopRecord{};
  path.cur.emitted = now;
  path.open = true;
  live_[child] = std::move(path);
}

void LatencyAttributor::retire(EventId parent) { live_.erase(parent); }

void LatencyAttributor::on_sink(EventId id, SimTime now) {
  const auto it = live_.find(id);
  if (it == live_.end()) return;
  close_hop(it->second, now);
  TupleRecord rec;
  rec.root = it->second.root;
  rec.origin = it->second.origin;
  rec.born = it->second.born;
  rec.done = now;
  std::copy(std::begin(it->second.cause_us), std::end(it->second.cause_us),
            std::begin(rec.cause_us));
  rec.hops = std::move(it->second.hops);
  live_.erase(it);
  emit_trace(rec);
  done_.push_back(std::move(rec));
}

void LatencyAttributor::emit_trace(const TupleRecord& rec) const {
  if (tracer_ == nullptr) return;
  const Track lane = tuple_track(rec.root);
  tracer_->span_at(
      lane, "tuple", "tuple", rec.born,
      static_cast<SimDuration>(rec.done - rec.born),
      {arg("root", rec.root), arg("origin", rec.origin),
       arg("queue_us", rec.cause_us[static_cast<int>(Cause::Queue)]),
       arg("service_us", rec.cause_us[static_cast<int>(Cause::Service)]),
       arg("network_us", rec.cause_us[static_cast<int>(Cause::Network)]),
       arg("pause_us", rec.cause_us[static_cast<int>(Cause::Pause)]),
       arg("chaos_us", rec.cause_us[static_cast<int>(Cause::Chaos)]),
       arg("migration_us", rec.cause_us[static_cast<int>(Cause::Migration)]),
       arg("hops", static_cast<std::uint64_t>(rec.hops.size()))});
  for (const HopRecord& h : rec.hops) {
    const HopSplit s = split(h);
    tracer_->span_at(lane, "tuple", "hop", h.emitted,
                     static_cast<SimDuration>(h.svc_end - h.emitted),
                     {arg("root", rec.root), arg("task", h.label),
                      arg("queue_us", s.queue), arg("service_us", s.service),
                      arg("network_us", s.network), arg("pause_us", s.pause),
                      arg("chaos_us", s.chaos),
                      arg("migration_us", s.migration)});
  }
}

std::vector<CauseSummary> LatencyAttributor::summarize() const {
  std::vector<CauseSummary> out;
  out.reserve(kCauseCount);
  for (int c = 0; c < kCauseCount; ++c) {
    CauseSummary s;
    s.cause = static_cast<Cause>(c);
    std::vector<std::uint64_t> values;
    values.reserve(done_.size());
    for (const TupleRecord& t : done_) {
      values.push_back(t.cause_us[c]);
      s.total_us += t.cause_us[c];
    }
    const NearestRanks ranks = select_nearest_ranks(values);
    s.p50_us = ranks.p50;
    s.p95_us = ranks.p95;
    s.p99_us = ranks.p99;
    out.push_back(s);
  }
  return out;
}

}  // namespace rill::obs
