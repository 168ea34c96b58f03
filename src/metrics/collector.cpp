#include "metrics/collector.hpp"

#include <algorithm>
#include <vector>

namespace rill::metrics {

void Collector::on_source_emit(const dsps::Event& ev, bool replay) {
  input_.add(ev.emitted_at);
  if (replay) {
    ++replayed_roots_;
  } else {
    ++roots_emitted_;
  }
  emits_.push_back(SourceEmit{ev.origin, ev.born_at, arrival_origins_.size(),
                              replay ? 1u : 0u});
}

std::map<RootId, RootRecord> Collector::roots() const {
  std::map<RootId, RootRecord> out;
  std::size_t next_arrival = 0;
  const auto count_arrivals_until = [&](std::uint64_t end) {
    for (; next_arrival < end; ++next_arrival) {
      auto it = out.find(arrival_origins_[next_arrival]);
      if (it != out.end()) ++it->second.sink_arrivals;
    }
  };
  for (const SourceEmit& e : emits_) {
    count_arrivals_until(e.arrivals_before);
    if (e.replay == 0) {
      out[e.origin] = RootRecord{e.born_at, 0, false};
    } else if (auto [it, fresh] =
                   out.try_emplace(e.origin, RootRecord{e.born_at, 0, true});
               !fresh) {
      it->second.replay = true;
    }
  }
  count_arrivals_until(arrival_origins_.size());
  return out;
}

void Collector::on_emit(const dsps::Event& ev) {
  if (!ev.is_control() && ev.replayed) ++replayed_messages_;
}

std::optional<SimTime> Collector::first_sink_arrival_after(SimTime t) const {
  const std::vector<LatencySeries::Sample>& log = latency_.samples();
  auto it = std::upper_bound(
      log.begin(), log.end(), t,
      [](SimTime v, const LatencySeries::Sample& s) { return v < s.arrival; });
  if (it == log.end()) return std::nullopt;
  return it->arrival;
}

void Collector::on_sink_arrival(const dsps::Event& ev, SimTime now) {
  output_.add(now);
  latency_.add(now, static_cast<SimDuration>(now - ev.born_at));

  arrival_origins_.push_back(ev.origin);

  if (request_.has_value() && now >= *request_) {
    if (!first_sink_after_request_) first_sink_after_request_ = now;
    if (ev.born_at < *request_) last_old_arrival_ = now;
    if (ev.replayed) last_replayed_arrival_ = now;
  }
}

void Collector::on_lost(const dsps::Event& ev, SimTime /*now*/) {
  if (ev.is_control()) {
    ++lost_control_;
  } else {
    ++lost_user_;
  }
}

}  // namespace rill::metrics
