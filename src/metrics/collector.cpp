#include "metrics/collector.hpp"

#include <algorithm>
#include <vector>

namespace rill::metrics {

void Collector::on_source_emit(const dsps::Event& ev, bool replay) {
  input_.add(ev.emitted_at);
  if (replay) {
    ++replayed_roots_;
    auto it = roots_.find(ev.origin);
    if (it == roots_.end()) {
      roots_[ev.origin] = RootRecord{ev.born_at, 0, true};
    } else {
      it->second.replay = true;
    }
  } else {
    ++roots_emitted_;
    roots_[ev.origin] = RootRecord{ev.born_at, 0, replay};
  }
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

  if (auto it = roots_.find(ev.origin); it != roots_.end()) {
    ++it->second.sink_arrivals;
  }

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
