#include "obs/slo.hpp"

#include "obs/names.hpp"
#include "obs/registry.hpp"

namespace rill::obs {

OnlineSloMonitor::OnlineSloMonitor(SloConfig config) : config_(config) {
  if (config_.window_sec == 0) config_.window_sec = 1;
}

void OnlineSloMonitor::record(SimTime arrival, std::uint64_t latency_us) {
  const std::uint64_t width_us = config_.window_sec * 1'000'000ull;
  if (!opened_) {
    // Anchor the first window at the first arrival: windows before any
    // traffic simply do not exist.
    open_start_us_ = arrival / width_us * width_us;
    opened_ = true;
  }
  // A sample past the open window's end proves those windows elapsed.
  while (arrival >= open_start_us_ + width_us) close_window();
  current_.push_back(latency_us);
}

void OnlineSloMonitor::advance_to(SimTime now) {
  if (!opened_) return;  // no traffic yet: leading empties are skipped
  const std::uint64_t width_us = config_.window_sec * 1'000'000ull;
  while (open_start_us_ + width_us <= now) close_window();
}

void OnlineSloMonitor::close_window() {
  SloWindow win;
  win.start_sec = open_start_us_ / 1'000'000ull;
  win.count = current_.size();
  const NearestRanks ranks = select_nearest_ranks(current_);
  win.p50_us = ranks.p50;
  win.p95_us = ranks.p95;
  win.p99_us = ranks.p99;
  if (config_.target_p99_us > 0) {
    // An empty *closed* window after traffic started means the sinks went
    // silent for its whole width — online that is a breach (it may turn
    // out to be the trailing shutdown; finalize() trims those).
    win.violated =
        current_.empty() ? true : win.p99_us > config_.target_p99_us;
  }
  windows_.push_back(win);
  current_.clear();
  open_start_us_ += config_.window_sec * 1'000'000ull;
}

void OnlineSloMonitor::finalize() {
  while (!windows_.empty() && windows_.back().count == 0) windows_.pop_back();
}

std::uint64_t OnlineSloMonitor::violated_windows() const noexcept {
  std::uint64_t n = 0;
  for (const SloWindow& w : windows_)
    if (w.violated) ++n;
  return n;
}

std::uint64_t OnlineSloMonitor::burn_per_mille() const noexcept {
  if (windows_.empty()) return 0;
  return violated_windows() * 1000 / windows_.size();
}

int OnlineSloMonitor::violated_streak() const noexcept {
  int n = 0;
  for (auto it = windows_.rbegin(); it != windows_.rend() && it->violated; ++it)
    ++n;
  return n;
}

int OnlineSloMonitor::ok_streak() const noexcept {
  int n = 0;
  for (auto it = windows_.rbegin(); it != windows_.rend() && !it->violated;
       ++it)
    ++n;
  return n;
}

std::vector<SloViolation> OnlineSloMonitor::violations() const {
  std::vector<SloViolation> runs;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    if (!windows_[i].violated) continue;
    std::size_t j = i;
    while (j + 1 < windows_.size() && windows_[j + 1].violated) ++j;
    runs.push_back(SloViolation{
        windows_[i].start_sec, windows_[j].start_sec + config_.window_sec});
    i = j;
  }
  return runs;
}

void OnlineSloMonitor::export_to(MetricsRegistry& reg) const {
  reg.counter(names::slo_metric("windows"))->add(windows_.size());
  reg.counter(names::slo_metric("violated_windows"))->add(violated_windows());
  reg.counter(names::slo_metric("violations"))->add(violations().size());
  reg.counter(names::slo_metric("burn_per_mille"))->add(burn_per_mille());
  reg.counter(names::slo_metric("target_p99_us"))->add(config_.target_p99_us);
  Histogram* p50 = reg.histogram(names::slo_metric("window_p50_us"));
  Histogram* p95 = reg.histogram(names::slo_metric("window_p95_us"));
  Histogram* p99 = reg.histogram(names::slo_metric("window_p99_us"));
  for (const SloWindow& w : windows_) {
    if (w.count == 0) continue;
    p50->record(w.p50_us);
    p95->record(w.p95_us);
    p99->record(w.p99_us);
  }
}

}  // namespace rill::obs
