#include "workloads/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "dsps/platform.hpp"
#include "dsps/spout.hpp"

namespace rill::workloads {
namespace {

/// Triangle wave in [-1, 1] over one period: starts at the trough (-1),
/// peaks (+1) at the half-period, returns to the trough.  Piecewise
/// linear — exact in binary floating point for the rationals we feed it.
double triangle(double frac) {
  return frac < 0.5 ? -1.0 + 4.0 * frac : 3.0 - 4.0 * frac;
}

double crowd_multiplier(const FlashCrowd& c, double t_sec) {
  const double ramp_end = c.at_sec + c.ramp_sec;
  const double hold_end = ramp_end + c.hold_sec;
  const double fall_end = hold_end + c.fall_sec;
  if (t_sec < c.at_sec || t_sec >= fall_end) return 1.0;
  const double boost = c.multiplier - 1.0;
  if (t_sec < ramp_end) {
    const double frac =
        c.ramp_sec > 0.0 ? (t_sec - c.at_sec) / c.ramp_sec : 1.0;
    return 1.0 + boost * frac;
  }
  if (t_sec < hold_end) return c.multiplier;
  const double frac =
      c.fall_sec > 0.0 ? (fall_end - t_sec) / c.fall_sec : 0.0;
  return 1.0 + boost * frac;
}

}  // namespace

double RateSchedule::rate_at(SimTime t) const {
  const double t_sec = time::at_sec(t);
  double rate = config_.base_rate;
  if (config_.diurnal_amplitude > 0.0 && config_.diurnal_period_sec > 0.0) {
    const double frac =
        t_sec / config_.diurnal_period_sec -
        std::floor(t_sec / config_.diurnal_period_sec);
    rate *= 1.0 + config_.diurnal_amplitude * triangle(frac);
  }
  for (const FlashCrowd& c : config_.crowds) {
    rate *= crowd_multiplier(c, t_sec);
  }
  return rate;
}

double RateSchedule::peak_rate() const {
  double peak = config_.base_rate * (1.0 + config_.diurnal_amplitude);
  for (const FlashCrowd& c : config_.crowds) {
    peak *= std::max(1.0, c.multiplier);
  }
  return peak;
}

ZipfKeys::ZipfKeys(std::uint64_t cardinality, double s, Rng rng)
    : rng_(rng) {
  if (cardinality == 0) cardinality = 1;
  // Build the integer CDF once at setup: weight(k) = (k+1)^-s, scaled so
  // the table is exact-integer afterwards (the only floating point is
  // here, identical on every run of the same build).
  std::vector<double> weights(cardinality);
  double total = 0.0;
  for (std::uint64_t k = 0; k < cardinality; ++k) {
    weights[k] = std::pow(static_cast<double>(k + 1), -s);
    total += weights[k];
  }
  cumulative_.resize(cardinality);
  constexpr double kScale = 1e12;
  std::uint64_t acc = 0;
  for (std::uint64_t k = 0; k < cardinality; ++k) {
    acc += static_cast<std::uint64_t>(weights[k] / total * kScale) + 1;
    cumulative_[k] = acc;
  }
}

std::uint64_t ZipfKeys::next() {
  const std::uint64_t total = cumulative_.back();
  const std::uint64_t draw = rng_.next() % total;
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), draw);
  return static_cast<std::uint64_t>(it - cumulative_.begin());
}

std::uint64_t ZipfKeys::hottest_share_per_mille() const {
  return cumulative_.front() * 1000 / cumulative_.back();
}

TrafficDriver::TrafficDriver(dsps::Platform& platform, TrafficConfig config)
    : platform_(platform),
      schedule_(std::move(config)),
      timer_(platform.engine(), TrafficConfig::update_period,
             // lint: lifetime-ok(timer_ is a member; it cancels its pending
             // tick in its own destructor, which runs before apply()'s
             // captured `this` goes stale)
             [this] { apply(); }) {}

void TrafficDriver::start() {
  const TrafficConfig& cfg = schedule_.config();
  if (!cfg.enabled) return;
  if (!installed_) {
    installed_ = true;
    if (cfg.zipf_s > 0.0) {
      // One forked stream per spout so key draws stay deterministic no
      // matter how the spouts interleave.
      const std::vector<dsps::Spout*>& spouts = platform_.spouts();
      pickers_.reserve(spouts.size());
      Rng parent(platform_.config().seed ^ 0x5a1f5a1f5a1f5a1full);
      for (std::size_t i = 0; i < spouts.size(); ++i) {
        pickers_.emplace_back(platform_.config().key_cardinality, cfg.zipf_s,
                              parent.fork());
        ZipfKeys* picker = &pickers_.back();
        spouts[i]->set_key_picker([picker] { return picker->next(); });
      }
    }
  }
  apply();
  timer_.start();
}

void TrafficDriver::stop() { timer_.stop(); }

void TrafficDriver::apply() {
  const double rate = schedule_.rate_at(platform_.engine().now());
  for (dsps::Spout* spout : platform_.spouts()) {
    spout->set_rate(rate);
  }
}

}  // namespace rill::workloads
