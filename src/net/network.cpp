#include "net/network.hpp"

#include <algorithm>
#include <utility>

namespace rill::net {

SimTime Network::fifo_arrival(VmId from, VmId to, SimTime proposed) {
  const std::size_t need = std::max(from.value, to.value) + std::size_t{1};
  if (need > vm_dim_) {
    const std::size_t dim = std::max(need, 2 * vm_dim_);
    std::vector<SimTime> grown(dim * dim, 0);
    for (std::size_t f = 0; f < vm_dim_; ++f) {
      for (std::size_t t = 0; t < vm_dim_; ++t) {
        grown[f * dim + t] = last_arrival_[f * vm_dim_ + t];
      }
    }
    last_arrival_ = std::move(grown);
    vm_dim_ = dim;
  }
  SimTime& last = last_arrival_[from.value * vm_dim_ + to.value];
  const SimTime arrival = std::max(proposed, last);
  last = arrival;
  return arrival;
}

SendOutcome Network::transmit(VmId from, VmId to, std::size_t bytes,
                              MsgClass cls, SimTime& arrival) {
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;

  SendOutcome outcome;
  if (fault_hook_ != nullptr && fault_hook_->drop(from, to, cls)) {
    // The message vanishes on the wire: no delivery is ever scheduled.
    ++stats_.dropped_by_fault;
    outcome.dropped = true;
    return outcome;
  }

  SimDuration latency;
  if (from == to) {
    ++stats_.intra_vm;
    latency = NetworkConfig::intra_vm_latency;
  } else {
    ++stats_.inter_vm;
    const double jitter =
        rng_.uniform(0.0, config_.jitter_frac) *
        static_cast<double>(NetworkConfig::inter_vm_latency);
    latency =
        NetworkConfig::inter_vm_latency + static_cast<SimDuration>(jitter);
  }
  latency += static_cast<SimDuration>(NetworkConfig::ns_per_byte *
                                      static_cast<double>(bytes) / 1000.0);

  if (fault_hook_ != nullptr) {
    // Extra delay is applied before the FIFO clamp, so a delayed message
    // holds back everything behind it on the same channel — exactly what a
    // congested TCP stream does.
    const SimDuration extra = fault_hook_->extra_delay(from, to, cls);
    if (extra > 0) {
      ++stats_.delayed_by_fault;
      latency += extra;
      outcome.chaos_delay_us = static_cast<std::uint64_t>(extra);
    }
  }

  arrival =
      fifo_arrival(from, to, engine_.now() + static_cast<SimTime>(latency));
  return outcome;
}

}  // namespace rill::net
