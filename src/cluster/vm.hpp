// Virtual-machine and resource-slot model.
//
// Mirrors the paper's Azure D-series setup: each VM exposes one 1-core
// resource slot per core (Intel Xeon E5 v3 @ 2.4 GHz, 3.5 GB RAM per slot),
// and a dataflow task instance occupies exactly one slot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace rill::cluster {

/// Azure D-series VM types used in the paper's experiments.
enum class VmType : std::uint8_t { D1, D2, D3, D4 };

/// Cores (== Storm resource slots) for a VM type.
[[nodiscard]] constexpr int cores(VmType t) noexcept {
  switch (t) {
    case VmType::D1: return 1;
    case VmType::D2: return 2;
    case VmType::D3: return 4;
    case VmType::D4: return 8;
  }
  return 0;
}

/// Approximate Azure pay-as-you-go price in USD cents per hour (2017-era
/// Southeast Asia list prices; used by the billing model, not the results).
[[nodiscard]] constexpr double cents_per_hour(VmType t) noexcept {
  switch (t) {
    case VmType::D1: return 7.7;
    case VmType::D2: return 15.4;
    case VmType::D3: return 30.8;
    case VmType::D4: return 61.6;
  }
  return 0.0;
}

[[nodiscard]] std::string_view to_string(VmType t) noexcept;

/// One resource slot: a 1-core share of a VM that can host exactly one task
/// instance.
struct Slot {
  SlotId id;
  VmId vm;
  /// Instance currently pinned to this slot, if any.
  std::optional<InstanceId> occupant;
};

/// A provisioned virtual machine.
struct Vm {
  VmId id;
  VmType type{VmType::D2};
  std::string label;
  std::vector<SlotId> slots;
  /// Instant the VM was provisioned, for billing.
  SimTime provisioned_at{0};
  /// Set when the VM has been released back to the cloud.
  std::optional<SimTime> released_at;
  /// Instances on this VM serving an event right now: the noisy-neighbour
  /// model's load figure (see Cluster::add_busy).
  int busy{0};

  [[nodiscard]] bool active() const noexcept { return !released_at.has_value(); }
};

}  // namespace rill::cluster
