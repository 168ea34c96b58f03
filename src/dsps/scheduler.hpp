// Slot schedulers: map task instances onto vacant 1-core VM slots.
//
// The paper uses "Storm's default round-robin scheduler ... during initial
// deployment and on rebalance".  We implement that as RoundRobinScheduler
// (deal instances across VMs one slot at a time).  LocalityScheduler, an
// R-Storm-style alternative, serves the ablation bench; PinnedScheduler
// replays a recorded placement for the migration abort path.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "dsps/topology.hpp"

namespace rill::dsps {

/// A stable reference to one instance of a logical task.  Replica indices
/// survive migration, so checkpoints keyed by (task, replica) can be
/// restored into the replacement instance.
struct InstanceRef {
  TaskId task{};
  int replica{0};

  friend constexpr auto operator<=>(const InstanceRef&, const InstanceRef&) = default;
};

/// instance → slot placement decided by a scheduler.
using Placement = std::vector<std::pair<InstanceRef, SlotId>>;

/// Scheduler interface.  `slots` are the vacant candidate slots, in the
/// cluster's deterministic (VM, slot) order; `instances` are the task
/// instances that need a home, in topology order.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual Placement place(
      const std::vector<InstanceRef>& instances,
      const std::vector<SlotId>& slots, const cluster::Cluster& cluster) const = 0;
};

/// Storm's default: iterate VMs cyclically, taking one vacant slot from
/// each in turn, and deal instances onto that sequence.
class RoundRobinScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "round-robin";
  }
  [[nodiscard]] Placement place(const std::vector<InstanceRef>& instances,
                                const std::vector<SlotId>& slots,
                                const cluster::Cluster& cluster) const override;
};

/// Locality-aware scheduler in the spirit of R-Storm (Peng et al.), which
/// the paper cites as Storm's resource-aware alternative: each instance
/// goes to the vacant slot whose VM already hosts the most of its upstream
/// instances, greedily reducing inter-VM hops.  Needs the topology to know
/// the edges; falls back to first-fit when there is no upstream signal.
class LocalityScheduler final : public Scheduler {
 public:
  explicit LocalityScheduler(const Topology& topology)
      : topology_(&topology) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "locality";
  }
  [[nodiscard]] Placement place(const std::vector<InstanceRef>& instances,
                                const std::vector<SlotId>& slots,
                                const cluster::Cluster& cluster) const override;

 private:
  const Topology* topology_;
};

/// Replays a previously-recorded placement verbatim: each instance goes
/// back to its recorded slot.  Used by the transactional migration abort
/// path to re-pin instances onto the exact old placement after a failed
/// restore.  Throws SchedulingError if a recorded slot is not vacant.
class PinnedScheduler final : public Scheduler {
 public:
  explicit PinnedScheduler(Placement pinned);
  [[nodiscard]] std::string_view name() const noexcept override {
    return "pinned";
  }
  [[nodiscard]] Placement place(const std::vector<InstanceRef>& instances,
                                const std::vector<SlotId>& slots,
                                const cluster::Cluster& cluster) const override;

 private:
  std::map<InstanceRef, SlotId> pinned_;
};

/// Error raised when there are not enough slots.
struct SchedulingError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace rill::dsps
