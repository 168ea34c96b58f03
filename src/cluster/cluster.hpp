// The simulated elastic cloud cluster.
//
// Owns VMs and their slots, supports provisioning and releasing VMs at
// simulation time (scale-in / scale-out), tracks slot occupancy, and
// computes a per-minute billing total — the cost model that motivates the
// paper's consolidation example (Fig. 1).
#pragma once

#include <string>
#include <vector>

#include "cluster/vm.hpp"
#include "common/ids.hpp"
#include "sim/engine.hpp"

namespace rill::cluster {

class Cluster {
 public:
  explicit Cluster(sim::Engine& engine) : engine_(engine) {}

  /// Provision a VM of the given type; slots are created immediately.
  VmId provision(VmType type, std::string label = {});

  /// Provision `count` VMs of the same type with numbered labels.
  std::vector<VmId> provision_n(VmType type, int count,
                                const std::string& label_prefix);

  /// Release a VM; its slots must be vacant.
  void release(VmId vm);
  /// Release every still-active VM of `vms` that is not in `keep`, in
  /// `vms` order (the vacated VMs after a migration; already-released ones
  /// are skipped).
  void release_except(const std::vector<VmId>& vms,
                      const std::vector<VmId>& keep);

  /// Ids are dense from 1 and never reused, so both lookups index a table;
  /// an id this cluster never issued throws std::out_of_range.
  [[nodiscard]] const Vm& vm(VmId id) const { return vms_.at(id.value - 1); }
  [[nodiscard]] const Slot& slot(SlotId id) const {
    return slots_.at(id.value - 1);
  }

  /// Which VM hosts a slot — the network model uses this to decide
  /// intra- vs inter-VM latency.
  [[nodiscard]] VmId vm_of(SlotId id) const { return slot(id).vm; }

  /// Adds `delta` (+1 or -1) to the busy count of the VM hosting `slot`.
  /// dsps::Executor calls it whenever it turns busy or idle and moves its
  /// entry when it changes slot while busy, so a VM's count is always the
  /// number of busy executors whose slot is on it.
  void add_busy(SlotId slot, int delta) { vm_mut(vm_of(slot)).busy += delta; }
  /// Busy executors on the VM hosting `slot`.
  [[nodiscard]] int busy_on(SlotId slot) const { return vm(vm_of(slot)).busy; }

  /// Occupy / vacate a slot.  Throws if the slot is already taken (occupy)
  /// or already empty (vacate) — double-booking a 1-core slot is a
  /// scheduler bug we want to fail loudly on.
  void occupy(SlotId slot, InstanceId instance);
  void vacate(SlotId slot);

  /// All vacant slots on active VMs, in (VmId, slot index) order so that
  /// schedulers see a deterministic sequence.
  [[nodiscard]] std::vector<SlotId> vacant_slots() const;

  /// All vacant slots restricted to the given VM set.
  [[nodiscard]] std::vector<SlotId> vacant_slots_on(
      const std::vector<VmId>& vms) const;

  [[nodiscard]] std::vector<VmId> active_vms() const;
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }

  /// Accumulated cost in USD cents, billed per started minute per VM, from
  /// provisioning until release (or `now` if still active).
  [[nodiscard]] double billed_cents() const;

  /// Fraction of slots occupied across the given VMs (utilisation as in
  /// the paper's Fig. 1 discussion).
  [[nodiscard]] double utilisation(const std::vector<VmId>& vms) const;

 private:
  Vm& vm_mut(VmId id) { return vms_.at(id.value - 1); }
  Slot& slot_mut(SlotId id) { return slots_.at(id.value - 1); }

  sim::Engine& engine_;
  /// Indexed by id - 1, so index order is creation order.
  std::vector<Vm> vms_;
  std::vector<Slot> slots_;
};

}  // namespace rill::cluster
