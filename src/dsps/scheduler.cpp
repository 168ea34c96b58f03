#include "dsps/scheduler.hpp"

#include <algorithm>
#include <map>
#include <unordered_set>

namespace rill::dsps {

namespace {

void require_capacity(std::size_t instances, std::size_t slots) {
  if (instances > slots) {
    throw SchedulingError("not enough slots: need " +
                          std::to_string(instances) + ", have " +
                          std::to_string(slots));
  }
}

}  // namespace

Placement RoundRobinScheduler::place(const std::vector<InstanceRef>& instances,
                                     const std::vector<SlotId>& slots,
                                     const cluster::Cluster& cluster) const {
  require_capacity(instances.size(), slots.size());

  // Group the vacant slots by VM (preserving per-VM order), then flatten by
  // taking one slot per VM per round.
  std::map<VmId, std::vector<SlotId>> by_vm;
  for (SlotId s : slots) by_vm[cluster.vm_of(s)].push_back(s);

  std::vector<SlotId> dealt;
  dealt.reserve(slots.size());
  bool took_any = true;
  std::size_t round = 0;
  while (took_any) {
    took_any = false;
    for (auto& [vm, vm_slots] : by_vm) {
      if (round < vm_slots.size()) {
        dealt.push_back(vm_slots[round]);
        took_any = true;
      }
    }
    ++round;
  }

  Placement out;
  out.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    out.emplace_back(instances[i], dealt[i]);
  }
  return out;
}

Placement LocalityScheduler::place(const std::vector<InstanceRef>& instances,
                                   const std::vector<SlotId>& slots,
                                   const cluster::Cluster& cluster) const {
  require_capacity(instances.size(), slots.size());

  // Remaining vacant slots per VM, in deterministic order.
  std::map<VmId, std::vector<SlotId>> free_by_vm;
  for (SlotId s : slots) free_by_vm[cluster.vm_of(s)].push_back(s);

  // Where each already-placed instance landed.
  std::map<InstanceRef, VmId> placed_vm;

  Placement out;
  out.reserve(instances.size());
  for (const InstanceRef& inst : instances) {
    // Score each candidate VM by the number of upstream instances it
    // already hosts (instances arrive in topology order, so upstreams of
    // `inst` are placed first).
    VmId best{};
    int best_score = -1;
    for (const auto& [vm, vm_slots] : free_by_vm) {
      if (vm_slots.empty()) continue;
      int score = 0;
      for (TaskId up : topology_->upstream(inst.task)) {
        const TaskDef& up_def = topology_->task(up);
        if (up_def.kind == TaskKind::Source) continue;  // pinned elsewhere
        for (int r = 0; r < up_def.parallelism; ++r) {
          auto it = placed_vm.find(InstanceRef{up, r});
          if (it != placed_vm.end() && it->second == vm) ++score;
        }
      }
      if (score > best_score) {
        best_score = score;
        best = vm;
      }
    }
    auto& vm_slots = free_by_vm.at(best);
    const SlotId slot = vm_slots.front();
    vm_slots.erase(vm_slots.begin());
    placed_vm[inst] = best;
    out.emplace_back(inst, slot);
  }
  return out;
}

PinnedScheduler::PinnedScheduler(Placement pinned) {
  for (auto& [ref, slot] : pinned) pinned_.emplace(ref, slot);
}

Placement PinnedScheduler::place(const std::vector<InstanceRef>& instances,
                                 const std::vector<SlotId>& slots,
                                 const cluster::Cluster& /*cluster*/) const {
  std::unordered_set<std::uint32_t> vacant;
  for (SlotId s : slots) vacant.insert(s.value);

  Placement out;
  out.reserve(instances.size());
  for (const InstanceRef& inst : instances) {
    auto it = pinned_.find(inst);
    if (it == pinned_.end()) {
      throw SchedulingError("pinned placement has no slot for an instance");
    }
    if (!vacant.contains(it->second.value)) {
      throw SchedulingError("pinned slot is not vacant");
    }
    out.emplace_back(inst, it->second);
  }
  return out;
}

}  // namespace rill::dsps
