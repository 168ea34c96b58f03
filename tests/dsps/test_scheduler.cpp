#include <gtest/gtest.h>

#include <map>

#include "dsps/scheduler.hpp"
#include "sim/engine.hpp"

namespace rill::dsps {
namespace {

struct SchedulerFixture : ::testing::Test {
  sim::Engine engine;
  cluster::Cluster clu{engine};

  std::vector<InstanceRef> make_instances(int n) {
    std::vector<InstanceRef> out;
    for (int i = 0; i < n; ++i) out.push_back(InstanceRef{TaskId{1}, i});
    return out;
  }

  std::map<VmId, int> per_vm(const Placement& placement) {
    std::map<VmId, int> counts;
    for (const auto& [ref, slot] : placement) ++counts[clu.vm_of(slot)];
    return counts;
  }
};

TEST_F(SchedulerFixture, RoundRobinSpreadsAcrossVms) {
  clu.provision_n(cluster::VmType::D2, 3, "vm");  // 6 slots
  RoundRobinScheduler rr;
  const Placement p = rr.place(make_instances(3), clu.vacant_slots(), clu);
  const auto counts = per_vm(p);
  EXPECT_EQ(counts.size(), 3u);  // one instance per VM
  for (const auto& [vm, n] : counts) EXPECT_EQ(n, 1);
}

TEST_F(SchedulerFixture, RoundRobinWrapsWhenOverSubscribed) {
  clu.provision_n(cluster::VmType::D2, 2, "vm");  // 4 slots
  RoundRobinScheduler rr;
  const Placement p = rr.place(make_instances(4), clu.vacant_slots(), clu);
  const auto counts = per_vm(p);
  EXPECT_EQ(counts.size(), 2u);
  for (const auto& [vm, n] : counts) EXPECT_EQ(n, 2);
}

TEST_F(SchedulerFixture, ThrowsWhenNotEnoughSlots) {
  clu.provision(cluster::VmType::D1);
  RoundRobinScheduler rr;
  EXPECT_THROW(rr.place(make_instances(2), clu.vacant_slots(), clu),
               SchedulingError);
}

TEST_F(SchedulerFixture, PlacementIsDeterministic) {
  clu.provision_n(cluster::VmType::D3, 4, "vm");
  RoundRobinScheduler rr;
  const auto slots = clu.vacant_slots();
  const Placement a = rr.place(make_instances(9), slots, clu);
  const Placement b = rr.place(make_instances(9), slots, clu);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second);
  }
}

TEST_F(SchedulerFixture, AllAssignedSlotsAreDistinct) {
  clu.provision_n(cluster::VmType::D2, 5, "vm");
  RoundRobinScheduler rr;
  const Placement p = rr.place(make_instances(10), clu.vacant_slots(), clu);
  std::set<SlotId> used;
  for (const auto& [ref, slot] : p) {
    EXPECT_TRUE(used.insert(slot).second) << "slot double-booked";
  }
}

TEST_F(SchedulerFixture, InstanceOrderPreserved) {
  clu.provision_n(cluster::VmType::D2, 2, "vm");
  RoundRobinScheduler rr;
  auto instances = make_instances(4);
  const Placement p = rr.place(instances, clu.vacant_slots(), clu);
  ASSERT_EQ(p.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p[i].first, instances[i]);
  }
}

}  // namespace
}  // namespace rill::dsps
