#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/engine.hpp"

namespace rill::cluster {
namespace {

TEST(VmTypes, CoresMatchAzureDSeries) {
  EXPECT_EQ(cores(VmType::D1), 1);
  EXPECT_EQ(cores(VmType::D2), 2);
  EXPECT_EQ(cores(VmType::D3), 4);
  EXPECT_EQ(cores(VmType::D4), 8);
}

TEST(VmTypes, PriceScalesWithSize) {
  EXPECT_LT(cents_per_hour(VmType::D1), cents_per_hour(VmType::D2));
  EXPECT_LT(cents_per_hour(VmType::D2), cents_per_hour(VmType::D3));
}

struct ClusterFixture : ::testing::Test {
  sim::Engine engine;
  Cluster clu{engine};
};

TEST_F(ClusterFixture, ProvisionCreatesSlots) {
  const VmId id = clu.provision(VmType::D3, "box");
  const Vm& vm = clu.vm(id);
  EXPECT_EQ(vm.slots.size(), 4u);
  EXPECT_EQ(vm.label, "box");
  EXPECT_TRUE(vm.active());
  for (SlotId s : vm.slots) {
    EXPECT_EQ(clu.vm_of(s), id);
    EXPECT_FALSE(clu.slot(s).occupant.has_value());
  }
}

TEST_F(ClusterFixture, ProvisionNCreatesLabelled) {
  const auto vms = clu.provision_n(VmType::D1, 3, "d1");
  ASSERT_EQ(vms.size(), 3u);
  EXPECT_EQ(clu.vm(vms[1]).label, "d1-1");
}

TEST_F(ClusterFixture, OccupyAndVacate) {
  const VmId id = clu.provision(VmType::D2);
  const SlotId s = clu.vm(id).slots[0];
  clu.occupy(s, InstanceId{7});
  EXPECT_EQ(clu.slot(s).occupant, InstanceId{7});
  EXPECT_THROW(clu.occupy(s, InstanceId{8}), std::logic_error);
  clu.vacate(s);
  EXPECT_FALSE(clu.slot(s).occupant.has_value());
  EXPECT_THROW(clu.vacate(s), std::logic_error);
}

TEST_F(ClusterFixture, VacantSlotsSkipOccupiedAndReleased) {
  const VmId a = clu.provision(VmType::D2);
  const VmId b = clu.provision(VmType::D2);
  clu.occupy(clu.vm(a).slots[0], InstanceId{1});
  EXPECT_EQ(clu.vacant_slots().size(), 3u);
  clu.vacate(clu.vm(a).slots[0]);
  clu.release(a);
  EXPECT_EQ(clu.vacant_slots().size(), 2u);
  EXPECT_EQ(clu.vacant_slots_on({b}).size(), 2u);
}

TEST_F(ClusterFixture, ReleaseWithOccupantThrows) {
  const VmId a = clu.provision(VmType::D1);
  clu.occupy(clu.vm(a).slots[0], InstanceId{1});
  EXPECT_THROW(clu.release(a), std::logic_error);
  clu.vacate(clu.vm(a).slots[0]);
  clu.release(a);
  EXPECT_THROW(clu.release(a), std::logic_error);  // double release
}

TEST_F(ClusterFixture, ReleaseExceptReleasesActiveVmsOutsideKeep) {
  const auto vms = clu.provision_n(VmType::D1, 4, "w");
  clu.release(vms[1]);
  engine.run_until(static_cast<SimTime>(time::sec(60)));
  // vms[1] is already released: skipped, not a double-release throw.
  clu.release_except(vms, {vms[2]});
  EXPECT_FALSE(clu.vm(vms[0]).active());
  EXPECT_EQ(*clu.vm(vms[1]).released_at, SimTime{0});
  EXPECT_TRUE(clu.vm(vms[2]).active());
  EXPECT_FALSE(clu.vm(vms[3]).active());
  EXPECT_EQ(*clu.vm(vms[3]).released_at,
            static_cast<SimTime>(time::sec(60)));

  // In `vms` order: an occupied VM stops the walk before the VMs after it.
  const auto more = clu.provision_n(VmType::D1, 3, "x");
  clu.occupy(clu.vm(more[1]).slots[0], InstanceId{1});
  EXPECT_THROW(clu.release_except(more, {}), std::logic_error);
  EXPECT_FALSE(clu.vm(more[0]).active());
  EXPECT_TRUE(clu.vm(more[1]).active());
  EXPECT_TRUE(clu.vm(more[2]).active());
}

TEST_F(ClusterFixture, BillingPerStartedMinute) {
  const VmId a = clu.provision(VmType::D2);  // 15.4 c/h
  engine.run_until(static_cast<SimTime>(time::sec(90)));  // 1.5 min → 2 billed
  clu.release(a);
  const double expected = 2.0 * 15.4 / 60.0;
  EXPECT_NEAR(clu.billed_cents(), expected, 1e-9);
  // Released VMs stop accruing.
  engine.run_until(static_cast<SimTime>(time::min(60)));
  EXPECT_NEAR(clu.billed_cents(), expected, 1e-9);
}

TEST_F(ClusterFixture, UtilisationMatchesPaperExample) {
  // Paper Fig 1: 7 tasks on 5×2-core VMs = 70 %; on 2×4-core = 87.5 %.
  const auto d2s = clu.provision_n(VmType::D2, 5, "d2");
  int placed = 0;
  for (VmId v : d2s) {
    for (SlotId s : clu.vm(v).slots) {
      if (placed < 7) {
        clu.occupy(s, InstanceId{static_cast<std::uint32_t>(placed + 1)});
        ++placed;
      }
    }
  }
  EXPECT_DOUBLE_EQ(clu.utilisation(d2s), 0.7);

  const auto d3s = clu.provision_n(VmType::D3, 2, "d3");
  placed = 0;
  for (VmId v : d3s) {
    for (SlotId s : clu.vm(v).slots) {
      if (placed < 7) {
        clu.occupy(s, InstanceId{static_cast<std::uint32_t>(100 + placed)});
        ++placed;
      }
    }
  }
  EXPECT_DOUBLE_EQ(clu.utilisation(d3s), 0.875);
}

TEST_F(ClusterFixture, ActiveVmsTracksReleases) {
  const VmId a = clu.provision(VmType::D1);
  const VmId b = clu.provision(VmType::D1);
  EXPECT_EQ(clu.active_vms().size(), 2u);
  clu.release(a);
  const auto active = clu.active_vms();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], b);
}

TEST_F(ClusterFixture, UnissuedIdsThrowOutOfRange) {
  const VmId a = clu.provision(VmType::D2);  // slots 1 and 2
  EXPECT_THROW(static_cast<void>(clu.vm(VmId{0})), std::out_of_range);
  EXPECT_THROW(static_cast<void>(clu.vm(VmId{a.value + 1})), std::out_of_range);
  EXPECT_THROW(static_cast<void>(clu.slot(SlotId{0})), std::out_of_range);
  EXPECT_THROW(static_cast<void>(clu.slot(SlotId{3})), std::out_of_range);
  EXPECT_THROW(static_cast<void>(clu.vm_of(SlotId{3})), std::out_of_range);
  EXPECT_THROW(clu.occupy(SlotId{0}, InstanceId{1}), std::out_of_range);
  EXPECT_THROW(clu.vacate(SlotId{3}), std::out_of_range);
  EXPECT_THROW(clu.release(VmId{2}), std::out_of_range);
}

TEST_F(ClusterFixture, ListingsFollowCreationOrder) {
  const VmId a = clu.provision(VmType::D1);  // slot 1
  const VmId b = clu.provision(VmType::D2);  // slots 2, 3
  const VmId c = clu.provision(VmType::D3);  // slots 4..7
  const VmId d = clu.provision(VmType::D2);  // slots 8, 9
  clu.release(b);
  clu.occupy(SlotId{5}, InstanceId{1});
  clu.occupy(SlotId{8}, InstanceId{2});
  EXPECT_EQ(clu.active_vms(), (std::vector<VmId>{a, c, d}));
  EXPECT_EQ(clu.vacant_slots(),
            (std::vector<SlotId>{SlotId{1}, SlotId{4}, SlotId{6}, SlotId{7},
                                 SlotId{9}}));
  EXPECT_EQ(clu.vacant_slots_on({d, a}),
            (std::vector<SlotId>{SlotId{9}, SlotId{1}}));
  EXPECT_EQ(clu.vm_of(SlotId{7}), c);
  EXPECT_EQ(clu.vm_count(), 4u);
}

}  // namespace
}  // namespace rill::cluster
