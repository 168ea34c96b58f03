#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/copy_count.hpp"
#include "sim/engine.hpp"

namespace rill::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Engine engine;
  cluster::Cluster clu{engine};
  VmId vm1, vm2;

  void SetUp() override {
    vm1 = clu.provision(cluster::VmType::D2, "vm1");
    vm2 = clu.provision(cluster::VmType::D2, "vm2");
  }

  Network make() {
    NetworkConfig cfg;
    cfg.jitter_frac = 0.0;  // deterministic latency for exact assertions
    return Network(engine, clu, cfg, Rng(1));
  }
};

TEST_F(NetFixture, IntraVmIsFasterThanInterVm) {
  Network net = make();
  SimTime intra = 0, inter = 0;
  net.send(vm1, vm1, 0, [&] { intra = engine.now(); });
  net.send(vm1, vm2, 0, [&] { inter = engine.now(); });
  engine.run();
  EXPECT_LT(intra, inter);
  EXPECT_EQ(intra, static_cast<SimTime>(time::us(150)));
  EXPECT_EQ(inter, static_cast<SimTime>(time::us(1200)));
}

TEST_F(NetFixture, BytesAddWireTime) {
  static_assert(NetworkConfig::ns_per_byte == 10.0);
  Network net = make();
  SimTime t = 0;
  net.send(vm1, vm1, 10000, [&] { t = engine.now(); });
  engine.run();
  EXPECT_EQ(t, static_cast<SimTime>(time::us(250)));  // 150 + 10000 × 10 ns
}

TEST_F(NetFixture, FifoPerVmPair) {
  // Even with per-message size differences, a (from, to) channel must
  // deliver in send order — the checkpoint sweep correctness depends on it.
  Network net = make();
  std::vector<int> order;
  net.send(vm1, vm2, 10000, [&] { order.push_back(1); });  // slow big message
  net.send(vm1, vm2, 0, [&] { order.push_back(2); });      // fast small one
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(NetFixture, FifoHoldsAcrossVmsProvisionedAfterEarlierSends) {
  // The FIFO clock is a dense VM x VM table.  A send naming a VM
  // provisioned after the last growth grows it, and no channel may lose its
  // last arrival time in the process.
  Network net = make();
  std::vector<int> order;
  net.send(vm1, vm2, 10000, [&] { order.push_back(1); });  // holds vm1→vm2
  const std::vector<VmId> late =
      clu.provision_n(cluster::VmType::D2, 8, "late");
  net.send(late.back(), vm1, 0, [&] { order.push_back(2); });  // grows it
  net.send(vm1, vm2, 0, [&] { order.push_back(3); });  // still behind 1
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST_F(NetFixture, IndependentPairsDoNotBlock) {
  Network net = make();
  std::vector<int> order;
  net.send(vm1, vm2, 100000, [&] { order.push_back(1); });
  net.send(vm2, vm1, 0, [&] { order.push_back(2); });  // different channel
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST_F(NetFixture, JitterStaysWithinBound) {
  NetworkConfig cfg;
  cfg.jitter_frac = 0.25;
  Network net(engine, clu, cfg, Rng(7));
  for (int i = 0; i < 200; ++i) {
    const SimTime sent = engine.now();
    SimTime arrived = 0;
    net.send(vm1, vm2, 0, [&arrived, &e = engine] { arrived = e.now(); });
    engine.run();
    const auto latency = static_cast<SimDuration>(arrived - sent);
    EXPECT_GE(latency, time::us(1200));
    EXPECT_LE(latency, time::us(1500));
  }
}

TEST_F(NetFixture, StatsCountMessages) {
  Network net = make();
  net.send(vm1, vm1, 10, [] {});
  net.send(vm1, vm2, 20, [] {});
  net.send(vm2, vm1, 30, [] {});
  engine.run();
  EXPECT_EQ(net.stats().messages_sent, 3u);
  EXPECT_EQ(net.stats().intra_vm, 1u);
  EXPECT_EQ(net.stats().inter_vm, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 60u);
}

TEST_F(NetFixture, SendBetweenSlotsRoutesByHostVm) {
  Network net = make();
  const SlotId s1 = clu.vm(vm1).slots[0];
  const SlotId s2 = clu.vm(vm1).slots[1];
  const SlotId s3 = clu.vm(vm2).slots[0];
  SimTime same = 0, cross = 0;
  net.send_between_slots(s1, s2, 0, [&] { same = engine.now(); });
  net.send_between_slots(s1, s3, 0, [&] { cross = engine.now(); });
  engine.run();
  EXPECT_LT(same, cross);
}

TEST_F(NetFixture, SendBuildsTheDeliveryInPlace) {
  // send() forwards the delivery callable to the engine, which builds it
  // in the slot it fires from: one copy of the capture into the lambda, at
  // most one move, and none on arrival.
  Network net = make();
  testutil::CopyCount count;
  testutil::Counted probe(count);
  int delivered = 0;
  net.send(vm1, vm2, 64, [probe, &delivered] { ++delivered; });
  EXPECT_EQ(count.copies, 1);
  EXPECT_LE(count.moves, 1);
  const int moves = count.moves;
  engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(count.copies, 1);
  EXPECT_EQ(count.moves, moves);
}

}  // namespace
}  // namespace rill::net
