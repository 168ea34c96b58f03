#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kvstore/store.hpp"
#include "sim/engine.hpp"

namespace rill::kvstore {
namespace {

struct StoreFixture : ::testing::Test {
  sim::Engine engine;
  cluster::Cluster clu{engine};
  VmId client_vm, store_vm;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Store> store;

  void SetUp() override {
    client_vm = clu.provision(cluster::VmType::D2, "client");
    store_vm = clu.provision(cluster::VmType::D3, "redis");
    net::NetworkConfig ncfg;
    ncfg.jitter_frac = 0.0;
    network = std::make_unique<net::Network>(engine, clu, ncfg, Rng(1));
    store = std::make_unique<Store>(engine, *network, store_vm);
  }

  static Bytes bytes_of(std::string_view s) {
    return Bytes(s.begin(), s.end());
  }
};

TEST_F(StoreFixture, PutThenGetRoundtrips) {
  bool put_done = false;
  store->put(client_vm, "k1", bytes_of("value"), [&](bool ok) { put_done = ok; });
  engine.run();
  EXPECT_TRUE(put_done);

  std::optional<Bytes> got;
  store->get(client_vm, "k1",
             [&](bool, std::optional<Bytes> v) { got = std::move(v); });
  engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes_of("value"));
}

TEST_F(StoreFixture, GetMissingYieldsNullopt) {
  bool called = false;
  store->get(client_vm, "absent", [&](bool ok, std::optional<Bytes> v) {
    called = true;
    EXPECT_TRUE(ok);  // reachable store, just no such key
    EXPECT_FALSE(v.has_value());
  });
  engine.run();
  EXPECT_TRUE(called);
}

TEST_F(StoreFixture, OverwriteReplacesValue) {
  store->put(client_vm, "k", bytes_of("a"), [](bool) {});
  store->put(client_vm, "k", bytes_of("bb"), [](bool) {});
  engine.run();
  EXPECT_EQ(*store->peek("k"), bytes_of("bb"));
  EXPECT_EQ(store->size(), 1u);
}

TEST_F(StoreFixture, DeleteRemovesKey) {
  store->put(client_vm, "k", bytes_of("v"), [](bool) {});
  engine.run();
  bool done = false;
  store->del_batch(client_vm, {"k"}, [&](bool ok) { done = ok; });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(store->peek("k").has_value());
}

TEST_F(StoreFixture, BatchPutStoresAll) {
  std::vector<std::pair<std::string, Bytes>> kvs;
  for (int i = 0; i < 50; ++i) {
    kvs.emplace_back("key" + std::to_string(i), bytes_of("v"));
  }
  bool done = false;
  store->put_batch(client_vm, std::move(kvs), [&](bool ok) { done = ok; });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(store->size(), 50u);
  EXPECT_EQ(store->stats().batch_items, 50u);
  EXPECT_EQ(store->stats().puts, 1u);
}

TEST_F(StoreFixture, PaperMicrobenchmark2000EventsIn100ms) {
  // Paper §5.1: "it takes just 100 ms to checkpoint 2000 events to Redis
  // from Storm".  2000 events × 64 B in one pipelined batch must land in
  // the same order of magnitude.
  std::vector<std::pair<std::string, Bytes>> kvs;
  for (int i = 0; i < 2000; ++i) {
    kvs.emplace_back("ev" + std::to_string(i), Bytes(64, 0xAA));
  }
  const SimTime start = engine.now();
  SimTime done_at = 0;
  store->put_batch(client_vm, std::move(kvs),
                   [&](bool) { done_at = engine.now(); });
  engine.run();
  const double ms = time::to_ms(static_cast<SimDuration>(done_at - start));
  EXPECT_GT(ms, 50.0);
  EXPECT_LT(ms, 200.0);
}

TEST_F(StoreFixture, LatencyScalesWithItems) {
  auto timed_batch = [&](int n) {
    std::vector<std::pair<std::string, Bytes>> kvs;
    for (int i = 0; i < n; ++i) {
      kvs.emplace_back("x" + std::to_string(i), Bytes(16, 1));
    }
    const SimTime start = engine.now();
    SimTime end = 0;
    store->put_batch(client_vm, std::move(kvs),
                     [&](bool) { end = engine.now(); });
    engine.run();
    return static_cast<SimDuration>(end - start);
  };
  const SimDuration small = timed_batch(10);
  const SimDuration big = timed_batch(1000);
  EXPECT_GT(big, small * 5);
}

TEST_F(StoreFixture, StatsTrackBytes) {
  store->put(client_vm, "k", Bytes(100, 1), [](bool) {});
  engine.run();
  EXPECT_EQ(store->stats().bytes_written, 101u);  // key + value bytes
  std::optional<Bytes> got;
  store->get(client_vm, "k",
             [&](bool, std::optional<Bytes> v) { got = std::move(v); });
  engine.run();
  EXPECT_EQ(store->stats().bytes_read, 100u);
}

}  // namespace
}  // namespace rill::kvstore
