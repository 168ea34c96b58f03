// Hardened store client: per-request timeouts, capped exponential backoff
// and bounded retries against an unavailable or slow server.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kvstore/store.hpp"
#include "sim/engine.hpp"

namespace rill::kvstore {
namespace {

struct ScriptedHook : Store::FaultHook {
  bool down{false};
  SimDuration slow{0};
  bool unavailable(int /*shard*/) override { return down; }
  SimDuration extra_latency(int /*shard*/) override { return slow; }
};

struct RetryFixture : ::testing::Test {
  sim::Engine engine;
  cluster::Cluster clu{engine};
  VmId client_vm, store_vm;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Store> store;
  ScriptedHook hook;

  void SetUp() override {
    client_vm = clu.provision(cluster::VmType::D2, "client");
    store_vm = clu.provision(cluster::VmType::D3, "redis");
    net::NetworkConfig ncfg;
    ncfg.jitter_frac = 0.0;
    network = std::make_unique<net::Network>(engine, clu, ncfg, Rng(1));
    store = std::make_unique<Store>(engine, *network, store_vm);
    store->set_fault_hook(&hook);
  }
};

TEST_F(RetryFixture, OutageExhaustsAttemptsAndFails) {
  hook.down = true;
  bool done = false, ok = true;
  store->put(client_vm, "k", Bytes(8, 1), [&](bool s) {
    done = true;
    ok = s;
  });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  const StoreStats& st = store->stats();
  const auto attempts = static_cast<std::uint64_t>(StoreConfig::max_attempts);
  EXPECT_EQ(st.timeouts, attempts);
  EXPECT_EQ(st.retries, attempts - 1);
  EXPECT_EQ(st.failed_requests, 1u);
  EXPECT_EQ(st.outage_drops, attempts);
  EXPECT_FALSE(store->peek("k").has_value());
}

TEST_F(RetryFixture, BackoffSpacesTheAttempts) {
  hook.down = true;
  SimTime failed_at = 0;
  store->put(client_vm, "k", Bytes(8, 1),
             [&](bool) { failed_at = engine.now(); });
  engine.run();
  // 4 × 800 ms timeouts plus 3 backoffs (50/100/200 ms, jittered ≤ 1.25×).
  const double sec = time::at_sec(failed_at);
  EXPECT_GT(sec, 3.5);
  EXPECT_LT(sec, 4.0);
}

TEST_F(RetryFixture, RecoversWhenOutageLiftsMidRetry) {
  hook.down = true;
  // Server comes back after the first attempt has already timed out.
  engine.schedule_detached(time::ms(900), [this] { hook.down = false; });
  bool done = false, ok = false;
  store->put(client_vm, "k", Bytes(8, 1), [&](bool s) {
    done = true;
    ok = s;
  });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_GE(store->stats().retries, 1u);
  EXPECT_EQ(store->stats().failed_requests, 0u);
  EXPECT_TRUE(store->peek("k").has_value());
}

TEST_F(RetryFixture, GetSurfacesFailureDistinctFromMissingKey) {
  hook.down = true;
  bool ok = true;
  bool value_seen = false;
  store->get(client_vm, "nope", [&](bool s, std::optional<Bytes> v) {
    ok = s;
    value_seen = v.has_value();
  });
  engine.run();
  EXPECT_FALSE(ok);  // unreachable ≠ absent: (false, nullopt)
  EXPECT_FALSE(value_seen);
}

TEST_F(RetryFixture, SlowServerWithinTimeoutNeedsNoRetry) {
  hook.slow = time::ms(300);
  bool ok = false;
  store->put(client_vm, "k", Bytes(8, 1), [&](bool s) { ok = s; });
  engine.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(store->stats().retries, 0u);
  EXPECT_EQ(store->stats().timeouts, 0u);
}

TEST_F(RetryFixture, LatencySpikePastTimeoutRetriesIdempotently) {
  hook.slow = time::sec(1);  // beyond the 800 ms request timeout
  engine.schedule_detached(time::ms(900), [this] { hook.slow = 0; });
  bool done = false, ok = false;
  store->put(client_vm, "k", Bytes(8, 1), [&](bool s) {
    done = true;
    ok = s;
  });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_GE(store->stats().timeouts, 1u);
  // The slow first attempt still landed server-side; the retry overwrote
  // the same key — idempotence keeps the outcome correct.
  EXPECT_TRUE(store->peek("k").has_value());
}

}  // namespace
}  // namespace rill::kvstore
