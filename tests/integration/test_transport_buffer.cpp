// Bounded sender-side transport buffer: tuples addressed to a worker that
// is still Starting are buffered up to `max_transport_buffer`; beyond the
// cap they are dropped, counted, and recovered by the acker's replay path
// (Storm's netty write-buffer high-water mark).
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rill {
namespace {

using core::StrategyKind;
using workloads::DagKind;
using workloads::ScaleKind;

workloads::ExperimentConfig dsm_cfg(std::size_t cap) {
  workloads::ExperimentConfig cfg;
  cfg.dag = DagKind::Linear;
  cfg.strategy = StrategyKind::DSM;
  cfg.scale = ScaleKind::In;
  cfg.platform.seed = 42;
  cfg.platform.max_transport_buffer = cap;
  cfg.run_duration = time::sec(420);
  cfg.migrate_at = time::sec(60);
  return cfg;
}

// DSM restarts the dataflow without pausing the source, so the relaunched
// workers spend their ~30 s startup absorbing live traffic into the
// transport buffer.  A tiny cap must overflow — and every dropped tuple
// must come back via replay, preserving at-least-once delivery.
TEST(TransportBuffer, TinyCapOverflowsAndReplayRecovers) {
  const auto r = workloads::run_experiment(dsm_cfg(2));
  ASSERT_TRUE(r.migration_succeeded);
  EXPECT_GT(r.transport_overflow, 0u);
  EXPECT_GT(r.report.replayed_messages, 0u);

  // At-least-once still holds: every settled root reaches the sink on
  // every path, overflow drops included.
  testutil::expect_at_least_once(
      r, static_cast<SimTime>(time::sec(420) - time::sec(90)));
}

// Control: the default cap is sized so the Starting window never fills it —
// the bound is a safety valve, not a behaviour change.
TEST(TransportBuffer, DefaultCapNeverOverflows) {
  workloads::ExperimentConfig cfg = dsm_cfg(2);
  cfg.platform.max_transport_buffer = dsps::PlatformConfig{}.max_transport_buffer;
  const auto r = workloads::run_experiment(cfg);
  ASSERT_TRUE(r.migration_succeeded);
  EXPECT_EQ(r.transport_overflow, 0u);
}

}  // namespace
}  // namespace rill
