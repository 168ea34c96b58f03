// MigrationController runs one migration at a time.  A request arriving
// while one is in flight (or mid abort→re-pin→retry) is rejected at once
// with on_done(false), and the in-flight migration runs on untouched: it
// is never double-triggered and completes exactly once.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "core/controller.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace rill::core {
namespace {

using testutil::Harness;

struct ControllerRig {
  Harness h;
  obs::Tracer tracer;
  std::unique_ptr<MigrationStrategy> strategy;
  std::unique_ptr<MigrationController> controller;
  std::vector<VmId> target_a;
  std::vector<VmId> target_b;
  /// Completions in order: +id on success, -id on failure.
  std::vector<int> done;

  explicit ControllerRig(StrategyKind kind = StrategyKind::CCR,
                         ControllerConfig cc = {})
      : h(testutil::mini_chain()) {
    h.p().set_tracer(&tracer);
    strategy = make_strategy(kind);
    strategy->configure(h.p());
    controller =
        std::make_unique<MigrationController>(h.p(), *strategy, cc);
    target_a = h.p().cluster().provision_n(cluster::VmType::D1,
                                           h.p().topology().worker_instances(),
                                           "ta");
    target_b = h.p().cluster().provision_n(cluster::VmType::D3, 1, "tb");
  }

  dsps::MigrationPlan plan_to(const std::vector<VmId>& vms) {
    dsps::MigrationPlan plan;
    plan.target_vms = vms;
    plan.scheduler = &h.scheduler;
    return plan;
  }

  void request(const std::vector<VmId>& vms, int id) {
    controller->request(plan_to(vms),
                        [this, id](bool ok) { done.push_back(ok ? id : -id); });
  }

  /// The platform carries CCR's session knobs: user acking off, no
  /// periodic waves.
  void expect_ccr_knobs() {
    EXPECT_FALSE(h.p().user_acking());
    EXPECT_FALSE(h.p().coordinator().periodic_running());
  }

  /// The controller's own instants named `name` (strategies write to the
  /// same track under another category).
  [[nodiscard]] int instants(std::string_view name) const {
    int n = 0;
    for (const obs::Tracer::Record& r : tracer.records()) {
      if (r.track == obs::kTrackController &&
          std::string_view(r.cat) == "controller" && r.name == name) {
        ++n;
      }
    }
    return n;
  }
};

TEST(ControllerQueue, RequestWhileInFlightIsRejectedSynchronously) {
  ControllerRig rig;
  rig.h.p().start();
  rig.h.run_for(time::sec(30));
  rig.request(rig.target_a, 1);
  ASSERT_TRUE(rig.controller->in_flight());

  // A second request 1 s later, squarely inside the first migration (CCR
  // takes tens of seconds): refused before request() returns.
  rig.h.run_for(time::sec(1));
  rig.request(rig.target_b, 2);
  ASSERT_EQ(rig.done, std::vector<int>{-2});
  EXPECT_TRUE(rig.controller->in_flight());

  // The first migration completes exactly once; the second never started.
  rig.h.run_for(time::sec(360));
  EXPECT_FALSE(rig.controller->in_flight());
  EXPECT_EQ(rig.done, (std::vector<int>{-2, 1}));
  EXPECT_EQ(rig.instants("request"), 1);
  EXPECT_EQ(rig.instants("rejected"), 1);
  EXPECT_EQ(rig.instants("done"), 1);
}

TEST(ControllerQueue, RequestDuringRetryBackoffIsRejectedSynchronously) {
  // Make the first attempt abort: an init deadline far shorter than the
  // worker start-up window guarantees the restore misses it and the
  // attempt rolls back, putting the controller into its backoff window.
  ControllerConfig cc;
  cc.max_attempts = 2;
  ControllerRig rig(StrategyKind::CCR, cc);
  rig.h.p().config_mut().init_deadline = time::sec(5);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));
  rig.request(rig.target_a, 1);
  // Run until the first attempt has rolled back (its abort, re-pin and
  // recovery end at about 89 s): the controller waits out its 5 s retry
  // backoff, but the request is still in flight.
  rig.h.run_for(time::sec(60));
  ASSERT_TRUE(rig.controller->in_flight());
  ASSERT_GT(rig.controller->recovery().aborted_attempts, 0);
  ASSERT_EQ(rig.instants("retry"), 1);
  ASSERT_EQ(rig.instants("attempt"), 1);
  const int attempts = rig.controller->recovery().attempts;

  // Refused at once, without starting an attempt or resetting the
  // recovery bookkeeping of the migration in flight.
  rig.request(rig.target_b, 2);
  ASSERT_EQ(rig.done, std::vector<int>{-2});
  EXPECT_TRUE(rig.controller->in_flight());
  EXPECT_EQ(rig.controller->recovery().attempts, attempts);
  EXPECT_GT(rig.controller->recovery().aborted_attempts, 0);

  // The retries (and, if needed, the DSM fallback) run to completion: the
  // first migration finishes exactly once.
  rig.h.run_for(time::sec(600));
  EXPECT_FALSE(rig.controller->in_flight());
  ASSERT_EQ(rig.done.size(), 2u);
  EXPECT_EQ(std::abs(rig.done[1]), 1);
  EXPECT_EQ(rig.instants("request"), 1);
  EXPECT_EQ(rig.instants("rejected"), 1);
  EXPECT_EQ(rig.instants("done"), 1);
}

TEST(ControllerQueue, ExplicitStrategyKindOverridesBoundStrategy) {
  // Bound strategy is CCR; an explicit DSM request must run DSM (acking
  // on, no capture) and leave the controller reusable.
  ControllerRig rig(StrategyKind::CCR);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));

  bool done = false;
  rig.controller->request(rig.plan_to(rig.target_a), StrategyKind::DSM,
                          [&](bool ok) { done = ok; });
  // DSM's configure() switches user acking on for the session.
  EXPECT_TRUE(rig.h.p().user_acking());
  rig.h.run_for(time::sec(300));
  EXPECT_TRUE(done);
  EXPECT_TRUE(rig.controller->succeeded());
}

TEST(ControllerQueue, BoundRequestAfterExplicitKindReassertsItsKnobs) {
  // An explicit DSM request turns acking and periodic waves on.  The next
  // request with the bound CCR strategy must turn them back off: a CCR
  // migration under DSM's knobs is neither.
  ControllerRig rig(StrategyKind::CCR);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));
  rig.controller->request(rig.plan_to(rig.target_a), StrategyKind::DSM,
                          [&rig](bool ok) { rig.done.push_back(ok ? 1 : -1); });
  rig.h.run_for(time::sec(305));
  ASSERT_EQ(rig.done, std::vector<int>{1});
  ASSERT_TRUE(rig.h.p().user_acking());

  rig.request(rig.target_b, 2);
  rig.expect_ccr_knobs();
  rig.h.run_for(time::sec(300));
  EXPECT_EQ(rig.done, (std::vector<int>{1, 2}));
  // CCR ran: only a checkpointed strategy pauses and unpauses the sources.
  EXPECT_TRUE(rig.controller->phases().sources_unpaused.has_value());
}

TEST(ControllerQueue, BoundRequestOnAPeriodicTickRunsTheBoundStrategy) {
  // After an explicit DSM request, DSM's periodic waves tick every 30 s
  // from 30 s.  A bound CCR request made on the 330 s tick finds that wave
  // in flight: CCR's configure() leaves the wave's wiring alone, and CCR's
  // checkpoint waits for the wave to commit, so the first attempt runs.
  ControllerRig rig(StrategyKind::CCR);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));
  rig.controller->request(rig.plan_to(rig.target_a), StrategyKind::DSM,
                          [&rig](bool ok) { rig.done.push_back(ok ? 1 : -1); });
  rig.h.run_for(time::sec(300));
  ASSERT_EQ(rig.done, std::vector<int>{1});
  ASSERT_TRUE(rig.h.p().coordinator().checkpoint_in_progress());

  rig.request(rig.target_b, 2);
  rig.expect_ccr_knobs();
  rig.h.run_for(time::sec(300));
  EXPECT_EQ(rig.done, (std::vector<int>{1, 2}));
  EXPECT_EQ(rig.controller->recovery().attempts, 1);
  EXPECT_EQ(rig.controller->recovery().aborted_attempts, 0);
  EXPECT_FALSE(rig.controller->recovery().fell_back);
  EXPECT_EQ(rig.h.p().coordinator().stats().waves_aborted_on_death, 0u);
  EXPECT_TRUE(rig.controller->phases().sources_unpaused.has_value());
}

TEST(ControllerQueue, BoundRequestAfterFallbackReassertsItsKnobs) {
  // The first CCR attempt misses its INIT deadline and the controller
  // degrades to DSM, which leaves DSM's knobs on the platform.  The next
  // request with the bound CCR strategy must re-assert CCR's.
  ControllerConfig cc;
  cc.max_attempts = 1;
  ControllerRig rig(StrategyKind::CCR, cc);
  rig.h.p().config_mut().init_deadline = time::sec(5);
  rig.h.p().start();
  rig.h.run_for(time::sec(30));
  rig.request(rig.target_a, 1);
  rig.h.run_for(time::sec(600));
  ASSERT_EQ(rig.done.size(), 1u);
  ASSERT_TRUE(rig.controller->recovery().fell_back);
  ASSERT_TRUE(rig.h.p().user_acking());

  rig.h.p().config_mut().init_deadline = time::sec(120);
  rig.request(rig.target_b, 2);
  rig.expect_ccr_knobs();
  rig.h.run_for(time::sec(300));
  ASSERT_EQ(rig.done.size(), 2u);
  EXPECT_EQ(rig.done[1], 2);
  EXPECT_FALSE(rig.controller->recovery().fell_back);
}

}  // namespace
}  // namespace rill::core
