// Unit tests for the adaptive-policy estimators and the pure solve():
// MTTF per-kind / combined convergence on seeded synthetic failure streams,
// MTTR EWMA behaviour, and every branch of the Young/Daly-with-RTO solve.
#include <gtest/gtest.h>

#include <cmath>

#include "chaos/plan.hpp"
#include "ckpt/estimators.hpp"
#include "ckpt/policy.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace rill {
namespace {

using chaos::FaultKind;
using ckpt::MttfEstimator;
using ckpt::MttrEstimator;
using ckpt::PolicyConfig;
using ckpt::PolicyDecision;
using ckpt::PolicyInputs;

TEST(MttfEstimator, NoEstimateUntilTwoEventsOfAKind) {
  MttfEstimator est;
  EXPECT_FALSE(est.combined_mttf().has_value());
  est.note_failure(FaultKind::WorkerCrash, time::sec(10));
  EXPECT_FALSE(est.kind_mttf(FaultKind::WorkerCrash).has_value());
  EXPECT_FALSE(est.combined_mttf().has_value());
  est.note_failure(FaultKind::VmFailure, time::sec(15));  // different kind
  EXPECT_FALSE(est.combined_mttf().has_value());
  est.note_failure(FaultKind::WorkerCrash, time::sec(40));
  ASSERT_TRUE(est.kind_mttf(FaultKind::WorkerCrash).has_value());
  EXPECT_EQ(*est.kind_mttf(FaultKind::WorkerCrash), time::sec(30));
  EXPECT_EQ(est.failures(), 3u);
  EXPECT_EQ(est.kind_count(FaultKind::WorkerCrash), 2u);
  EXPECT_EQ(est.kind_count(FaultKind::VmFailure), 1u);
  EXPECT_EQ(est.kind_count(FaultKind::KvOutage), 0u);
}

TEST(MttfEstimator, ConstantGapsGiveExactMttf) {
  MttfEstimator est(0.3);
  for (int i = 0; i < 10; ++i) {
    est.note_failure(FaultKind::WorkerCrash,
                     static_cast<SimTime>(i) * time::sec(50));
  }
  ASSERT_TRUE(est.kind_mttf(FaultKind::WorkerCrash).has_value());
  EXPECT_EQ(*est.kind_mttf(FaultKind::WorkerCrash), time::sec(50));
  EXPECT_EQ(*est.combined_mttf(), time::sec(50));
}

TEST(MttfEstimator, CombinedMttfSumsRatesAcrossKinds) {
  MttfEstimator est;
  for (int i = 0; i < 5; ++i) {
    est.note_failure(FaultKind::WorkerCrash,
                     static_cast<SimTime>(i) * time::sec(60));
    est.note_failure(FaultKind::VmFailure,
                     static_cast<SimTime>(i) * time::sec(30));
  }
  // Poisson superposition: 1 / (1/60 + 1/30) = 20 s.
  ASSERT_TRUE(est.combined_mttf().has_value());
  EXPECT_EQ(*est.combined_mttf(), time::sec(20));

  // A kind with a single event contributes nothing yet.
  est.note_failure(FaultKind::KvOutage, time::sec(1));
  EXPECT_EQ(*est.combined_mttf(), time::sec(20));
}

TEST(MttfEstimator, ConvergesOnSeededExponentialStream) {
  // Synthetic Poisson failure stream, mean gap 60 s, fixed seed — the
  // EWMA must settle within a factor-of-2 band around the true mean (an
  // exponential's EWMA has high variance; the band is generous but the
  // run is deterministic, so the assertion is exact in practice).
  const double mean_us = static_cast<double>(time::sec(60));
  Rng rng(7);
  MttfEstimator est(0.1);
  SimTime at = 0;
  for (int i = 0; i < 400; ++i) {
    double u = rng.uniform01();
    if (u <= 0.0) u = 1e-12;
    at += static_cast<SimTime>(-mean_us * std::log(u));
    est.note_failure(FaultKind::WorkerCrash, at);
  }
  ASSERT_TRUE(est.combined_mttf().has_value());
  const double got = static_cast<double>(*est.combined_mttf());
  EXPECT_GT(got, 0.5 * mean_us);
  EXPECT_LT(got, 2.0 * mean_us);
}

TEST(MttrEstimator, FirstSampleAnchorsThenEwmaSmooths) {
  MttrEstimator est(0.5);
  EXPECT_FALSE(est.estimate().has_value());
  est.note_recovery(time::sec(10));
  ASSERT_TRUE(est.estimate().has_value());
  EXPECT_EQ(*est.estimate(), time::sec(10));
  est.note_recovery(time::sec(20));
  EXPECT_EQ(*est.estimate(), time::sec(15));  // 0.5·20 + 0.5·10
  EXPECT_EQ(est.recoveries(), 2u);
  EXPECT_EQ(est.max_seen(), time::sec(20));
}

TEST(MttrEstimator, ConvergesTowardShiftedRecoveryCost) {
  MttrEstimator est(0.3);
  for (int i = 0; i < 20; ++i) est.note_recovery(time::sec(10));
  EXPECT_EQ(*est.estimate(), time::sec(10));
  for (int i = 0; i < 40; ++i) est.note_recovery(time::sec(30));
  const double got = static_cast<double>(*est.estimate());
  EXPECT_NEAR(got, static_cast<double>(time::sec(30)),
              static_cast<double>(time::ms(10)));
}

// ---- solve() ----

PolicyInputs measured_inputs() {
  PolicyInputs in;
  in.mttf = time::sec(3600);  // failures rare: Daly bound is huge
  in.mttr = time::sec(10);
  in.wave_cost = time::sec(1);
  in.replay_ratio = 0.2;
  in.current_interval = time::sec(30);
  in.current_full_every = 8;
  in.base_delta_ratio = 0.5;
  return in;
}

TEST(PolicySolve, HoldsConfiguredStaticsUntilBothEstimatesExist) {
  PolicyConfig cfg;
  PolicyInputs in = measured_inputs();
  in.mttr.reset();
  PolicyDecision d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, in.current_interval);
  EXPECT_EQ(d.full_every, in.current_full_every);
  EXPECT_EQ(d.delta_max_ratio, in.base_delta_ratio);
  EXPECT_FALSE(d.interval_changed);

  in = measured_inputs();
  in.mttf.reset();
  d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, in.current_interval);
  EXPECT_FALSE(d.interval_changed);
}

TEST(PolicySolve, RtoBoundBindsWhenFailuresAreRare) {
  PolicyConfig cfg;
  cfg.rto = time::sec(60);
  static_assert(PolicyConfig::mttr_safety == 1.2);
  const PolicyInputs in = measured_inputs();
  const PolicyDecision d = ckpt::solve(in, cfg);
  // τ_rto = 60 − 1.2·10 = 48 s; τ_daly ≈ 190 s, so the RTO binds.
  EXPECT_EQ(d.interval, time::sec(48));
  EXPECT_TRUE(d.interval_changed);
  // MTTF/τ = 3600/48 = 75 → compaction cadence clamps at the max.
  EXPECT_EQ(d.full_every, 16);
  EXPECT_DOUBLE_EQ(d.delta_max_ratio, 0.5);
}

TEST(PolicySolve, DalyBoundBindsUnderFrequentFailures) {
  PolicyConfig cfg;
  cfg.rto = time::sec(60);
  PolicyInputs in = measured_inputs();
  in.mttf = time::sec(200);
  // τ_daly = sqrt(2 · 200e6 · 1e6 / 0.2) µs ≈ 44.72 s < τ_rto = 48 s,
  // quantized down to 44.7 s.
  const PolicyDecision d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, time::ms(44'700));
  // MTTF/τ = 200/44.7 ≈ 4.47 → full_every 4 → tightened delta threshold.
  EXPECT_EQ(d.full_every, 4);
  EXPECT_DOUBLE_EQ(d.delta_max_ratio, 0.35);
}

TEST(PolicySolve, ClampsToIntervalBounds) {
  PolicyConfig cfg;
  cfg.rto = time::sec(60);
  static_assert(PolicyConfig::min_interval == time::sec(5));
  static_assert(PolicyConfig::max_interval == time::sec(300));

  // Failures every 2 s: the Daly optimum collapses below the floor.
  PolicyInputs in = measured_inputs();
  in.mttf = time::sec(2);
  in.wave_cost = time::ms(100);
  PolicyDecision d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, PolicyConfig::min_interval);
  EXPECT_EQ(d.full_every, PolicyConfig::min_full_every);  // MTTF/τ < 1 clamps up to 2
  EXPECT_DOUBLE_EQ(d.delta_max_ratio, 0.35);

  // A huge RTO with very rare failures stretches past the ceiling
  // (τ_daly = sqrt(2 · 36000e6 µs · 1e6 µs / 0.2) = 600 s).
  in = measured_inputs();
  in.mttf = time::sec(36'000);
  cfg.rto = time::sec(3600);
  d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, PolicyConfig::max_interval);
}

TEST(PolicySolve, HysteresisSuppressesSmallMoves) {
  PolicyConfig cfg;
  cfg.rto = time::sec(60);
  static_assert(PolicyConfig::hysteresis == 0.10);
  PolicyInputs in = measured_inputs();  // solves to 48 s
  in.current_interval = time::sec(46);  // |48−46| = 2 ≤ 4.6 → held
  PolicyDecision d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, time::sec(46));
  EXPECT_FALSE(d.interval_changed);

  in.current_interval = time::sec(30);  // |48−30| = 18 > 3 → moves
  d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, time::sec(48));
  EXPECT_TRUE(d.interval_changed);
}

TEST(PolicySolve, NoWaveCostMeansRtoBoundOnly) {
  PolicyConfig cfg;
  cfg.rto = time::sec(60);
  PolicyInputs in = measured_inputs();
  in.wave_cost = 0;        // no wave committed yet
  in.mttf = time::sec(20);  // would drive a tiny Daly bound if it applied
  const PolicyDecision d = ckpt::solve(in, cfg);
  EXPECT_EQ(d.interval, time::sec(48));
}

}  // namespace
}  // namespace rill
