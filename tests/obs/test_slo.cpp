#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "metrics/series.hpp"
#include "obs/names.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"

namespace rill::obs {
namespace {

constexpr std::uint64_t kSec = 1'000'000;

// A finished run's series: close the window holding the last arrival, then
// trim trailing empties.
void finish(OnlineSloMonitor& slo, SimTime last_arrival) {
  slo.advance_to(last_arrival + slo.config().window_sec * kSec);
  slo.finalize();
}

TEST(SloMonitor, NoSamplesYieldsNoWindows) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/1000, /*window_sec=*/10});
  finish(slo, 0);
  EXPECT_TRUE(slo.windows().empty());
  EXPECT_TRUE(slo.violations().empty());
  EXPECT_EQ(slo.violated_windows(), 0u);
  EXPECT_EQ(slo.burn_per_mille(), 0u);
}

TEST(SloMonitor, BucketsByArrivalWindowAndComputesNearestRank) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/0, /*window_sec=*/10});
  // Window [0,10): latencies 10, 20, 30.  Window [10,20): latency 500.
  slo.record(1 * kSec, 30);
  slo.record(2 * kSec, 10);
  slo.record(9 * kSec, 20);
  slo.record(15 * kSec, 500);
  finish(slo, 15 * kSec);

  ASSERT_EQ(slo.windows().size(), 2u);
  const SloWindow& w0 = slo.windows()[0];
  EXPECT_EQ(w0.start_sec, 0u);
  EXPECT_EQ(w0.count, 3u);
  EXPECT_EQ(w0.p50_us, 20u);
  EXPECT_EQ(w0.p99_us, 30u);
  EXPECT_FALSE(w0.violated);  // target 0 = flagging disabled
  const SloWindow& w1 = slo.windows()[1];
  EXPECT_EQ(w1.start_sec, 10u);
  EXPECT_EQ(w1.count, 1u);
  EXPECT_EQ(w1.p99_us, 500u);
  EXPECT_FALSE(w1.violated);
  EXPECT_TRUE(slo.violations().empty());
}

TEST(SloMonitor, WindowSeriesStartsAtFirstArrivalWindow) {
  OnlineSloMonitor slo(SloConfig{0, 10});
  slo.record(95 * kSec, 1);
  finish(slo, 95 * kSec);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.windows()[0].start_sec, 90u);
}

TEST(SloMonitor, EmptyInteriorWindowIsViolatedWhenTargetSet) {
  // Arrivals at [0,10) and [30,40); windows [10,20) and [20,30) are silent
  // — a migration pause — and must be flagged even though no sample
  // exceeded the target.
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/1000, /*window_sec=*/10});
  slo.record(5 * kSec, 100);
  slo.record(35 * kSec, 100);
  finish(slo, 35 * kSec);

  ASSERT_EQ(slo.windows().size(), 4u);
  EXPECT_FALSE(slo.windows()[0].violated);
  EXPECT_TRUE(slo.windows()[1].violated);
  EXPECT_TRUE(slo.windows()[2].violated);
  EXPECT_FALSE(slo.windows()[3].violated);
  EXPECT_EQ(slo.violated_windows(), 2u);

  // The two consecutive violated windows merge into one run [10, 30).
  ASSERT_EQ(slo.violations().size(), 1u);
  EXPECT_EQ(slo.violations()[0].start_sec, 10u);
  EXPECT_EQ(slo.violations()[0].end_sec, 30u);

  // 2 of 4 windows violated → 500 per mille.
  EXPECT_EQ(slo.burn_per_mille(), 500u);
}

TEST(SloMonitor, EmptyInteriorWindowIsFineWithoutTarget) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/0, /*window_sec=*/10});
  slo.record(5 * kSec, 100);
  slo.record(25 * kSec, 100);
  finish(slo, 25 * kSec);
  ASSERT_EQ(slo.windows().size(), 3u);
  EXPECT_EQ(slo.violated_windows(), 0u);
}

TEST(SloMonitor, SeparateViolationRunsStaySeparate) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 100);    // violated
  slo.record(15 * kSec, 10);    // fine
  slo.record(25 * kSec, 200);   // violated
  finish(slo, 25 * kSec);
  ASSERT_EQ(slo.violations().size(), 2u);
  EXPECT_EQ(slo.violations()[0].start_sec, 0u);
  EXPECT_EQ(slo.violations()[0].end_sec, 10u);
  EXPECT_EQ(slo.violations()[1].start_sec, 20u);
  EXPECT_EQ(slo.violations()[1].end_sec, 30u);
}

TEST(SloMonitor, ZeroWindowWidthClampsToOneSecond) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/0, /*window_sec=*/0});
  EXPECT_EQ(slo.config().window_sec, 1u);
  slo.record(0, 5);
  slo.record(1 * kSec + 1, 7);
  finish(slo, 1 * kSec + 1);
  EXPECT_EQ(slo.windows().size(), 2u);
}

TEST(SloMonitor, ExportToWritesSloInstruments) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 100);   // violated
  slo.record(15 * kSec, 10);   // fine
  finish(slo, 15 * kSec);

  MetricsRegistry reg;
  slo.export_to(reg);
  EXPECT_EQ(reg.counter(names::slo_metric("windows"))->value(), 2u);
  EXPECT_EQ(reg.counter(names::slo_metric("violated_windows"))->value(), 1u);
  EXPECT_EQ(reg.counter(names::slo_metric("violations"))->value(), 1u);
  EXPECT_EQ(reg.counter(names::slo_metric("burn_per_mille"))->value(), 500u);
  EXPECT_EQ(reg.counter(names::slo_metric("target_p99_us"))->value(), 50u);
  const Histogram& p99 = *reg.histogram(names::slo_metric("window_p99_us"));
  EXPECT_EQ(p99.count(), 2u);  // one sample per non-empty window
  EXPECT_EQ(p99.max(), 100u);
}

// ---- OnlineSloMonitor: queried live, mid-run ----
//
// Edge pins for the online empty-window rule: the current,
// not-yet-elapsed window must never count as violated, and
// leading/trailing empty windows stay excluded.

TEST(OnlineSloMonitor, OpenWindowIsNeverViolated) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  // One over-target sample in the window [0,10), queried mid-window: the
  // window has not elapsed, so nothing is closed and nothing is violated.
  slo.record(2 * kSec, 999);
  slo.advance_to(9 * kSec);
  EXPECT_TRUE(slo.windows().empty());
  EXPECT_EQ(slo.violated_windows(), 0u);
  EXPECT_EQ(slo.violated_streak(), 0);
  // The instant the window elapses it closes — and is violated.
  slo.advance_to(10 * kSec);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_TRUE(slo.windows()[0].violated);
  EXPECT_EQ(slo.violated_streak(), 1);
}

TEST(OnlineSloMonitor, CurrentEmptyWindowDoesNotCountAsViolated) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 10);
  // Sinks silent since t=10 s; at t=29 s the windows [10,20) has closed
  // (violated: silence after traffic), but [20,30) is still open and must
  // NOT be counted even though it is empty so far.
  slo.advance_to(29 * kSec);
  ASSERT_EQ(slo.windows().size(), 2u);
  EXPECT_FALSE(slo.windows()[0].violated);
  EXPECT_TRUE(slo.windows()[1].violated);
  EXPECT_EQ(slo.violated_windows(), 1u);
}

TEST(OnlineSloMonitor, LeadingEmptyWindowsAreSkipped) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  // No traffic at all until t=95 s: advancing time alone creates nothing.
  slo.advance_to(90 * kSec);
  EXPECT_TRUE(slo.windows().empty());
  slo.record(95 * kSec, 10);
  slo.advance_to(100 * kSec);
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.windows()[0].start_sec, 90u);
  EXPECT_FALSE(slo.windows()[0].violated);
}

TEST(OnlineSloMonitor, TrailingEmptyWindowsAreTrimmedAtFinalize) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 10);
  // Run ends at t=60 s with the sinks silent since t=10 s.  Live, the
  // silent closed windows count as violated; at finalize they turn out to
  // be the shutdown tail and are excluded.
  slo.advance_to(60 * kSec);
  EXPECT_EQ(slo.windows().size(), 6u);
  EXPECT_EQ(slo.violated_windows(), 5u);
  slo.finalize();
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_EQ(slo.violated_windows(), 0u);
  EXPECT_EQ(slo.burn_per_mille(), 0u);
}

TEST(OnlineSloMonitor, InteriorEmptyWindowStaysViolatedThroughFinalize) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/1000, /*window_sec=*/10});
  slo.record(5 * kSec, 100);
  slo.record(35 * kSec, 100);
  slo.advance_to(40 * kSec);
  slo.finalize();
  ASSERT_EQ(slo.windows().size(), 4u);
  EXPECT_FALSE(slo.windows()[0].violated);
  EXPECT_TRUE(slo.windows()[1].violated);
  EXPECT_TRUE(slo.windows()[2].violated);
  EXPECT_FALSE(slo.windows()[3].violated);
  EXPECT_EQ(slo.burn_per_mille(), 500u);
}

TEST(OnlineSloMonitor, RecordPastOpenWindowClosesIt) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 100);   // violated once closed
  slo.record(15 * kSec, 10);   // lands in the next window, closing [0,10)
  ASSERT_EQ(slo.windows().size(), 1u);
  EXPECT_TRUE(slo.windows()[0].violated);
  EXPECT_EQ(slo.windows()[0].count, 1u);
}

TEST(OnlineSloMonitor, StreaksTrackTheTailOfTheClosedSeries) {
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/50, /*window_sec=*/10});
  slo.record(5 * kSec, 999);    // w0 violated
  slo.record(15 * kSec, 999);   // w1 violated
  slo.record(25 * kSec, 10);    // w2 fine
  slo.record(35 * kSec, 10);    // w3 fine
  slo.advance_to(30 * kSec);
  EXPECT_EQ(slo.violated_streak(), 0);
  EXPECT_EQ(slo.ok_streak(), 1);
  slo.advance_to(40 * kSec);
  EXPECT_EQ(slo.ok_streak(), 2);
  EXPECT_EQ(slo.violated_windows(), 2u);
}

// Brute-force reference for a finished run: every window from the first
// arrival's to the last arrival's, each bucketed independently, with the
// nearest rank computed in integers (rank = ceil(permille * n / 1000)).
std::vector<SloWindow> reference_series(
    const SloConfig& cfg,
    const std::vector<std::pair<SimTime, std::uint64_t>>& samples) {
  std::vector<SloWindow> out;
  if (samples.empty()) return out;
  const std::uint64_t width = cfg.window_sec * kSec;
  const std::uint64_t first = samples.front().first / width;
  const std::uint64_t last = samples.back().first / width;
  for (std::uint64_t w = first; w <= last; ++w) {
    std::vector<std::uint64_t> values;
    for (const auto& [at, latency] : samples) {
      if (at / width == w) values.push_back(latency);
    }
    std::sort(values.begin(), values.end());
    const auto rank = [&](std::uint64_t permille) -> std::uint64_t {
      if (values.empty()) return 0;
      const std::uint64_t r = (permille * values.size() + 999) / 1000;
      return values[std::max<std::uint64_t>(r, 1) - 1];
    };
    SloWindow win;
    win.start_sec = w * cfg.window_sec;
    win.count = values.size();
    win.p50_us = rank(500);
    win.p95_us = rank(950);
    win.p99_us = rank(990);
    win.violated = cfg.target_p99_us > 0 &&
                   (values.empty() || win.p99_us > cfg.target_p99_us);
    out.push_back(win);
  }
  return out;
}

TEST(OnlineSloMonitor, FinalizedSeriesMatchesBatchMonitor) {
  // Equivalence: over seeded random arrival streams, a finalized monitor
  // reproduces the brute-force window series, violation runs and burn
  // exactly — whether advanced just past the last arrival or further.
  std::uint64_t boundary_samples = 0;
  std::uint64_t gap_windows = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const SloConfig cfg{/*target_p99_us=*/rng.uniform_int(0, 1) * 300,
                        /*window_sec=*/rng.uniform_int(1, 10)};
    const std::uint64_t width = cfg.window_sec * kSec;
    std::vector<std::pair<SimTime, std::uint64_t>> samples;
    SimTime t = rng.uniform_int(0, 100) * kSec;
    const std::uint64_t n = rng.uniform_int(1, 120);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t pick = rng.uniform_int(0, 99);
      if (pick < 5) {
        t += rng.uniform_int(2, 4) * width;  // interior gap
      } else if (pick < 20) {
        t = (t / width + 1) * width;  // exactly on the next boundary
      } else if (pick >= 30) {
        t += rng.uniform_int(0, width / 3);
      }  // else (10 %): a tie with the previous arrival
      if (t % width == 0) ++boundary_samples;
      samples.emplace_back(t, rng.uniform_int(1, 600));
    }

    OnlineSloMonitor online(cfg);
    for (const auto& [at, latency] : samples) online.record(at, latency);
    if (seed % 2 == 0) {
      finish(online, t);
    } else {
      online.advance_to(t + rng.uniform_int(1, 5) * width);
      online.finalize();
    }

    const std::vector<SloWindow> ref = reference_series(cfg, samples);
    ASSERT_EQ(online.windows().size(), ref.size()) << "seed " << seed;
    std::uint64_t violated = 0;
    std::vector<SloViolation> runs;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const SloWindow& got = online.windows()[i];
      EXPECT_EQ(got.start_sec, ref[i].start_sec) << "seed " << seed;
      EXPECT_EQ(got.count, ref[i].count) << "seed " << seed;
      EXPECT_EQ(got.p50_us, ref[i].p50_us) << "seed " << seed;
      EXPECT_EQ(got.p95_us, ref[i].p95_us) << "seed " << seed;
      EXPECT_EQ(got.p99_us, ref[i].p99_us) << "seed " << seed;
      EXPECT_EQ(got.violated, ref[i].violated) << "seed " << seed;
      if (ref[i].count == 0) ++gap_windows;
      if (!ref[i].violated) continue;
      ++violated;
      const std::uint64_t end = ref[i].start_sec + cfg.window_sec;
      if (!runs.empty() && runs.back().end_sec == ref[i].start_sec) {
        runs.back().end_sec = end;
      } else {
        runs.push_back(SloViolation{ref[i].start_sec, end});
      }
    }
    EXPECT_EQ(online.violated_windows(), violated) << "seed " << seed;
    EXPECT_EQ(online.burn_per_mille(), violated * 1000 / ref.size())
        << "seed " << seed;
    const std::vector<SloViolation> got_runs = online.violations();
    ASSERT_EQ(got_runs.size(), runs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(got_runs[i].start_sec, runs[i].start_sec) << "seed " << seed;
      EXPECT_EQ(got_runs[i].end_sec, runs[i].end_sec) << "seed " << seed;
    }
  }
  // The streams exercised the two edges the equivalence hinges on.
  EXPECT_GT(boundary_samples, 100u);
  EXPECT_GT(gap_windows, 100u);
}

// Everything the autoscale controller and the report read from a monitor.
auto observed(const OnlineSloMonitor& m) {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, bool>>
      windows;
  for (const SloWindow& w : m.windows()) {
    windows.emplace_back(w.start_sec, w.count, w.p50_us, w.p95_us, w.p99_us,
                         w.violated);
  }
  return std::tuple(windows, m.violated_streak(), m.ok_streak(),
                    m.burn_per_mille());
}

TEST(OnlineSloMonitor, TickBatchedFeedMatchesPerArrivalFeed) {
  // The autoscale controller records the arrivals logged since its last
  // tick right before each advance_to(tick), not one at a time as they
  // happen.  Both feeds must agree at every tick and after finalize().  An
  // arrival on a tick instant may come before or after the tick in event
  // order; after it, the batched feed holds it back to the next tick.
  constexpr SimTime kTick = 5 * kSec;  // the controller's decision period
  std::uint64_t on_tick = 0;
  std::uint64_t after_tick = 0;
  std::uint64_t on_edge = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const SloConfig cfg{/*target_p99_us=*/rng.uniform_int(0, 1) * 300,
                        /*window_sec=*/rng.uniform_int(1, 12)};
    const std::uint64_t width = cfg.window_sec * kSec;
    struct Arrival {
      SimTime at;
      std::uint64_t latency_us;
      bool after_tick;
    };
    std::vector<Arrival> arrivals;
    SimTime t = rng.uniform_int(0, 40) * kSec;
    const std::uint64_t n = rng.uniform_int(1, 150);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t pick = rng.uniform_int(0, 99);
      if (pick < 5) {
        t += rng.uniform_int(2, 4) * width;  // interior gap
      } else if (pick < 20) {
        t = (t / width + 1) * width;  // exactly on the next window edge
      } else if (pick < 35) {
        t = (t / kTick + 1) * kTick;  // exactly on the next tick
      } else if (pick >= 45) {
        t += rng.uniform_int(0, 3 * kSec);
      }  // else (10 %): a tie with the previous arrival
      const bool late = t % kTick == 0 && rng.uniform_int(0, 1) == 1;
      on_tick += t % kTick == 0 ? 1 : 0;
      after_tick += late ? 1 : 0;
      on_edge += t % width == 0 ? 1 : 0;
      arrivals.push_back(Arrival{t, rng.uniform_int(1, 600), late});
    }

    OnlineSloMonitor per_arrival(cfg);
    OnlineSloMonitor batched(cfg);
    std::size_t happened = 0;
    std::size_t fed = 0;
    const auto happen_until = [&](SimTime tick) {
      for (; happened < arrivals.size(); ++happened) {
        const Arrival& a = arrivals[happened];
        if (a.at > tick || (a.at == tick && a.after_tick)) break;
        per_arrival.record(a.at, a.latency_us);
      }
    };
    const auto feed = [&] {
      for (; fed < happened; ++fed) {
        batched.record(arrivals[fed].at, arrivals[fed].latency_us);
      }
    };
    for (SimTime tick = kTick; tick <= t + kTick; tick += kTick) {
      happen_until(tick);
      feed();
      batched.advance_to(tick);
      per_arrival.advance_to(tick);
      ASSERT_EQ(observed(per_arrival), observed(batched))
          << "seed " << seed << ", tick at " << tick / kSec << " s";
    }
    happen_until(t + kTick);
    feed();
    finish(per_arrival, t);
    finish(batched, t);
    ASSERT_EQ(observed(per_arrival), observed(batched)) << "seed " << seed;
  }
  // The streams exercised the instants the equivalence hinges on.
  EXPECT_GT(on_tick, 100u);
  EXPECT_GT(after_tick, 50u);
  EXPECT_GT(on_edge, 100u);
}

// Boundary pins for the windowed-percentile fix: the report's whole-run
// window ends exactly at the run duration, and a final sink arrival landing
// on that boundary is a real sample.  The old half-open filter dropped it
// and reported the previous (stale) window's tail.

TEST(LatencyWindowBoundary, ArrivalExactlyOnWindowEndIsIncluded) {
  metrics::LatencySeries s;
  s.add(1 * kSec, 10'000);    // 10 ms early on
  s.add(420 * kSec, 90'000);  // final arrival lands on the run-end boundary
  const auto p99 = s.percentile_ms(0.99, 0, 420 * kSec);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 90.0);  // the off-by-one reported 10 ms here
  const auto med = s.median_ms(0, 420 * kSec);
  ASSERT_TRUE(med.has_value());
  EXPECT_DOUBLE_EQ(*med, 90.0);  // nearest-rank over both samples
}

TEST(LatencyWindowBoundary, LoneBoundarySampleStillYieldsAValue) {
  metrics::LatencySeries s;
  s.add(60 * kSec, 25'000);
  // A window whose only sample sits on its end must not read as empty.
  const auto p = s.percentile_ms(0.99, 50 * kSec, 60 * kSec);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 25.0);
}

TEST(LatencyWindowBoundary, SamplesPastTheWindowStayExcluded) {
  metrics::LatencySeries s;
  s.add(5 * kSec, 10'000);
  s.add(10 * kSec, 20'000);      // on the boundary: in
  s.add(10 * kSec + 1, 99'000);  // one tick past: out
  const auto p = s.percentile_ms(0.99, 0, 10 * kSec);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 20.0);
}

// ---- nearest ranks by selection (the window close path) ----

TEST(SelectNearestRanks, MatchesSortingOnRandomWindows) {
  Rng rng(2024);
  // Every size from 0 to 300 twice, each once with distinct values and
  // once drawn from a handful of values, so ties straddle the ranks.
  for (std::size_t n = 0; n <= 300; ++n) {
    for (const std::uint64_t spread :
         {std::uint64_t{1} << 40, std::uint64_t{4}}) {
      std::vector<std::uint64_t> values(n);
      for (std::uint64_t& v : values) v = rng.uniform_int(0, spread);
      std::vector<std::uint64_t> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const NearestRanks got = select_nearest_ranks(values);
      EXPECT_EQ(got.p50, nearest_rank(sorted, 0.50)) << n << " samples";
      EXPECT_EQ(got.p95, nearest_rank(sorted, 0.95)) << n << " samples";
      EXPECT_EQ(got.p99, nearest_rank(sorted, 0.99)) << n << " samples";
      // Selection only reorders the window.
      std::sort(values.begin(), values.end());
      EXPECT_EQ(values, sorted);
    }
  }
}

TEST(SelectNearestRanks, TinyAndTiedWindows) {
  std::vector<std::uint64_t> none;
  const NearestRanks empty = select_nearest_ranks(none);
  EXPECT_EQ(empty.p50, 0u);
  EXPECT_EQ(empty.p95, 0u);
  EXPECT_EQ(empty.p99, 0u);

  std::vector<std::uint64_t> one = {7};
  const NearestRanks single = select_nearest_ranks(one);
  EXPECT_EQ(single.p50, 7u);
  EXPECT_EQ(single.p99, 7u);

  // Two samples: p50 is rank 1, p95 and p99 are rank 2.
  std::vector<std::uint64_t> two = {9, 3};
  const NearestRanks pair = select_nearest_ranks(two);
  EXPECT_EQ(pair.p50, 3u);
  EXPECT_EQ(pair.p95, 9u);
  EXPECT_EQ(pair.p99, 9u);

  std::vector<std::uint64_t> ties(100, 5);
  ties[0] = 1;
  ties[99] = 8;
  const NearestRanks tied = select_nearest_ranks(ties);
  EXPECT_EQ(tied.p50, 5u);
  EXPECT_EQ(tied.p95, 5u);
  EXPECT_EQ(tied.p99, 5u);  // rank 99 of 100
}

TEST(SloMonitor, WindowRanksMatchTheSortedNearestRanks) {
  // The monitor's windows, fed out of order within each window, read the
  // same ranks as sorting each window.
  Rng rng(77);
  OnlineSloMonitor slo(SloConfig{/*target_p99_us=*/0, /*window_sec=*/10});
  std::vector<std::vector<std::uint64_t>> per_window(6);
  for (std::size_t w = 0; w < per_window.size(); ++w) {
    const std::uint64_t n = w == 2 ? 1 : w == 4 ? 2 : rng.uniform_int(3, 90);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t lat = rng.uniform_int(0, 20) * 1000;
      per_window[w].push_back(lat);
      slo.record(w * 10 * kSec + i, lat);
    }
  }
  finish(slo, (per_window.size() - 1) * 10 * kSec);
  ASSERT_EQ(slo.windows().size(), per_window.size());
  for (std::size_t w = 0; w < per_window.size(); ++w) {
    std::vector<std::uint64_t> sorted = per_window[w];
    std::sort(sorted.begin(), sorted.end());
    const SloWindow& got = slo.windows()[w];
    EXPECT_EQ(got.count, sorted.size());
    EXPECT_EQ(got.p50_us, nearest_rank(sorted, 0.50)) << "window " << w;
    EXPECT_EQ(got.p95_us, nearest_rank(sorted, 0.95)) << "window " << w;
    EXPECT_EQ(got.p99_us, nearest_rank(sorted, 0.99)) << "window " << w;
  }
}

}  // namespace
}  // namespace rill::obs
