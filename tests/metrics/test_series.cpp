#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "metrics/series.hpp"

namespace rill::metrics {
namespace {

SimTime at(double sec) { return static_cast<SimTime>(sec * 1e6); }

TEST(RateSeries, BucketsBySecond) {
  RateSeries s;
  s.add(at(0.1));
  s.add(at(0.9));
  s.add(at(1.5));
  EXPECT_EQ(s.count_at(0), 2u);
  EXPECT_EQ(s.count_at(1), 1u);
  EXPECT_EQ(s.count_at(2), 0u);
  EXPECT_EQ(s.total(), 3u);
  EXPECT_EQ(s.seconds(), 2u);
}

TEST(RateSeries, RateOverWindow) {
  RateSeries s;
  for (int i = 0; i < 10; ++i) s.add(at(i + 0.5));
  EXPECT_DOUBLE_EQ(s.rate_over(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_over(0, 20), 0.5);  // zeros beyond the end count
}

TEST(RateSeries, SmoothedRateTrailingWindow) {
  RateSeries s;
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k < (i + 1); ++k) s.add(at(i + 0.5));
  }
  // Buckets: 1,2,3,4,5.  Trailing 3-window at sec 4 → (3+4+5)/3.
  EXPECT_DOUBLE_EQ(s.smoothed_rate(4, 3), 4.0);
  // Clipped at the start.
  EXPECT_DOUBLE_EQ(s.smoothed_rate(0, 3), 1.0);
}

TEST(RateSeries, SmoothedRateSecBelowWindowClipsToStart) {
  RateSeries s;
  // Buckets: 4, 8.  A 10-wide trailing window at sec 1 only spans [0, 1].
  for (int k = 0; k < 4; ++k) s.add(at(0.5));
  for (int k = 0; k < 8; ++k) s.add(at(1.5));
  EXPECT_DOUBLE_EQ(s.smoothed_rate(1, 10), 6.0);
  EXPECT_DOUBLE_EQ(s.smoothed_rate(0, 10), 4.0);
}

TEST(RateSeries, SmoothedRateEmptySeriesIsZero) {
  RateSeries s;
  EXPECT_DOUBLE_EQ(s.smoothed_rate(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(s.smoothed_rate(100, 5), 0.0);
  EXPECT_DOUBLE_EQ(s.smoothed_rate(3, 0), 0.0);  // zero window
}

TEST(RateSeries, SmoothedRatePastEndCountsZeros) {
  RateSeries s;
  for (int k = 0; k < 6; ++k) s.add(at(0.5));
  // Window [1, 3] lies entirely past the single recorded bucket.
  EXPECT_DOUBLE_EQ(s.smoothed_rate(3, 3), 0.0);
  // Window [0, 2] includes the bucket plus two trailing zeros.
  EXPECT_DOUBLE_EQ(s.smoothed_rate(2, 3), 2.0);
}

// The cases below read the paper's criterion: ±20 % for 60 s, on the rate
// smoothed over the trailing 5 s.
static_assert(kStabilizationWindowSec == 60);
static_assert(kStabilizationTolerance == 0.2);
static_assert(kStabilizationSmoothSec == 5);

TEST(FindStabilization, DetectsWindowStart) {
  RateSeries s;
  // 0–9 s: noisy (rate 20); 10–99 s: steady 32/s.
  for (int sec = 0; sec < 10; ++sec) {
    for (int k = 0; k < 20; ++k) s.add(at(sec + 0.5));
  }
  for (int sec = 10; sec < 100; ++sec) {
    for (int k = 0; k < 32; ++k) s.add(at(sec + 0.5));
  }
  // The 5 s average climbs 22.4, 24.8, then 27.2 at 12 s: the first second
  // inside 32 ± 6.4.
  const auto stab = find_stabilization(s, 32.0, 0);
  ASSERT_TRUE(stab.has_value());
  EXPECT_EQ(*stab, 12u);
}

TEST(FindStabilization, RespectsFromSec) {
  RateSeries s;
  for (int sec = 0; sec < 100; ++sec) {
    for (int k = 0; k < 32; ++k) s.add(at(sec + 0.5));
  }
  const auto stab = find_stabilization(s, 32.0, 25);
  ASSERT_TRUE(stab.has_value());
  EXPECT_EQ(*stab, 25u);
}

TEST(FindStabilization, NeverStableReturnsNullopt) {
  RateSeries s;
  for (int sec = 0; sec < 100; ++sec) {
    const int rate = sec % 2 == 0 ? 10 : 60;  // oscillating far off 32
    for (int k = 0; k < rate; ++k) s.add(at(sec + 0.5));
  }
  // Every other 5 s average is 40, above 38.4: no run reaches 60 s.
  EXPECT_FALSE(find_stabilization(s, 32.0, 0).has_value());
}

TEST(FindStabilization, ShortSeriesReturnsNullopt) {
  RateSeries s;
  for (int sec = 0; sec < 30; ++sec) {
    for (int k = 0; k < 32; ++k) s.add(at(sec + 0.5));
  }
  EXPECT_FALSE(find_stabilization(s, 32.0, 0).has_value());
}

TEST(FindStabilization, ZeroExpectedIsInvalid) {
  RateSeries s;
  EXPECT_FALSE(find_stabilization(s, 0.0, 0).has_value());
  // Negative expected rates are equally meaningless.
  EXPECT_FALSE(find_stabilization(s, -5.0, 0).has_value());
  // Even a perfectly steady series cannot stabilize around zero.
  RateSeries steady;
  for (int sec = 0; sec < 100; ++sec) {
    for (int k = 0; k < 32; ++k) steady.add(at(sec + 0.5));
  }
  EXPECT_FALSE(find_stabilization(steady, 0.0, 0).has_value());
}

TEST(FindStabilization, FromSecPastEndReturnsNullopt) {
  RateSeries s;
  for (int sec = 0; sec < 100; ++sec) {
    for (int k = 0; k < 32; ++k) s.add(at(sec + 0.5));
  }
  // Scanning starts beyond the last bucket: no window can ever fill.
  EXPECT_FALSE(find_stabilization(s, 32.0, 100).has_value());
  EXPECT_FALSE(find_stabilization(s, 32.0, 5000).has_value());
}

TEST(FindStabilization, EmptySeriesReturnsNullopt) {
  RateSeries s;
  EXPECT_FALSE(find_stabilization(s, 32.0, 0).has_value());
}

TEST(LatencySeries, WindowedAverage) {
  LatencySeries l;
  l.add(at(1), time::ms(100));
  l.add(at(5), time::ms(300));
  l.add(at(12), time::ms(500));
  const auto rows = l.windowed_avg_ms();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 0u);
  EXPECT_DOUBLE_EQ(rows[0].second, 200.0);
  EXPECT_EQ(rows[1].first, 10u);
  EXPECT_DOUBLE_EQ(rows[1].second, 500.0);
}

TEST(LatencySeries, MedianWithinRange) {
  LatencySeries l;
  for (int i = 1; i <= 9; ++i) l.add(at(i), time::ms(i * 100));
  const auto med = l.median_ms(at(0), at(10));
  ASSERT_TRUE(med.has_value());
  EXPECT_DOUBLE_EQ(*med, 500.0);
  // Restricted range shifts the median.
  const auto late = l.median_ms(at(5), at(10));
  ASSERT_TRUE(late.has_value());
  EXPECT_DOUBLE_EQ(*late, 700.0);
  EXPECT_FALSE(l.median_ms(at(20), at(30)).has_value());
}

TEST(LatencySeries, PercentilesNearestRank) {
  LatencySeries l;
  for (int i = 1; i <= 100; ++i) l.add(at(i), time::ms(i));
  EXPECT_DOUBLE_EQ(*l.percentile_ms(0.95, at(0), at(200)), 96.0);
  EXPECT_DOUBLE_EQ(*l.percentile_ms(0.5, at(0), at(200)), 51.0);
  EXPECT_FALSE(l.percentile_ms(0.0, at(0), at(200)).has_value());
  EXPECT_FALSE(l.percentile_ms(1.0, at(0), at(200)).has_value());
  // Heavy tail shows in p99 but not the median.
  LatencySeries tail;
  for (int i = 0; i < 99; ++i) tail.add(at(i), time::ms(100));
  tail.add(at(99), time::sec(30));
  EXPECT_DOUBLE_EQ(*tail.median_ms(at(0), at(200)), 100.0);
  EXPECT_GT(*tail.percentile_ms(0.995, at(0), at(200)), 1000.0);
}

TEST(LatencySeries, ReportPercentilesEqualThreeSeparateCalls) {
  // Seeded windows of 1..300 samples drawn from 8 latency values, so most
  // hold ties.  Arrivals sit one second apart and the window [from, to]
  // ends exactly on an arrival, which counts; one sample on each side of
  // the window, with an outlying latency, must not.
  Rng rng(21);
  for (int n = 1; n <= 300; ++n) {
    LatencySeries l;
    l.add(at(0), time::sec(100));
    for (int i = 1; i <= n; ++i) {
      l.add(at(i), time::ms(static_cast<std::int64_t>(rng.uniform_int(1, 8))));
    }
    l.add(at(n + 1), time::sec(100));
    const SimTime from = at(1);
    const SimTime to = at(n);
    const LatencySeries::Percentiles p = l.report_percentiles_ms(from, to);
    EXPECT_EQ(p.p50, l.percentile_ms(0.50, from, to)) << "n=" << n;
    EXPECT_EQ(p.p95, l.percentile_ms(0.95, from, to)) << "n=" << n;
    EXPECT_EQ(p.p99, l.percentile_ms(0.99, from, to)) << "n=" << n;
    ASSERT_TRUE(p.p99.has_value());
    EXPECT_LE(*p.p99, 8.0) << "n=" << n;
  }
  // n = 1, the one sample exactly at `to`.
  LatencySeries one;
  one.add(at(5), time::ms(7));
  const LatencySeries::Percentiles p = one.report_percentiles_ms(at(1), at(5));
  EXPECT_EQ(p.p50, 7.0);
  EXPECT_EQ(p.p95, 7.0);
  EXPECT_EQ(p.p99, 7.0);
  const LatencySeries::Percentiles none =
      one.report_percentiles_ms(at(6), at(9));
  EXPECT_FALSE(none.p50.has_value());
  EXPECT_FALSE(none.p95.has_value());
  EXPECT_FALSE(none.p99.has_value());
}

TEST(LatencySeries, EmptyBehaviour) {
  LatencySeries l;
  EXPECT_TRUE(l.windowed_avg_ms().empty());
  EXPECT_FALSE(l.median_ms(0, at(100)).has_value());
}

}  // namespace
}  // namespace rill::metrics
