// Tests for the benchmark's pure helpers (perfbench/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

TEST(Schedule, PoissonIsDeterministicPerSeed) {
  const std::vector<double> a = poisson_schedule(7, 25.0, 10.0);
  const std::vector<double> b = poisson_schedule(7, 25.0, 10.0);
  const std::vector<double> c = poisson_schedule(8, 25.0, 10.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Schedule, PoissonIsAscendingInsideTheWindowAtTheRate) {
  const std::vector<double> due = poisson_schedule(3, 50.0, 40.0);
  ASSERT_FALSE(due.empty());
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_LT(due[i - 1], due[i]);
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 40.0);
  // 2000 expected arrivals; a Poisson count stays within +-5 sigma.
  EXPECT_NEAR(static_cast<double>(due.size()), 2000.0, 5 * std::sqrt(2000.0));
}

TEST(Schedule, DegenerateRatesGiveNoArrivals) {
  EXPECT_TRUE(poisson_schedule(1, 0.0, 10.0).empty());
  EXPECT_TRUE(poisson_schedule(1, 10.0, 0.0).empty());
}

TEST(Schedule, FixedTicksSpreadEvenly) {
  EXPECT_EQ(tick_schedule(9, 4, 2.0, 0.5, 0.5),
            (std::vector<double>{0.25, 0.75, 1.25, 1.75}));
  EXPECT_TRUE(tick_schedule(9, 0, 2.0, 0.5, 0.5).empty());
}

TEST(Schedule, JitteredTicksStayInsideTheirBandPerSeed) {
  const std::vector<double> a = tick_schedule(5, 100, 10.0, 0.35, 0.65);
  EXPECT_EQ(a, tick_schedule(5, 100, 10.0, 0.35, 0.65));
  EXPECT_NE(a, tick_schedule(6, 100, 10.0, 0.35, 0.65));
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_GE(a[k], (static_cast<double>(k) + 0.35) * 0.1 - 1e-12);
    EXPECT_LE(a[k], (static_cast<double>(k) + 0.65) * 0.1 + 1e-12);
  }
}

TEST(Percentiles, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(supported_tail(10).has_value());
  EXPECT_DOUBLE_EQ(*supported_tail(11), 1.0 - 10.0 / 11.0);
  EXPECT_DOUBLE_EQ(*supported_tail(100), 0.9);
  EXPECT_DOUBLE_EQ(*supported_tail(250), 0.96);
  // Capped at p99 from 1000 samples on.
  EXPECT_DOUBLE_EQ(*supported_tail(1000), 0.99);
  EXPECT_DOUBLE_EQ(*supported_tail(50000), 0.99);
}

TEST(Percentiles, SummaryLeavesTenSamplesAboveTheTail) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.tail_p, 0.9);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);  // ten samples (91..100) lie beyond it
}

TEST(Percentiles, SmallSampleReportsTheMedianAsItsTail) {
  const Summary s = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.tail_p, 0.5);
  EXPECT_DOUBLE_EQ(s.tail, 2.0);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(Percentiles, TrimmedMeanDropsItsShareAtEachEnd) {
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  v.back() = 1000.0;  // an outlier in the dropped top tenth
  // Samples 3..18 remain: their mean is 10.5.
  EXPECT_DOUBLE_EQ(trimmed_mean_sorted(v, 0.1), 10.5);
  // The interquartile mean keeps samples 6..15.
  EXPECT_DOUBLE_EQ(summarize(v).iqm, 10.5);
  EXPECT_DOUBLE_EQ(trimmed_mean_sorted({1, 2, 6}, 0.1), 3.0);  // nothing cut
  EXPECT_DOUBLE_EQ(trimmed_mean_sorted({1, 2, 6}, 0.5), 2.0);  // the median
  EXPECT_DOUBLE_EQ(trimmed_mean_sorted({}, 0.25), 0.0);
}

TEST(Percentiles, InterquartileMeanFollowsTheSlowShareWhereTheMedianJumps) {
  // Two cost modes, 10 and 15: the median jumps a whole mode as the slow
  // share passes one half; the interquartile mean moves by a fifth of it.
  const auto mix = [](int slow) {
    std::vector<double> v(100 - slow, 10.0);
    v.insert(v.end(), slow, 15.0);
    return summarize(v);
  };
  EXPECT_DOUBLE_EQ(mix(45).p50, 10.0);
  EXPECT_DOUBLE_EQ(mix(55).p50, 15.0);
  EXPECT_DOUBLE_EQ(mix(45).iqm, 12.0);
  EXPECT_DOUBLE_EQ(mix(55).iqm, 13.0);
}

TEST(Percentiles, NearestRank) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.51), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 4.0);
}

TEST(Percentiles, HistogramInterpolatesInsideTheBucket) {
  const std::vector<double> bounds{1, 2, 5, 10};
  // 10 values <= 1, 10 in (1, 2], 20 in (2, 5], none above.
  const std::vector<std::uint64_t> counts{10, 10, 20, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.375), 1.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.75), 3.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 0, 0, 0, 4}, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 0, 0, 0, 0}, 0.5), 0.0);
}

TEST(Rates, InterquartileMeanOverWholeWindowsIgnoresABurst) {
  RateBins bins(10.0, 4.5, 1.0);  // four whole windows from t = 10 s
  ASSERT_EQ(bins.counts().size(), 4u);
  for (int w = 0; w < 4; ++w) bins.add(10.5 + w, w == 2 ? 10 : 100);
  bins.add(9.9, 1000);   // before the phase
  bins.add(14.2, 1000);  // in the partial fifth window
  EXPECT_EQ(bins.total(), 310u);
  EXPECT_DOUBLE_EQ(bins.iqm_rate(), 100.0);  // the burst window is cut
  EXPECT_DOUBLE_EQ(RateBins().iqm_rate(), 0.0);
  RateBins half(0.0, 2.0, 0.5);
  half.add(0.1, 3);
  half.add(0.6, 5);
  half.add(1.1, 4);
  half.add(1.6, 6);
  EXPECT_DOUBLE_EQ(half.iqm_rate(), 9.0);  // (8 + 10) / 2 per second
  RateBins one(0.0, 1.0, 1.0);
  one.add(0.5, 7);
  EXPECT_DOUBLE_EQ(one.iqm_rate(), 7.0);
}

TEST(Ratios, LockWaitIsServiceRunMinusEngineTimePerDiagnosis) {
  EXPECT_DOUBLE_EQ(lock_wait_mean_ms(130.0, 100.0, 10), 3.0);
  EXPECT_DOUBLE_EQ(lock_wait_mean_ms(90.0, 100.0, 10), 0.0);  // clock skew
  EXPECT_DOUBLE_EQ(lock_wait_mean_ms(10.0, 0.0, 0), 0.0);
}

TEST(Ratios, HitRatioAndUnitCostsCarryTheirBase) {
  EXPECT_DOUBLE_EQ(hit_ratio(95, 5), 0.95);
  EXPECT_DOUBLE_EQ(hit_ratio(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ns_per(2.0, 1000), 2000.0);  // 2 ms over 1000 cells
  EXPECT_DOUBLE_EQ(ns_per(2.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
}

TEST(Replies, SplitTag) {
  const auto t = split_tag("#17 OK slices=4");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tag, 17u);
  EXPECT_EQ(t->body, "OK slices=4");
  EXPECT_FALSE(split_tag("OK").has_value());
  EXPECT_FALSE(split_tag("#x1 OK").has_value());
  EXPECT_FALSE(split_tag("#12").has_value());
}

TEST(Replies, ParseDiagnoseOk) {
  const auto r = parse_diagnose_ok(
      "OK id=4 version=912 run_ms=41.5 1:rate 2:client-A 3:search");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->version, 912u);
  EXPECT_DOUBLE_EQ(r->run_ms, 41.5);
  EXPECT_EQ(r->top, (std::vector<std::string>{"rate", "client-A", "search"}));
  EXPECT_FALSE(parse_diagnose_ok("ERR deadline_exceeded (queue 1.0ms run "
                                 "0.0ms)").has_value());
  EXPECT_FALSE(parse_diagnose_ok("OK replayed_to=3 cells=9").has_value());
}

}  // namespace
}  // namespace perfbench
