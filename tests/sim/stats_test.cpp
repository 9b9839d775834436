#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

TEST(SampleSet, PercentilesNearestRank) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(double(i));
  EXPECT_EQ(s.percentile(0), 1.0);
  EXPECT_EQ(s.percentile(50), 50.0);
  EXPECT_EQ(s.percentile(99), 99.0);
  EXPECT_EQ(s.percentile(100), 100.0);
  EXPECT_EQ(s.median(), 50.0);
  EXPECT_THROW(static_cast<void>(s.percentile(101)), std::invalid_argument);
}

TEST(SampleSet, EmptyPercentileThrows) {
  SampleSet s;
  EXPECT_THROW(static_cast<void>(s.percentile(50)), std::logic_error);
  EXPECT_THROW(static_cast<void>(s.percentile(0)), std::logic_error);
  EXPECT_THROW(static_cast<void>(s.percentile(100)), std::logic_error);
}

TEST(SampleSet, SingleSampleEveryPercentile) {
  SampleSet s;
  s.add(42.0);
  EXPECT_EQ(s.percentile(0), 42.0);
  EXPECT_EQ(s.percentile(1), 42.0);
  EXPECT_EQ(s.percentile(50), 42.0);
  EXPECT_EQ(s.percentile(100), 42.0);
  EXPECT_EQ(s.median(), 42.0);
}

TEST(SampleSet, PercentileRangeThrowsBothSides) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(static_cast<void>(s.percentile(-0.001)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(s.percentile(100.001)), std::invalid_argument);
}

TEST(SampleSet, CdfIsMonotoneAndEndsAtOne) {
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.add(double((i * 37) % 101));
  const auto cdf = s.cdf(50);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].cum_prob, cdf[i - 1].cum_prob);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cum_prob, 1.0);
}

TEST(SampleSet, SuccessiveJitter) {
  SampleSet s;
  for (double x : {10.0, 12.0, 9.0, 9.0}) s.add(x);
  const auto d = s.successive_differences();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 0.0);
  EXPECT_NEAR(s.mean_successive_jitter(), 5.0 / 3.0, 1e-12);
}

TEST(SampleSet, InsertAfterQueryResorts) {
  SampleSet s;
  s.add(5);
  s.add(1);
  EXPECT_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_EQ(s.min(), 0.5);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-3.0);   // clamps into bin 0
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(0, 0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0, 10, 0), std::invalid_argument);
}

TEST(TimeSeriesBinner, BinsPer50ms) {
  TimeSeriesBinner b(50_ms);
  b.record(0_ms);
  b.record(49_ms);
  b.record(50_ms);
  b.record(140_ms);
  const auto bins = b.bins();
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_DOUBLE_EQ(bins[0].value, 2.0);
  EXPECT_DOUBLE_EQ(bins[1].value, 1.0);
  EXPECT_DOUBLE_EQ(bins[2].value, 1.0);
  EXPECT_EQ(bins[1].start, 50_ms);
  EXPECT_DOUBLE_EQ(b.total(), 4.0);
}

TEST(TimeSeriesBinner, GapsAreZero) {
  TimeSeriesBinner b(10_ms);
  b.record(0_ms);
  b.record(35_ms);
  const auto bins = b.bins();
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_DOUBLE_EQ(bins[1].value, 0.0);
  EXPECT_DOUBLE_EQ(bins[2].value, 0.0);
}

TEST(TimeSeriesBinner, RejectsBadInput) {
  EXPECT_THROW(TimeSeriesBinner(0_ms), std::invalid_argument);
  TimeSeriesBinner b(10_ms);
  EXPECT_THROW(b.record(SimTime{-5}), std::invalid_argument);
}

TEST(LongestTrueRun, Basics) {
  EXPECT_EQ(longest_true_run({}), 0u);
  EXPECT_EQ(longest_true_run({false, false}), 0u);
  EXPECT_EQ(longest_true_run({true, true, false, true}), 2u);
  EXPECT_EQ(longest_true_run({true, true, true}), 3u);
}

}  // namespace
}  // namespace steelnet::sim
