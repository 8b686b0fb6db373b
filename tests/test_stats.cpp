#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace {

using tempest::Moments;
using tempest::SampleSet;
using tempest::StatsSummary;

TEST(SampleSet, EmptySummaryIsZeroed) {
  SampleSet s;
  const StatsSummary sum = s.summarize();
  EXPECT_EQ(sum.count, 0u);
  EXPECT_EQ(sum.min, 0.0);
  EXPECT_EQ(sum.max, 0.0);
}

TEST(SampleSet, SingleValue) {
  SampleSet s;
  s.add(42.5);
  const StatsSummary sum = s.summarize();
  EXPECT_EQ(sum.count, 1u);
  EXPECT_EQ(sum.min, 42.5);
  EXPECT_EQ(sum.avg, 42.5);
  EXPECT_EQ(sum.max, 42.5);
  EXPECT_EQ(sum.sdv, 0.0);
  EXPECT_EQ(sum.var, 0.0);
  EXPECT_EQ(sum.med, 42.5);
  EXPECT_EQ(sum.mod, 42.5);
}

TEST(SampleSet, KnownPopulation) {
  // Population: 2, 4, 4, 4, 5, 5, 7, 9 — classic sdv=2 example.
  SampleSet s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  const StatsSummary sum = s.summarize();
  EXPECT_EQ(sum.count, 8u);
  EXPECT_DOUBLE_EQ(sum.avg, 5.0);
  EXPECT_DOUBLE_EQ(sum.var, 4.0);
  EXPECT_DOUBLE_EQ(sum.sdv, 2.0);
  EXPECT_DOUBLE_EQ(sum.med, 4.5);  // midpoint of 4 and 5
  EXPECT_DOUBLE_EQ(sum.mod, 4.0);
  EXPECT_DOUBLE_EQ(sum.min, 2.0);
  EXPECT_DOUBLE_EQ(sum.max, 9.0);
}

TEST(SampleSet, MedianOddCount) {
  SampleSet s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.summarize().med, 2.0);
}

TEST(SampleSet, ModeTieBreaksTowardSmallest) {
  SampleSet s;
  for (double v : {7.0, 7.0, 3.0, 3.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.summarize().mod, 3.0);
}

TEST(SampleSet, ConstantSeriesHasZeroSpread) {
  // The quantised flat sensors of the paper's Tables 2/3: Min=Max,
  // Sdv=Var=0, Med=Mod=value.
  SampleSet s;
  for (int i = 0; i < 25; ++i) s.add(91.0);
  const StatsSummary sum = s.summarize();
  EXPECT_EQ(sum.min, 91.0);
  EXPECT_EQ(sum.max, 91.0);
  EXPECT_EQ(sum.sdv, 0.0);
  EXPECT_EQ(sum.var, 0.0);
  EXPECT_EQ(sum.med, 91.0);
  EXPECT_EQ(sum.mod, 91.0);
}

TEST(Moments, MatchesSampleSetOnRandomData) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(80.0, 130.0);
  SampleSet set;
  Moments stream;
  for (int i = 0; i < 1000; ++i) {
    const double v = dist(rng);
    set.add(v);
    stream.add(v);
  }
  const StatsSummary sum = set.summarize();
  EXPECT_NEAR(stream.mean, sum.avg, 1e-9);
  EXPECT_NEAR(stream.variance(), sum.var, 1e-6);
  EXPECT_NEAR(std::sqrt(stream.variance()), sum.sdv, 1e-8);
  EXPECT_EQ(stream.count, sum.count);
}

TEST(Moments, FewerThanTwoSamplesHasZeroVariance) {
  Moments s;
  EXPECT_EQ(s.variance(), 0.0);
  s.add(5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Moments, MergingTwoHalvesEqualsAddingAll) {
  std::mt19937 rng(11);
  std::normal_distribution<double> dist(100.0, 15.0);
  Moments all, first, second, empty;
  for (int i = 0; i < 1001; ++i) {
    const double v = dist(rng);
    all.add(v);
    (i < 400 ? first : second).add(v);
  }
  Moments pooled;
  pooled.merge(first);  // into empty moments: a copy
  EXPECT_EQ(pooled.count, first.count);
  EXPECT_EQ(pooled.mean, first.mean);
  EXPECT_EQ(pooled.m2, first.m2);
  pooled.merge(second);
  pooled.merge(empty);  // merging nothing changes nothing
  EXPECT_EQ(pooled.count, all.count);
  EXPECT_NEAR(pooled.mean, all.mean, 1e-12 * all.mean);
  EXPECT_NEAR(pooled.m2, all.m2, 1e-9 * all.m2);
  EXPECT_NEAR(pooled.variance(), all.variance(), 1e-9 * all.variance());

  // The (count, mean, variance) form a profile stores merges the same.
  Moments from_summaries = Moments::from_variance(
      first.count, first.mean, first.variance());
  from_summaries.merge(Moments::from_variance(second.count, second.mean,
                                              second.variance()));
  EXPECT_NEAR(from_summaries.variance(), all.variance(),
              1e-9 * all.variance());
}

// Property sweep: for any population, sdv^2 == var, min <= med <= max,
// min <= avg <= max, and mode is an element of the population.
class StatsProperty : public ::testing::TestWithParam<int> {};

TEST_P(StatsProperty, Invariants) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::normal_distribution<double> dist(100.0, 10.0);
  SampleSet s;
  const int n = 1 + static_cast<int>(rng() % 500);
  for (int i = 0; i < n; ++i) {
    // Quantise like a sensor so mode ties are realistic.
    s.add(std::round(dist(rng)));
  }
  const StatsSummary sum = s.summarize();
  EXPECT_NEAR(sum.sdv * sum.sdv, sum.var, 1e-9 * std::max(1.0, sum.var));
  EXPECT_LE(sum.min, sum.med);
  EXPECT_LE(sum.med, sum.max);
  EXPECT_LE(sum.min, sum.avg);
  EXPECT_LE(sum.avg, sum.max);
  bool mode_present = false;
  for (double v : s.values()) mode_present |= (v == sum.mod);
  EXPECT_TRUE(mode_present);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty, ::testing::Range(0, 20));

}  // namespace
