#include "stats/summary.h"

#include <gtest/gtest.h>

namespace spr {
namespace {

TEST(Summary, EmptyDefaults) {
  // Every statistic of an empty summary is 0.0 — consistently, so a report
  // over an empty aggregate renders zeros instead of throwing from some
  // accessors but not others.
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MeanMinMaxSum) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(Summary, SampleVariance) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-8);  // n-1 denominator
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
}

TEST(Summary, WelfordMatchesNaive) {
  Summary s;
  double naive_sum = 0.0, naive_sq = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    double v = 0.001 * i * i - 3.0 * i + 7.0;
    s.add(v);
    naive_sum += v;
    naive_sq += v * v;
  }
  double mean = naive_sum / n;
  double var = (naive_sq - n * mean * mean) / (n - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-6);
  EXPECT_NEAR(s.variance(), var, var * 1e-9);
}

TEST(Summary, Merge) {
  Summary a, b;
  for (double v : {1.0, 2.0, 3.0}) a.add(v);
  for (double v : {4.0, 5.0}) b.add(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

}  // namespace
}  // namespace spr
