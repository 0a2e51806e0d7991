#include "runtime/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "runtime/rng.hpp"

namespace ffsva::runtime {
namespace {

TEST(Histogram, EmptyQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.add(42.0);
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.min, 42.0);
  EXPECT_DOUBLE_EQ(h.max, 42.0);
  // Bucketed value within ~3% of the true value, clamped to [min, max].
  EXPECT_NEAR(h.p50(), 42.0, 42.0 * 0.04);
  // A single sample pins every quantile exactly (the [min, max] clamp).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);
}

TEST(Histogram, ExtremeQuantilesClampToMinAndMax) {
  Histogram h;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform(1.0, 100.0));
  // q=0 / q=1 land on the observed extremes up to one bucket's width (~3%),
  // and the [min, max] clamp guarantees they never overshoot the range.
  EXPECT_GE(h.quantile(0.0), h.min);
  EXPECT_LE(h.quantile(0.0), h.min * 1.04);
  EXPECT_LE(h.quantile(1.0), h.max);
  EXPECT_GE(h.quantile(1.0), h.max / 1.04);
  // Two far-apart samples: q=0 lands on the low one, q=1 on the high one.
  Histogram two;
  two.add(3.5);
  two.add(400.0);
  EXPECT_GE(two.quantile(0.0), 3.5);
  EXPECT_LE(two.quantile(0.0), 3.5 * 1.04);
  EXPECT_LE(two.quantile(1.0), 400.0);
  EXPECT_GE(two.quantile(1.0), 400.0 / 1.04);
  // Empty histograms return 0 at the extremes too.
  Histogram e;
  EXPECT_EQ(e.quantile(0.0), 0.0);
  EXPECT_EQ(e.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileAccuracyOnUniform) {
  Histogram h;
  Xoshiro256 rng(99);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform(0.0, 1000.0));
  EXPECT_NEAR(h.p50(), 500.0, 25.0);
  EXPECT_NEAR(h.quantile(0.9), 900.0, 40.0);
  EXPECT_NEAR(h.p99(), 990.0, 45.0);
}

TEST(Histogram, QuantilesMonotone) {
  Histogram h;
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) h.add(std::exp(rng.normal()));
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(prev, h.max + 1e-12);
}

TEST(Histogram, WideDynamicRange) {
  Histogram h;
  h.add(0.001);
  h.add(1.0);
  h.add(1e6);
  EXPECT_EQ(h.count, 3u);
  EXPECT_NEAR(h.quantile(1.0), 1e6, 1e6 * 0.04);
  EXPECT_LE(h.quantile(0.0), 1.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.add(i);
  for (int i = 101; i <= 200; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count, 200u);
  EXPECT_NEAR(a.quantile(0.5), 100.0, 10.0);
  EXPECT_DOUBLE_EQ(a.max, 200.0);

  // A merge equals a sequential fill of the same values.
  Histogram odd, even, all;
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 100);
    (i % 2 ? odd : even).add(x);
    all.add(x);
  }
  odd.merge(even);
  EXPECT_EQ(odd.count, all.count);
  EXPECT_NEAR(odd.mean(), all.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(odd.min, all.min);
  EXPECT_DOUBLE_EQ(odd.max, all.max);
  EXPECT_EQ(odd.buckets, all.buckets);

  // Merging with an empty histogram changes nothing, in either direction.
  Histogram one, empty;
  one.add(5.0);
  one.merge(empty);
  EXPECT_EQ(one.count, 1u);
  empty.merge(one);
  EXPECT_EQ(empty.count, 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(StageCounters, PassRate) {
  StageCounters c;
  EXPECT_EQ(c.pass_rate(), 0.0);
  c.in = 10;
  c.passed = 4;
  EXPECT_DOUBLE_EQ(c.pass_rate(), 0.4);
  EXPECT_EQ(c.filtered(), 6u);
}

}  // namespace
}  // namespace ffsva::runtime
