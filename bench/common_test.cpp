#include "common.hpp"

#include <gtest/gtest.h>

namespace ffsva::bench {
namespace {

TEST(Quartiles, OddCountHitsOrderStatistics) {
  // Sorted: 1 2 3 4 5 -> q1 at position 1, median at 2, q3 at 3.
  const Quartiles q = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.0);
  EXPECT_DOUBLE_EQ(q.iqr_rel(), 2.0 / 3.0);
}

TEST(Quartiles, EvenCountInterpolates) {
  // Sorted: 10 20 30 40 -> positions 0.75, 1.5, 2.25.
  const Quartiles q = quartiles({40, 10, 30, 20});
  EXPECT_DOUBLE_EQ(q.q1, 17.5);
  EXPECT_DOUBLE_EQ(q.median, 25.0);
  EXPECT_DOUBLE_EQ(q.q3, 32.5);
  EXPECT_DOUBLE_EQ(q.iqr_rel(), 15.0 / 25.0);
}

TEST(Quartiles, DegenerateSamples) {
  const Quartiles one = quartiles({7});
  EXPECT_DOUBLE_EQ(one.q1, 7.0);
  EXPECT_DOUBLE_EQ(one.median, 7.0);
  EXPECT_DOUBLE_EQ(one.q3, 7.0);
  EXPECT_DOUBLE_EQ(one.iqr_rel(), 0.0);
  EXPECT_DOUBLE_EQ(quartiles({}).iqr_rel(), 0.0);
}

TEST(Measure, WarmsUpOnceThenInterleavesVariants) {
  std::vector<int> order;
  const auto series = measure(2, [&](int v) {
    order.push_back(v);
    const double call = static_cast<double>(order.size());
    return bench::Run{v == 0 ? 100.0 : 200.0, 0.0, 0.0, {{"call", call}}};
  });
  std::vector<int> expected = {0};
  for (int rep = 0; rep < kReps; ++rep) {
    expected.push_back(0);
    expected.push_back(1);
  }
  EXPECT_EQ(order, expected);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].fps.median, 100.0);
  EXPECT_DOUBLE_EQ(series[1].fps.iqr_rel(), 0.0);
  // Extras are per-key medians over the measured runs, the warm-up's
  // discarded: variant 1 ran at calls 3, 5, ..., 2 * kReps + 1.
  ASSERT_EQ(series[1].extras.size(), 1u);
  EXPECT_DOUBLE_EQ(series[1].extras[0].second, kReps + 2.0);
  EXPECT_TRUE(resolves(series[0], series[1], 0.0));
}

}  // namespace
}  // namespace ffsva::bench
