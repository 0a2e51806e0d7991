#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ffsva::nn {
namespace {

TEST(Sigmoid, Symmetry) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(BceWithLogits, PerfectPredictionsNearZeroLoss) {
  Tensor logits(2, 1, 1, 1);
  logits.at(0, 0, 0, 0) = 20.0f;   // strongly positive
  logits.at(1, 0, 0, 0) = -20.0f;  // strongly negative
  Tensor grad;
  const double loss = bce_with_logits(logits, {1.0f, 0.0f}, grad);
  EXPECT_LT(loss, 1e-6);
  EXPECT_NEAR(grad.at(0, 0, 0, 0), 0.0, 1e-6);
}

TEST(BceWithLogits, ChanceLevelIsLog2) {
  Tensor logits(2, 1, 1, 1);  // zeros -> p = 0.5
  Tensor grad;
  const double loss = bce_with_logits(logits, {1.0f, 0.0f}, grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-9);
}

TEST(BceWithLogits, GradientIsSigmoidMinusTargetOverN) {
  Tensor logits(2, 1, 1, 1);
  logits.at(0, 0, 0, 0) = 1.5f;
  logits.at(1, 0, 0, 0) = -0.5f;
  Tensor grad;
  bce_with_logits(logits, {1.0f, 0.0f}, grad);
  EXPECT_NEAR(grad.at(0, 0, 0, 0), (sigmoid(1.5) - 1.0) / 2, 1e-7);
  EXPECT_NEAR(grad.at(1, 0, 0, 0), (sigmoid(-0.5) - 0.0) / 2, 1e-7);
}

TEST(BceWithLogits, NumericallyStableAtExtremes) {
  Tensor logits(2, 1, 1, 1);
  logits.at(0, 0, 0, 0) = 500.0f;
  logits.at(1, 0, 0, 0) = -500.0f;
  Tensor grad;
  const double loss = bce_with_logits(logits, {0.0f, 1.0f}, grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 500.0, 1.0);  // worst-case mislabels cost |z|
}

TEST(BceWithLogits, ShapeMismatchThrows) {
  Tensor logits(2, 1, 1, 1);
  Tensor grad;
  EXPECT_THROW(bce_with_logits(logits, {1.0f}, grad), std::invalid_argument);
  Tensor multi(2, 3, 1, 1);
  EXPECT_THROW(bce_with_logits(multi, {1.0f, 0.0f}, grad), std::invalid_argument);
}

}  // namespace
}  // namespace ffsva::nn
