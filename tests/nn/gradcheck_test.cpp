// Numerical gradient verification: every layer's backward pass is compared
// against central differences of the forward pass, both for input gradients
// and for parameter gradients. This is the ground truth for the whole
// training stack the SNM filter relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/layers.hpp"
#include "nn/loss.hpp"

namespace ffsva::nn {
namespace {

/// Scalar loss used by the checks: weighted sum of the outputs, with fixed
/// pseudo-random weights so every output contributes a distinct gradient.
double weighted_sum(const Tensor& y) {
  double acc = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    acc += (0.3 + 0.1 * static_cast<double>(i % 7)) * y[i];
  }
  return acc;
}

Tensor weighted_sum_grad(const Tensor& y) {
  Tensor g = Tensor::zeros_like(y);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(0.3 + 0.1 * static_cast<double>(i % 7));
  }
  return g;
}

/// One layer's forward into a fresh output tensor.
Tensor run(Layer& layer, const Tensor& x, bool train) {
  Tensor y;
  GemmScratch ws;
  layer.forward(x, y, ws, train);
  return y;
}

Tensor random_input(int n, int c, int h, int w, std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  Tensor x(n, c, h, w);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

/// Check dLoss/dInput against central differences.
void check_input_gradient(Layer& layer, Tensor x, double tol = 2e-2) {
  const Tensor y = run(layer, x, /*train=*/true);
  const Tensor gin = layer.backward(weighted_sum_grad(y));
  const float eps = 1e-2f;
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 64)) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = weighted_sum(run(layer, xp, false));
    const double fm = weighted_sum(run(layer, xm, false));
    const double numeric = (fp - fm) / (2.0 * eps);
    const double analytic = gin[i];
    worst = std::max(worst, std::abs(numeric - analytic));
  }
  EXPECT_LT(worst, tol);
}

/// Check parameter gradients against central differences.
void check_param_gradients(Layer& layer, Tensor x, double tol = 2e-2) {
  run(layer, x, true);
  // Zero parameter grads before accumulating.
  for (auto p : layer.params()) p.grad->fill(0.0f);
  const Tensor y = run(layer, x, true);
  layer.backward(weighted_sum_grad(y));
  for (auto p : layer.params()) {
    Tensor& theta = *p.value;
    Tensor& grad = *p.grad;
    const float eps = 1e-2f;
    double worst = 0.0;
    for (std::size_t i = 0; i < theta.size();
         i += std::max<std::size_t>(1, theta.size() / 48)) {
      const float saved = theta[i];
      theta[i] = saved + eps;
      const double fp = weighted_sum(run(layer, x, false));
      theta[i] = saved - eps;
      const double fm = weighted_sum(run(layer, x, false));
      theta[i] = saved;
      const double numeric = (fp - fm) / (2.0 * eps);
      worst = std::max(worst, std::abs(numeric - grad[i]));
    }
    EXPECT_LT(worst, tol);
  }
}

TEST(GradCheck, Conv2dInput) {
  runtime::Xoshiro256 rng(1);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  check_input_gradient(conv, random_input(2, 2, 6, 6, 10));
}

TEST(GradCheck, Conv2dStridedInput) {
  runtime::Xoshiro256 rng(2);
  Conv2d conv(1, 4, 3, 2, 1, rng);
  check_input_gradient(conv, random_input(1, 1, 9, 9, 11));
}

TEST(GradCheck, Conv2dParams) {
  runtime::Xoshiro256 rng(3);
  Conv2d conv(2, 2, 3, 1, 1, rng);
  check_param_gradients(conv, random_input(2, 2, 5, 5, 12));
}

TEST(GradCheck, Conv2dStridedParams) {
  runtime::Xoshiro256 rng(4);
  Conv2d conv(1, 3, 3, 2, 1, rng);
  check_param_gradients(conv, random_input(2, 1, 8, 8, 13));
}

TEST(GradCheck, LinearInput) {
  runtime::Xoshiro256 rng(5);
  Linear fc(12, 5, rng);
  check_input_gradient(fc, random_input(3, 12, 1, 1, 14));
}

TEST(GradCheck, LinearParams) {
  runtime::Xoshiro256 rng(6);
  Linear fc(8, 3, rng);
  check_param_gradients(fc, random_input(2, 8, 1, 1, 15));
}

TEST(GradCheck, ReLUInput) {
  ReLU relu;
  // Keep inputs away from the kink at 0 where the numeric derivative lies.
  Tensor x = random_input(2, 3, 4, 4, 16);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  check_input_gradient(relu, x);
}

TEST(GradCheck, FullSnmShapedNetwork) {
  // The SNM architecture end to end: CONV-ReLU-CONV-ReLU-FC with a BCE
  // head, parameter gradients checked through the whole chain.
  runtime::Xoshiro256 rng(19);
  Sequential net;
  net.add(std::make_unique<Conv2d>(1, 2, 3, 2, 1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Conv2d>(2, 3, 3, 2, 1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(3 * 3 * 3, 1, rng));
  Tensor x = random_input(4, 1, 10, 10, 20);
  const std::vector<float> targets{1.0f, 0.0f, 1.0f, 0.0f};

  ForwardScratch ws;
  auto loss_of = [&] {
    Tensor grad;
    return bce_with_logits(net.forward(x, ws), targets, grad);
  };

  for (auto p : net.params()) p.grad->fill(0.0f);
  Tensor grad;
  bce_with_logits(net.forward(x, ws, /*train=*/true), targets, grad);
  net.backward(grad);

  const float eps = 1e-2f;
  for (auto p : net.params()) {
    Tensor& theta = *p.value;
    double worst = 0.0;
    for (std::size_t i = 0; i < theta.size();
         i += std::max<std::size_t>(1, theta.size() / 16)) {
      const float saved = theta[i];
      theta[i] = saved + eps;
      const double fp = loss_of();
      theta[i] = saved - eps;
      const double fm = loss_of();
      theta[i] = saved;
      worst = std::max(worst, std::abs((fp - fm) / (2.0 * eps) -
                                       static_cast<double>((*p.grad)[i])));
    }
    EXPECT_LT(worst, 5e-3);
  }
}

}  // namespace
}  // namespace ffsva::nn
