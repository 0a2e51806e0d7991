// End-to-end training: SGD on the SNM-shaped network must actually learn.
#include <gtest/gtest.h>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"

namespace ffsva::nn {
namespace {

TEST(Sgd, SingleParameterConvergesToMinimum) {
  // Minimize (w - 3)^2 via the Param interface.
  Tensor w(1, 1, 1, 1), g(1, 1, 1, 1);
  w[0] = 0.0f;
  Sgd opt({{&w, &g}}, {0.1, 0.0, 0.0});
  for (int step = 0; step < 200; ++step) {
    g[0] = 2.0f * (w[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(w[0], 3.0f, 1e-3);
}

TEST(Sgd, MomentumAcceleratesOnQuadratic) {
  auto run = [](double momentum) {
    Tensor w(1, 1, 1, 1), g(1, 1, 1, 1);
    w[0] = 10.0f;
    Sgd opt({{&w, &g}}, {0.02, momentum, 0.0});
    int steps = 0;
    while (std::abs(w[0]) > 0.05f && steps < 2000) {
      g[0] = 2.0f * w[0];
      opt.step();
      ++steps;
    }
    return steps;
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Sgd, WeightDecayShrinksUnusedWeights) {
  Tensor w(1, 1, 1, 1), g(1, 1, 1, 1);
  w[0] = 1.0f;
  Sgd opt({{&w, &g}}, {0.1, 0.0, 0.5});
  for (int i = 0; i < 50; ++i) {
    g[0] = 0.0f;  // no data gradient
    opt.step();
  }
  EXPECT_LT(std::abs(w[0]), 0.1f);
}

TEST(Sgd, StepZeroesGradients) {
  Tensor w(1, 1, 1, 1), g(1, 1, 1, 1);
  g[0] = 5.0f;
  Sgd opt({{&w, &g}}, {0.1, 0.9, 0.0});
  opt.step();
  EXPECT_EQ(g[0], 0.0f);
}

TEST(Training, LearnsLinearlySeparableBlobs) {
  // Two Gaussian blobs in 8-D, tiny linear model: accuracy should reach
  // ~100% within a few epochs.
  runtime::Xoshiro256 rng(42);
  const int n_train = 256;
  std::vector<Tensor> samples;
  std::vector<float> labels;
  for (int i = 0; i < n_train; ++i) {
    const bool pos = rng.chance(0.5);
    Tensor x(1, 8, 1, 1);
    for (int d = 0; d < 8; ++d) {
      x.at(0, d, 0, 0) = static_cast<float>(rng.normal() + (pos ? 1.0 : -1.0));
    }
    samples.push_back(x);
    labels.push_back(pos ? 1.0f : 0.0f);
  }

  Sequential net;
  net.add(std::make_unique<Linear>(8, 1, rng));
  Sgd opt(net.params(), {0.1, 0.9, 1e-4});

  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < n_train; i += 16) {
      Tensor batch(16, 8, 1, 1);
      std::vector<float> batch_labels;
      for (int k = 0; k < 16; ++k) {
        const auto idx = static_cast<std::size_t>((i + k) % n_train);
        for (int d = 0; d < 8; ++d) {
          batch.at(k, d, 0, 0) = samples[idx].at(0, d, 0, 0);
        }
        batch_labels.push_back(labels[idx]);
      }
      Tensor grad;
      bce_with_logits(net.forward(batch, true), batch_labels, grad);
      net.backward(grad);
      opt.step();
    }
  }

  int correct = 0;
  for (int i = 0; i < n_train; ++i) {
    const Tensor y = net.forward(samples[static_cast<std::size_t>(i)]);
    const bool pred = y.at(0, 0, 0, 0) > 0.0f;
    if (pred == (labels[static_cast<std::size_t>(i)] > 0.5f)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / n_train, 0.95);
}

TEST(Training, SnmShapedCnnLearnsBlobPresence) {
  // 12x12 images: positives contain a bright 4x4 blob at a random position,
  // negatives are noise. The 3-layer CNN must exceed 90% train accuracy.
  runtime::Xoshiro256 rng(7);
  const int n = 160;
  std::vector<Tensor> xs;
  std::vector<float> ys;
  for (int i = 0; i < n; ++i) {
    Tensor x(1, 1, 12, 12);
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] = static_cast<float>(rng.uniform(0.0, 0.2));
    }
    const bool pos = i % 2 == 0;
    if (pos) {
      const int bx = static_cast<int>(rng.below(8));
      const int by = static_cast<int>(rng.below(8));
      for (int dy = 0; dy < 4; ++dy) {
        for (int dx = 0; dx < 4; ++dx) {
          x.at(0, 0, by + dy, bx + dx) = 0.9f;
        }
      }
    }
    xs.push_back(x);
    ys.push_back(pos ? 1.0f : 0.0f);
  }

  Sequential net;
  net.add(std::make_unique<Conv2d>(1, 4, 3, 2, 1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Conv2d>(4, 8, 3, 2, 1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(8 * 3 * 3, 1, rng));
  Sgd opt(net.params(), {0.05, 0.9, 1e-4});

  for (int epoch = 0; epoch < 15; ++epoch) {
    for (int i = 0; i < n; i += 8) {
      Tensor batch(8, 1, 12, 12);
      std::vector<float> bl;
      for (int k = 0; k < 8; ++k) {
        const auto idx = static_cast<std::size_t>((i + k) % n);
        for (int py = 0; py < 12; ++py) {
          for (int px = 0; px < 12; ++px) {
            batch.at(k, 0, py, px) = xs[idx].at(0, 0, py, px);
          }
        }
        bl.push_back(ys[idx]);
      }
      Tensor grad;
      bce_with_logits(net.forward(batch, true), bl, grad);
      net.backward(grad);
      opt.step();
    }
  }

  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const bool pred =
        net.forward(xs[static_cast<std::size_t>(i)]).at(0, 0, 0, 0) > 0.0f;
    if (pred == (ys[static_cast<std::size_t>(i)] > 0.5f)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.9);
}

}  // namespace
}  // namespace ffsva::nn
