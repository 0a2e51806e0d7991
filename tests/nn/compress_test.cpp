#include "nn/compress.hpp"

#include <gtest/gtest.h>

#include "nn/loss.hpp"
#include "nn/optim.hpp"

namespace ffsva::nn {
namespace {

std::unique_ptr<Sequential> small_net(std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Conv2d>(1, 4, 3, 2, 1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(4 * 5 * 5, 2, rng));
  return net;
}

TEST(Prune, ZeroSparsityIsNoop) {
  auto net = small_net(1);
  const Tensor x(1, 1, 10, 10);
  const auto before = net->forward(const_cast<Tensor&>(x));
  const auto report = prune_by_magnitude(*net, 0.0);
  EXPECT_EQ(report.zeroed, 0u);
  const auto after = net->forward(const_cast<Tensor&>(x));
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

TEST(Prune, SparsityIsReached) {
  auto net = small_net(2);
  prune_by_magnitude(*net, 0.5);
  EXPECT_NEAR(sparsity_of(*net), 0.5, 0.05);
  prune_by_magnitude(*net, 0.9);
  EXPECT_NEAR(sparsity_of(*net), 0.9, 0.05);
}

TEST(Prune, FullSparsityZerosEverything) {
  auto net = small_net(3);
  prune_by_magnitude(*net, 1.0);
  EXPECT_NEAR(sparsity_of(*net), 1.0, 0.01);
}

TEST(Prune, RemovesSmallestMagnitudesFirst) {
  runtime::Xoshiro256 rng(4);
  Sequential net;
  net.add(std::make_unique<Linear>(4, 1, rng));
  auto params = net.params();
  Tensor& w = *params[0].value;
  w[0] = 0.01f;
  w[1] = -1.0f;
  w[2] = 0.02f;
  w[3] = 2.0f;
  prune_by_magnitude(net, 0.5);
  EXPECT_EQ(w[0], 0.0f);
  EXPECT_EQ(w[2], 0.0f);
  EXPECT_EQ(w[1], -1.0f);
  EXPECT_EQ(w[3], 2.0f);
}

TEST(Prune, BiasesAreExempt) {
  auto net = small_net(5);
  for (auto p : net->params()) {
    if (p.value->c() * p.value->h() * p.value->w() == 1) p.value->fill(0.123f);
  }
  prune_by_magnitude(*net, 1.0);
  for (auto p : net->params()) {
    if (p.value->c() * p.value->h() * p.value->w() == 1) {
      EXPECT_EQ((*p.value)[0], 0.123f);
    }
  }
}

TEST(Prune, InvalidSparsityThrows) {
  auto net = small_net(6);
  EXPECT_THROW(prune_by_magnitude(*net, -0.1), std::invalid_argument);
  EXPECT_THROW(prune_by_magnitude(*net, 1.1), std::invalid_argument);
}

TEST(Quantize, ErrorBoundedByHalfStep) {
  auto net = small_net(7);
  const double max_abs = [&] {
    double m = 0;
    for (auto p : net->params()) m = std::max(m, p.value->abs_max());
    return m;
  }();
  const auto report = quantize_weights(*net, 8);
  EXPECT_EQ(report.bits, 8);
  // Half a quantization step of the coarsest tensor bounds the error.
  EXPECT_LE(report.max_abs_error, max_abs / 127.0 * 0.5 + 1e-7);
}

TEST(Quantize, MoreBitsMeansLessError) {
  double prev = 1e9;
  for (int bits : {4, 8, 12}) {
    auto net = small_net(8);
    const auto r = quantize_weights(*net, bits);
    EXPECT_LT(r.max_abs_error, prev);
    prev = r.max_abs_error;
  }
}

TEST(Quantize, IdempotentAtSameBits) {
  auto net = small_net(9);
  quantize_weights(*net, 6);
  std::vector<float> snapshot;
  for (auto p : net->params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) snapshot.push_back((*p.value)[i]);
  }
  const auto r2 = quantize_weights(*net, 6);
  std::size_t k = 0;
  for (auto p : net->params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      EXPECT_NEAR((*p.value)[i], snapshot[k++], 1e-6);
    }
  }
  EXPECT_LT(r2.max_abs_error, 1e-6);
}

TEST(Quantize, FootprintAccounting) {
  auto net = small_net(10);
  const auto r = quantize_weights(*net, 8);
  EXPECT_GT(r.total_weights, 0u);
  EXPECT_DOUBLE_EQ(r.model_bytes_fp32, static_cast<double>(r.total_weights) * 4);
  EXPECT_LT(r.model_bytes_quant, r.model_bytes_fp32 / 3.0);
}

TEST(Quantize, InvalidBitsThrow) {
  auto net = small_net(11);
  EXPECT_THROW(quantize_weights(*net, 1), std::invalid_argument);
  EXPECT_THROW(quantize_weights(*net, 17), std::invalid_argument);
}

TEST(Compression, TrainedClassifierSurvivesModeratePruning) {
  // Train a blob classifier, then prune 50% and quantize to 8 bits: the
  // Section 5.5 claim is that accuracy survives.
  runtime::Xoshiro256 rng(42);
  Sequential net;
  net.add(std::make_unique<Conv2d>(1, 4, 3, 2, 1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(4 * 6 * 6, 1, rng));
  const int n = 120;
  std::vector<Tensor> xs;
  std::vector<float> ys;
  for (int i = 0; i < n; ++i) {
    Tensor x(1, 1, 12, 12);
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] = static_cast<float>(rng.uniform(0.0, 0.2));
    }
    const bool pos = i % 2 == 0;
    if (pos) {
      const int bx = static_cast<int>(rng.below(8)),
                by = static_cast<int>(rng.below(8));
      for (int dy = 0; dy < 4; ++dy) {
        for (int dx = 0; dx < 4; ++dx) x.at(0, 0, by + dy, bx + dx) = 0.9f;
      }
    }
    xs.push_back(x);
    ys.push_back(pos ? 1.0f : 0.0f);
  }
  Sgd opt(net.params(), {0.05, 0.9, 1e-4});
  for (int epoch = 0; epoch < 12; ++epoch) {
    for (int i = 0; i < n; ++i) {
      Tensor grad;
      bce_with_logits(net.forward(xs[static_cast<std::size_t>(i)], true),
                      {ys[static_cast<std::size_t>(i)]}, grad);
      net.backward(grad);
      opt.step();
    }
  }
  auto accuracy = [&] {
    int correct = 0;
    for (int i = 0; i < n; ++i) {
      const bool pred = net.forward(xs[static_cast<std::size_t>(i)]).at(0, 0, 0, 0) > 0;
      correct += pred == (ys[static_cast<std::size_t>(i)] > 0.5f);
    }
    return static_cast<double>(correct) / n;
  };
  const double base = accuracy();
  ASSERT_GT(base, 0.9);
  prune_by_magnitude(net, 0.5);
  quantize_weights(net, 8);
  EXPECT_GT(accuracy(), base - 0.08) << "compressed model lost too much accuracy";
}

}  // namespace
}  // namespace ffsva::nn
