// Forward-pass semantics of each layer against hand-computed values.
#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "runtime/parallel_for.hpp"

namespace ffsva::nn {
namespace {

runtime::Xoshiro256 rng(1234);

/// One layer's forward into a fresh output tensor.
Tensor run(Layer& layer, const Tensor& x, bool train = false) {
  Tensor y;
  GemmScratch ws;
  layer.forward(x, y, ws, train);
  return y;
}

TEST(Conv2d, OutputShape) {
  Conv2d conv(3, 8, 3, 2, 1, rng);
  Tensor x(2, 3, 50, 50);
  const Tensor y = run(conv, x);
  EXPECT_EQ(y.n(), 2);
  EXPECT_EQ(y.c(), 8);
  EXPECT_EQ(y.h(), 25);
  EXPECT_EQ(y.w(), 25);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight.fill(0.0f);
  conv.weight.at(0, 0, 1, 1) = 1.0f;  // center tap
  conv.bias.fill(0.0f);
  Tensor x(1, 1, 4, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = run(conv, x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, BiasAddsUniformOffset) {
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight.fill(0.0f);
  conv.bias.at(0, 0, 0, 0) = 2.5f;
  Tensor x(1, 1, 3, 3);
  const Tensor y = run(conv, x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 2.5f);
}

TEST(Conv2d, SumKernelComputesLocalSums) {
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight.fill(1.0f);
  conv.bias.fill(0.0f);
  Tensor x(1, 1, 3, 3);
  x.fill(1.0f);
  const Tensor y = run(conv, x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);  // full window
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);  // corner: zero padding
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0f);  // edge
}

TEST(Conv2d, ChannelMismatchThrows) {
  Conv2d conv(3, 4, 3, 1, 1, rng);
  Tensor x(1, 2, 8, 8);
  EXPECT_THROW(run(conv, x), std::invalid_argument);
}

TEST(Linear, MatrixVectorSemantics) {
  Linear fc(3, 2, rng);
  fc.weight.fill(0.0f);
  fc.weight.at(0, 0, 0, 0) = 1.0f;  // y0 = x0
  fc.weight.at(1, 2, 0, 0) = 2.0f;  // y1 = 2*x2
  fc.bias.at(0, 0, 0, 0) = 0.5f;
  Tensor x(1, 3, 1, 1);
  x.at(0, 0, 0, 0) = 3.0f;
  x.at(0, 2, 0, 0) = 4.0f;
  const Tensor y = run(fc, x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 3.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 8.0f);
}

TEST(Linear, FlattensChw) {
  Linear fc(12, 1, rng);
  Tensor x(2, 3, 2, 2);
  EXPECT_NO_THROW(run(fc, x));
  Tensor bad(2, 3, 2, 3);
  EXPECT_THROW(run(fc, bad), std::invalid_argument);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x(1, 1, 1, 3);
  x[0] = -2;
  x[1] = 0;
  x[2] = 3;
  const Tensor y = run(relu, x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
}

TEST(Sequential, ChainsLayersAndCountsParams) {
  runtime::Xoshiro256 r(5);
  Sequential net;
  net.add(std::make_unique<Conv2d>(1, 2, 3, 2, 1, r))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(2 * 4 * 4, 1, r));
  Tensor x(1, 1, 8, 8);
  ForwardScratch ws;
  const Tensor& y = net.forward(x, ws);
  EXPECT_EQ(y.n(), 1);
  EXPECT_EQ(y.c(), 1);
  // conv: 2*1*3*3 + 2 = 20; linear: 32 + 1 = 33. Total 53.
  EXPECT_EQ(net.num_parameters(), 53u);
  EXPECT_EQ(net.num_layers(), 3u);
}

TEST(Sequential, SaveLoadRoundTrip) {
  runtime::Xoshiro256 r1(5), r2(99);
  auto build = [](runtime::Xoshiro256& r) {
    auto net = std::make_unique<Sequential>();
    net->add(std::make_unique<Conv2d>(1, 2, 3, 2, 1, r))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<Linear>(2 * 4 * 4, 1, r));
    return net;
  };
  auto a = build(r1);
  auto b = build(r2);
  Tensor x(1, 1, 8, 8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i % 7) * 0.1f;
  std::stringstream ss;
  a->save(ss);
  b->load(ss);
  ForwardScratch wa, wb;
  const Tensor& ya = a->forward(x, wa);
  const Tensor& yb = b->forward(x, wb);
  EXPECT_FLOAT_EQ(ya.at(0, 0, 0, 0), yb.at(0, 0, 0, 0));
}

TEST(Sequential, TrainAndInferenceForwardsAgree) {
  // The SNM's stack at its shapes: 50x50 difference map, 8 and 16 filters.
  // Training and inference share every layer's forward, so they agree
  // bitwise up to the linear head, whose reduction order alone differs.
  runtime::Xoshiro256 r(17);
  constexpr std::size_t kFeatures = 16 * 13 * 13;
  Sequential net;
  net.add(std::make_unique<Conv2d>(1, 8, 3, 2, 1, r))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Conv2d>(8, 16, 3, 2, 1, r))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(kFeatures, 1, r));
  const Linear& fc = static_cast<const Linear&>(net.layer(4));
  const int saved = runtime::compute_parallelism();
  for (const int batch : {1, 16}) {
    for (const int parallelism : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch << ", parallelism "
                                        << parallelism);
      runtime::set_compute_parallelism(parallelism);
      Tensor x(batch, 1, 50, 50);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(r.uniform(0.0, 1.0));
      }
      Tensor train_in = x, infer_in = x;
      for (std::size_t l = 0; l < net.num_layers(); ++l) {
        SCOPED_TRACE(net.layer(l).name());
        const Tensor train_out = run(net.layer(l), train_in, /*train=*/true);
        const Tensor infer_out = run(net.layer(l), infer_in);
        ASSERT_TRUE(train_out.same_shape(infer_out));
        if (l + 1 < net.num_layers()) {
          EXPECT_EQ(0, std::memcmp(train_out.data(), infer_out.data(),
                                   train_out.size() * sizeof(float)));
        } else {
          // Relative to the magnitude of the summed terms, which bounds
          // the rounding of any reduction order even where they cancel.
          for (std::size_t n = 0; n < train_out.size(); ++n) {
            double scale = std::abs(fc.bias[0]);
            for (std::size_t i = 0; i < kFeatures; ++i) {
              scale += std::abs(double{fc.weight[i]} * train_in[n * kFeatures + i]);
            }
            EXPECT_LE(std::abs(train_out[n] - infer_out[n]), 1e-5 * scale)
                << "logit " << n;
          }
        }
        train_in = train_out;
        infer_in = infer_out;
      }
    }
  }
  runtime::set_compute_parallelism(saved);
}

}  // namespace
}  // namespace ffsva::nn
