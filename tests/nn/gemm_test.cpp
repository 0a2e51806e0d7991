#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "nn/layers.hpp"
#include "runtime/parallel_for.hpp"

namespace ffsva::nn {
namespace {

Tensor random_tensor(int n, int c, int h, int w, std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  Tensor t(n, c, h, w);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(Gemm, MatchesManualMultiply) {
  // A: 2x3, B: 3x2.
  const float a[] = {1, 2, 3, 4, 5, 6};
  const float b[] = {7, 8, 9, 10, 11, 12};
  float c[4];
  GemmScratch ws;
  gemm(a, b, c, 2, 3, 2, ws);
  EXPECT_FLOAT_EQ(c[0], 58.0f);   // 1*7+2*9+3*11
  EXPECT_FLOAT_EQ(c[1], 64.0f);   // 1*8+2*10+3*12
  EXPECT_FLOAT_EQ(c[2], 139.0f);  // 4*7+5*9+6*11
  EXPECT_FLOAT_EQ(c[3], 154.0f);
}

TEST(Gemm, IdentityLeavesMatrixUnchanged) {
  const float eye[] = {1, 0, 0, 1};
  const float b[] = {3, 4, 5, 6};
  float c[4];
  GemmScratch ws;
  gemm(eye, b, c, 2, 2, 2, ws);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], b[i]);
}

TEST(Im2Col, UnfoldsKnownPattern) {
  // 1x1x2x2 input, kernel 2, stride 1, pad 0 -> single column of 4.
  Tensor x(1, 1, 2, 2);
  x.at(0, 0, 0, 0) = 1;
  x.at(0, 0, 0, 1) = 2;
  x.at(0, 0, 1, 0) = 3;
  x.at(0, 0, 1, 1) = 4;
  std::vector<float> cols;
  im2col(x, 0, 2, 1, 0, 1, 1, cols);
  ASSERT_EQ(cols.size(), 4u);
  EXPECT_FLOAT_EQ(cols[0], 1);
  EXPECT_FLOAT_EQ(cols[1], 2);
  EXPECT_FLOAT_EQ(cols[2], 3);
  EXPECT_FLOAT_EQ(cols[3], 4);
}

TEST(Im2Col, ZeroPaddingFillsBorders) {
  Tensor x(1, 1, 1, 1);
  x.at(0, 0, 0, 0) = 5;
  // kernel 3, pad 1 -> 1x1 output, 9 rows; only the center is nonzero.
  std::vector<float> cols;
  im2col(x, 0, 3, 1, 1, 1, 1, cols);
  ASSERT_EQ(cols.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(cols[static_cast<std::size_t>(i)], i == 4 ? 5.0f : 0.0f);
  }
}

/// The central property: the layer's im2col forward agrees with the direct
/// reference loop on random inputs across shapes, strides and paddings.
class ConvEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int, int, int>> {};

TEST_P(ConvEquivalenceTest, DirectMatchesIm2Col) {
  const auto [batch, in_ch, out_ch, size, kernel, stride, pad] = GetParam();
  runtime::Xoshiro256 rng(99);
  Conv2d conv(in_ch, out_ch, kernel, stride, pad, rng);
  const Tensor x = random_tensor(batch, in_ch, size, size, 7);

  const Tensor direct = conv2d_direct(x, conv.weight, conv.bias, stride, pad);
  Tensor lowered;
  GemmScratch ws;
  conv.forward(x, lowered, ws, /*train=*/false);

  ASSERT_TRUE(direct.same_shape(lowered));
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ASSERT_NEAR(direct[i], lowered[i], 1e-4f) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvEquivalenceTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 5, 3, 1, 1),
                      std::make_tuple(2, 3, 4, 8, 3, 1, 1),
                      std::make_tuple(1, 1, 8, 50, 3, 2, 1),
                      std::make_tuple(3, 8, 16, 25, 3, 2, 1),
                      std::make_tuple(1, 2, 2, 7, 5, 1, 2),
                      std::make_tuple(2, 4, 4, 9, 3, 3, 0),
                      std::make_tuple(1, 1, 1, 4, 1, 1, 0)));

TEST(ConvIm2Col, TrainingCachesInputForBackward) {
  // With im2col forward, backward must still see the cached input.
  runtime::Xoshiro256 rng(4);
  Conv2d conv(1, 2, 3, 1, 1, rng);
  const Tensor x = random_tensor(1, 1, 6, 6, 5);
  Tensor y;
  GemmScratch ws;
  conv.forward(x, y, ws, /*train=*/true);
  Tensor g = Tensor::zeros_like(y);
  g.fill(1.0f);
  const Tensor gin = conv.backward(g);
  EXPECT_TRUE(gin.same_shape(x));
  EXPECT_GT(conv.weight_grad.abs_max(), 0.0);
}

TEST(ConvIm2Col, ChannelMismatchThrows) {
  Tensor x(1, 2, 4, 4);
  Tensor w(1, 3, 3, 3);
  Tensor b(1, 1, 1, 1);
  Tensor y;
  GemmScratch ws;
  EXPECT_THROW(conv2d_im2col_into(x, w, b, 1, 1, y, ws), std::invalid_argument);
  EXPECT_THROW(conv2d_direct(x, w, b, 1, 1), std::invalid_argument);
}

/// Restores the compute parallelism a test overrides, so thread-count
/// experiments don't leak into the rest of the binary.
class ParallelismGuard {
 public:
  ParallelismGuard() : saved_(runtime::compute_parallelism()) {}
  ~ParallelismGuard() { runtime::set_compute_parallelism(saved_); }

 private:
  int saved_;
};

std::vector<float> random_matrix(int rows, int cols, std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

/// The blocked kernel must agree with the seed kernel at awkward shapes:
/// degenerate dims, non-multiples of the register tile, and sizes that
/// cross the KC/NC cache-block boundaries.
TEST(GemmBlocked, MatchesNaiveAcrossShapes) {
  const struct { int m, k, n; } shapes[] = {
      {1, 1, 1},    {1, 300, 1},   {300, 1, 5},   {5, 3, 300},
      {4, 16, 16},  {5, 17, 33},   {3, 40, 97},   {64, 64, 64},
      {16, 72, 169}, {8, 9, 625},  {7, 300, 41},  {130, 260, 37},
      {33, 257, 1030}};
  GemmScratch ws;  // Shared across shapes: exercises buffer re-sizing too.
  std::uint64_t seed = 1;
  for (const auto& s : shapes) {
    const auto a = random_matrix(s.m, s.k, seed++);
    const auto b = random_matrix(s.k, s.n, seed++);
    std::vector<float> want(static_cast<std::size_t>(s.m) * s.n);
    std::vector<float> got(want.size());
    gemm_naive(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n, ws);
    const float tol = 1e-4f * static_cast<float>(s.k);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(want[i], got[i], tol)
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " element " << i;
    }
  }
}

TEST(GemmBlocked, CompactsPrunedKSteps) {
  // Zero whole k-columns of A (all rows), the shape magnitude pruning
  // produces: the packer compacts those steps and the indexed micro-kernel
  // must still produce the dense answer.
  const int m = 19, k = 83, n = 201;
  auto a = random_matrix(m, k, 11);
  const auto b = random_matrix(k, n, 12);
  runtime::Xoshiro256 rng(13);
  for (int kk = 0; kk < k; ++kk) {
    if (rng.uniform(0.0, 1.0) >= 0.5) continue;
    for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * k + kk] = 0.0f;
  }
  std::vector<float> want(static_cast<std::size_t>(m) * n), got(want.size());
  gemm_naive(a.data(), b.data(), want.data(), m, k, n);
  GemmScratch ws;
  gemm(a.data(), b.data(), got.data(), m, k, n, ws);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(want[i], got[i], 1e-3f) << "element " << i;
  }
}

TEST(GemmBlocked, BitwiseDeterministicAcrossThreadCounts) {
  // One call runs on the calling thread and accumulates each output row in
  // one fixed k-order, so the result must be bitwise identical whatever the
  // compute parallelism is set to.
  const int m = 96, k = 128, n = 160;
  const auto a = random_matrix(m, k, 21);
  const auto b = random_matrix(k, n, 22);
  std::vector<float> c1(static_cast<std::size_t>(m) * n), c4(c1.size());

  ParallelismGuard guard;
  GemmScratch ws;
  runtime::set_compute_parallelism(1);
  gemm(a.data(), b.data(), c1.data(), m, k, n, ws);
  runtime::set_compute_parallelism(4);
  gemm(a.data(), b.data(), c4.data(), m, k, n, ws);
  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)));
}

TEST(ConvIm2Col, IntoReusesScratchAcrossShapes) {
  // Shrinking then growing shapes through one scratch: buffers are
  // grow-only, so results must not be contaminated by stale contents.
  runtime::Xoshiro256 rng(31);
  GemmScratch ws;
  Tensor y;
  const struct { int batch, in_ch, out_ch, size, stride, pad; } shapes[] = {
      {2, 4, 8, 16, 2, 1}, {1, 1, 2, 5, 1, 1}, {4, 8, 16, 25, 2, 1}};
  for (const auto& s : shapes) {
    Conv2d conv(s.in_ch, s.out_ch, 3, s.stride, s.pad, rng);
    const Tensor x = random_tensor(s.batch, s.in_ch, s.size, s.size,
                                   static_cast<std::uint64_t>(s.size));
    const Tensor want = conv2d_direct(x, conv.weight, conv.bias, s.stride, s.pad);
    conv2d_im2col_into(x, conv.weight, conv.bias, s.stride, s.pad, y, ws);
    ASSERT_TRUE(want.same_shape(y));
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(want[i], y[i], 1e-4f) << "element " << i;
    }
  }
}

TEST(ConvIm2Col, BatchFanOutDeterministicAcrossThreadCounts) {
  // The batched conv path fans samples across the pool; per-sample work is
  // independent, so outputs must be bitwise identical at any parallelism.
  runtime::Xoshiro256 rng(41);
  Conv2d conv(8, 16, 3, 2, 1, rng);
  const Tensor x = random_tensor(6, 8, 25, 25, 43);

  ParallelismGuard guard;
  GemmScratch ws;
  Tensor y1, y4;
  runtime::set_compute_parallelism(1);
  conv2d_im2col_into(x, conv.weight, conv.bias, 2, 1, y1, ws);
  runtime::set_compute_parallelism(4);
  conv2d_im2col_into(x, conv.weight, conv.bias, 2, 1, y4, ws);
  ASSERT_TRUE(y1.same_shape(y4));
  EXPECT_EQ(0, std::memcmp(y1.data(), y4.data(), y1.size() * sizeof(float)));
}

TEST(Gemm, SkipsZeroWeights) {
  // Behavioural check of the pruning fast path: result identical with
  // zeros present.
  const float a[] = {0, 2, 0, 4};
  const float b[] = {1, 2, 3, 4};
  float c[4];
  GemmScratch ws;
  gemm(a, b, c, 2, 2, 2, ws);
  EXPECT_FLOAT_EQ(c[0], 6.0f);
  EXPECT_FLOAT_EQ(c[1], 8.0f);
  EXPECT_FLOAT_EQ(c[2], 12.0f);
  EXPECT_FLOAT_EQ(c[3], 16.0f);
}

}  // namespace
}  // namespace ffsva::nn
