#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ffsva::nn {
namespace {

TEST(Tensor, ShapeAndSize) {
  Tensor t(2, 3, 4, 5);
  EXPECT_EQ(t.n(), 2);
  EXPECT_EQ(t.c(), 3);
  EXPECT_EQ(t.h(), 4);
  EXPECT_EQ(t.w(), 5);
  EXPECT_EQ(t.size(), 120u);
  EXPECT_FALSE(t.empty());
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(1, 2, 2, 2);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, NchwIndexing) {
  Tensor t(2, 2, 3, 4);
  t.at(1, 1, 2, 3) = 42.0f;
  // Linear index: ((n*C + c)*H + h)*W + w = ((1*2+1)*3+2)*4+3 = 47.
  EXPECT_EQ(t[47], 42.0f);
}

TEST(Tensor, ZerosLike) {
  Tensor t(3, 1, 2, 2);
  t.fill(7.0f);
  const Tensor z = Tensor::zeros_like(t);
  EXPECT_TRUE(z.same_shape(t));
  EXPECT_EQ(z.sum(), 0.0);
}

TEST(Tensor, Scale) {
  Tensor a(1, 1, 1, 3);
  a[0] = 6;
  a[2] = 18;
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a[0], 12.0f);
  EXPECT_FLOAT_EQ(a[2], 36.0f);
}

TEST(Tensor, SumAndAbsMax) {
  Tensor t(1, 1, 1, 4);
  t[0] = -5;
  t[1] = 2;
  t[2] = 3;
  t[3] = -1;
  EXPECT_DOUBLE_EQ(t.sum(), -1.0);
  EXPECT_DOUBLE_EQ(t.abs_max(), 5.0);
}

TEST(Tensor, SerializationRoundTrip) {
  Tensor t(2, 1, 3, 3);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i) * 0.25f;
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor u(2, 1, 3, 3);
  read_tensor_values(ss, u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(u[i], t[i]);
}

TEST(Tensor, LoadShapeMismatchThrows) {
  Tensor t(1, 1, 2, 2);
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor wrong(1, 1, 2, 3);
  EXPECT_THROW(read_tensor_values(ss, wrong), std::runtime_error);
}

TEST(Tensor, LoadTruncatedThrows) {
  Tensor t(1, 1, 4, 4);
  std::stringstream ss;
  write_tensor(ss, t);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  Tensor u(1, 1, 4, 4);
  EXPECT_THROW(read_tensor_values(truncated, u), std::runtime_error);
}

}  // namespace
}  // namespace ffsva::nn
