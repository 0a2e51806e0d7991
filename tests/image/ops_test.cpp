#include "image/ops.hpp"

#include <gtest/gtest.h>

#include "runtime/parallel_for.hpp"
#include "runtime/rng.hpp"

namespace ffsva::image {
namespace {

Image random_image(int w, int h, int c, std::uint64_t seed) {
  Image img(w, h, c);
  runtime::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

TEST(ToGray, GrayPassThrough) {
  const Image g = random_image(8, 8, 1, 1);
  EXPECT_EQ(to_gray(g), g);
}

TEST(ToGray, KnownWeights) {
  Image img(1, 1, 3);
  img.at(0, 0, 0) = 255;  // pure red
  EXPECT_NEAR(to_gray(img).at(0, 0), 76, 1);  // 0.299 * 255
  img.at(0, 0, 0) = 0;
  img.at(0, 0, 1) = 255;  // pure green
  EXPECT_NEAR(to_gray(img).at(0, 0), 149, 1);
}

TEST(ToGray, WhiteStaysWhite) {
  const Image w(4, 4, 3, 255);
  const Image g = to_gray(w);
  // Fixed-point weights sum to 256/256; pure white loses at most 1 LSB.
  EXPECT_GE(g.at(2, 2), 254);
}

TEST(Resize, IdentityWhenSameSize) {
  const Image img = random_image(10, 7, 3, 2);
  EXPECT_EQ(resize_bilinear(img, 10, 7), img);
}

TEST(Resize, ConstantImageStaysConstant) {
  const Image img(16, 16, 1, 99);
  const Image small = resize_bilinear(img, 5, 5);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) EXPECT_EQ(small.at(x, y), 99);
  }
}

TEST(Resize, DownThenDimensions) {
  const Image img = random_image(100, 50, 3, 3);
  const Image out = resize_bilinear(img, 25, 10);
  EXPECT_EQ(out.width(), 25);
  EXPECT_EQ(out.height(), 10);
  EXPECT_EQ(out.channels(), 3);
}

TEST(Resize, UpscalePreservesMeanApproximately) {
  const Image img = random_image(8, 8, 1, 4);
  const Image big = resize_bilinear(img, 32, 32);
  double mean_in = 0, mean_out = 0;
  for (std::size_t i = 0; i < img.size_bytes(); ++i) mean_in += img.data()[i];
  for (std::size_t i = 0; i < big.size_bytes(); ++i) mean_out += big.data()[i];
  mean_in /= static_cast<double>(img.size_bytes());
  mean_out /= static_cast<double>(big.size_bytes());
  EXPECT_NEAR(mean_in, mean_out, 4.0);
}

TEST(ResizePlan, IntoMatchesAllocatingResize) {
  const Image img = random_image(123, 77, 3, 6);
  const Image want = resize_bilinear(img, 50, 50);
  ResizePlan plan;
  plan.ensure(img.width(), img.height(), 50, 50);
  Image got;
  resize_bilinear_into(img, plan, got);
  EXPECT_EQ(want, got);
}

TEST(ResizePlan, EnsureRebuildsOnGeometryChange) {
  ResizePlan plan;
  plan.ensure(100, 50, 25, 10);
  const auto first_x0 = plan.x0;
  plan.ensure(100, 50, 25, 10);  // Same geometry: tables unchanged.
  EXPECT_EQ(first_x0, plan.x0);
  plan.ensure(64, 64, 16, 16);  // New geometry: tables rebuilt.
  EXPECT_EQ(16u, plan.x0.size());
  EXPECT_EQ(16u, plan.y0.size());

  // The rebuilt plan still resizes correctly (no stale-table reuse).
  const Image img = random_image(64, 64, 1, 7);
  Image got;
  resize_bilinear_into(img, plan, got);
  EXPECT_EQ(resize_bilinear(img, 16, 16), got);
}

TEST(ResizePlan, IntoDeterministicAcrossThreadCounts) {
  // The resize runs on the calling thread in integer math: results must be
  // bitwise identical whatever the compute parallelism is set to.
  const Image img = random_image(320, 240, 1, 8);
  ResizePlan plan;
  plan.ensure(img.width(), img.height(), 50, 50);

  const int saved = runtime::compute_parallelism();
  runtime::set_compute_parallelism(1);
  Image serial;
  resize_bilinear_into(img, plan, serial);
  runtime::set_compute_parallelism(4);
  Image parallel;
  resize_bilinear_into(img, plan, parallel);
  runtime::set_compute_parallelism(saved);
  EXPECT_EQ(serial, parallel);
}

TEST(Distance, IdenticalImagesAreZero) {
  const Image img = random_image(20, 20, 1, 5);
  EXPECT_EQ(mse(img, img), 0.0);
  EXPECT_EQ(sad(img, img), 0.0);
  EXPECT_EQ(nrmse(img, img), 0.0);
}

TEST(Distance, KnownValues) {
  Image a(2, 1, 1), b(2, 1, 1);
  a.at(0, 0) = 10;
  a.at(1, 0) = 20;
  b.at(0, 0) = 13;
  b.at(1, 0) = 16;
  EXPECT_DOUBLE_EQ(mse(a, b), (9.0 + 16.0) / 2);
  EXPECT_DOUBLE_EQ(sad(a, b), (3.0 + 4.0) / 2);
  EXPECT_DOUBLE_EQ(nrmse(a, b), std::sqrt(12.5) / 255.0);
}

TEST(Distance, SymmetricInArguments) {
  const Image a = random_image(16, 16, 3, 6);
  const Image b = random_image(16, 16, 3, 7);
  EXPECT_DOUBLE_EQ(mse(a, b), mse(b, a));
  EXPECT_DOUBLE_EQ(sad(a, b), sad(b, a));
}

TEST(Distance, ShapeMismatchThrows) {
  const Image a(4, 4, 1);
  const Image b(4, 5, 1);
  EXPECT_THROW(mse(a, b), std::invalid_argument);
  EXPECT_THROW(sad(a, b), std::invalid_argument);
  EXPECT_THROW(abs_diff(a, b), std::invalid_argument);
}

TEST(AbsDiff, MatchesManualComputation) {
  Image a(1, 1, 1), b(1, 1, 1);
  a.at(0, 0) = 5;
  b.at(0, 0) = 12;
  EXPECT_EQ(abs_diff(a, b).at(0, 0), 7);
  EXPECT_EQ(abs_diff(b, a).at(0, 0), 7);
}

TEST(GaussianBlur, NonPositiveSigmaIsCopy) {
  const Image img = random_image(10, 10, 1, 8);
  EXPECT_EQ(gaussian_blur(img, 0.0), img);
  EXPECT_EQ(gaussian_blur(img, -1.0), img);
}

TEST(GaussianBlur, PreservesConstantImage) {
  const Image img(12, 12, 1, 77);
  const Image out = gaussian_blur(img, 1.5);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) EXPECT_NEAR(out.at(x, y), 77, 1);
  }
}

TEST(GaussianBlur, SmoothsAnImpulse) {
  Image img(11, 11, 1, 0);
  img.at(5, 5) = 255;
  const Image out = gaussian_blur(img, 1.0);
  EXPECT_LT(out.at(5, 5), 255);
  EXPECT_GT(out.at(4, 5), 0);
  EXPECT_GT(out.at(5, 4), 0);
  // Energy decays with distance from the impulse.
  EXPECT_GT(out.at(5, 5), out.at(3, 5));
  EXPECT_GT(out.at(4, 5), out.at(2, 5));
}

TEST(Threshold, BinaryOutput) {
  Image img(3, 1, 1);
  img.at(0, 0) = 10;
  img.at(1, 0) = 100;
  img.at(2, 0) = 200;
  const Image out = threshold(img, 100);
  EXPECT_EQ(out.at(0, 0), 0);
  EXPECT_EQ(out.at(1, 0), 0);  // strictly greater-than
  EXPECT_EQ(out.at(2, 0), 255);
}

TEST(Otsu, SeparatesBimodalHistogram) {
  Image img(20, 20, 1);
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 20; ++x) img.at(x, y) = (x < 10) ? 40 : 200;
  }
  const std::uint8_t t = otsu_threshold(img);
  EXPECT_GE(t, 40);
  EXPECT_LT(t, 200);
}

TEST(Morphology, ErodeRemovesIsolatedPixel) {
  Image img(9, 9, 1, 0);
  img.at(4, 4) = 255;
  const Image out = erode3x3(img);
  EXPECT_EQ(out.at(4, 4), 0);
}

TEST(Morphology, DilateGrowsRegion) {
  Image img(9, 9, 1, 0);
  img.at(4, 4) = 255;
  const Image out = dilate3x3(img);
  EXPECT_EQ(out.at(4, 4), 255);
  EXPECT_EQ(out.at(3, 4), 255);
  EXPECT_EQ(out.at(5, 5), 255);
  EXPECT_EQ(out.at(2, 4), 0);
}

TEST(Morphology, OpeningPreservesLargeBlob) {
  Image img(20, 20, 1, 0);
  for (int y = 5; y < 15; ++y) {
    for (int x = 5; x < 15; ++x) img.at(x, y) = 255;
  }
  const Image opened = dilate3x3(erode3x3(img));
  EXPECT_EQ(opened.at(10, 10), 255);
  EXPECT_EQ(opened.at(0, 0), 0);
}

TEST(IntegralImage, BoxSumsMatchBruteForce) {
  const Image img = random_image(17, 13, 1, 9);
  const auto integral = integral_image(img);
  runtime::Xoshiro256 rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    const int x0 = static_cast<int>(rng.below(17));
    const int y0 = static_cast<int>(rng.below(13));
    const int x1 = x0 + static_cast<int>(rng.below(static_cast<std::uint64_t>(17 - x0 + 1)));
    const int y1 = y0 + static_cast<int>(rng.below(static_cast<std::uint64_t>(13 - y0 + 1)));
    std::uint64_t brute = 0;
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) brute += img.at(x, y);
    }
    EXPECT_EQ(box_sum(integral, 17, x0, y0, x1, y1), brute);
  }
}

TEST(IntegralImage, EmptyRectIsZero) {
  const Image img = random_image(5, 5, 1, 11);
  const auto integral = integral_image(img);
  EXPECT_EQ(box_sum(integral, 5, 2, 2, 2, 4), 0u);
  EXPECT_EQ(box_sum(integral, 5, 3, 3, 2, 2), 0u);
}

}  // namespace
}  // namespace ffsva::image
