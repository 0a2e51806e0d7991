#include "image/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

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
}

Image erode(const Image& binary) {
  Image out;
  erode3x3(binary, out);
  return out;
}

Image dilate(const Image& binary) {
  Image out;
  dilate3x3(binary, out);
  return out;
}

Image blur_threshold(const Image& src, double sigma, std::uint8_t t) {
  Image out;
  image::blur_threshold(src, sigma, t, out);
  return out;
}

TEST(BlurThreshold, NonPositiveSigmaOnlyThresholds) {
  Image img(3, 1, 1);
  img.at(0, 0) = 10;
  img.at(1, 0) = 100;
  img.at(2, 0) = 200;
  for (const double sigma : {0.0, -1.0}) {
    const Image out = blur_threshold(img, sigma, 100);
    EXPECT_EQ(out.at(0, 0), 0);
    EXPECT_EQ(out.at(1, 0), 0);  // strictly greater-than
    EXPECT_EQ(out.at(2, 0), 255);
  }
}

TEST(BlurThreshold, ConstantImageStaysOnItsSide) {
  const Image img(12, 12, 1, 77);
  const Image above = blur_threshold(img, 1.5, 76);
  const Image below = blur_threshold(img, 1.5, 77);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      EXPECT_EQ(above.at(x, y), 255);
      EXPECT_EQ(below.at(x, y), 0);
    }
  }
}

TEST(BlurThreshold, SpreadsAnImpulse) {
  Image img(11, 11, 1, 0);
  img.at(5, 5) = 255;
  const Image out = blur_threshold(img, 1.0, 10);
  EXPECT_EQ(out.at(5, 5), 255);
  EXPECT_EQ(out.at(4, 5), 255);
  EXPECT_EQ(out.at(5, 4), 255);
  EXPECT_EQ(out.at(1, 5), 0);  // the tail falls below the threshold
  EXPECT_EQ(out.at(0, 0), 0);
}

TEST(Morphology, ErodeRemovesIsolatedPixel) {
  Image img(9, 9, 1, 0);
  img.at(4, 4) = 255;
  const Image out = erode(img);
  EXPECT_EQ(out.at(4, 4), 0);
}

TEST(Morphology, DilateGrowsRegion) {
  Image img(9, 9, 1, 0);
  img.at(4, 4) = 255;
  const Image out = dilate(img);
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
  const Image opened = dilate(erode(img));
  EXPECT_EQ(opened.at(10, 10), 255);
  EXPECT_EQ(opened.at(0, 0), 0);
}

// --- Exactness oracles -------------------------------------------------------
//
// The kernels in image/ops.cpp are rewritten for speed but must give the
// same bytes as the plain per-pixel loops below, which clamp every index and
// stage a full frame of doubles. These oracles exist only here.
namespace oracle {

Image gaussian_blur(const Image& src, double sigma) {
  if (sigma <= 0.0 || src.empty()) return src;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
  std::vector<double> kernel(2 * radius + 1);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-(i * i) / (2.0 * sigma * sigma));
    sum += kernel[i + radius];
  }
  for (auto& k : kernel) k /= sum;

  const int w = src.width(), h = src.height(), c = src.channels();
  std::vector<double> tmp(static_cast<std::size_t>(w) * h * c, 0.0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        double acc = 0.0;
        for (int k = -radius; k <= radius; ++k) {
          const int xx = std::clamp(x + k, 0, w - 1);
          acc += kernel[k + radius] * src.at(xx, y, ch);
        }
        tmp[(static_cast<std::size_t>(y) * w + x) * c + ch] = acc;
      }
    }
  }
  Image out(w, h, c);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        double acc = 0.0;
        for (int k = -radius; k <= radius; ++k) {
          const int yy = std::clamp(y + k, 0, h - 1);
          acc += kernel[k + radius] *
                 tmp[(static_cast<std::size_t>(yy) * w + x) * c + ch];
        }
        out.at(x, y, ch) = static_cast<std::uint8_t>(std::clamp(acc + 0.5, 0.0, 255.0));
      }
    }
  }
  return out;
}

Image threshold(const Image& src, std::uint8_t t) {
  Image out(src.width(), src.height(), src.channels());
  for (std::size_t i = 0; i < src.size_bytes(); ++i) {
    out.data()[i] = src.data()[i] > t ? 255 : 0;
  }
  return out;
}

Image morph3x3(const Image& binary, bool erode) {
  Image out(binary.width(), binary.height(), binary.channels());
  const int w = binary.width(), h = binary.height();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      bool all = true, any = false;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int xx = std::clamp(x + dx, 0, w - 1);
          const int yy = std::clamp(y + dy, 0, h - 1);
          const bool v = binary.at(xx, yy) != 0;
          all = all && v;
          any = any || v;
        }
      }
      out.at(x, y) = (erode ? all : any) ? 255 : 0;
    }
  }
  return out;
}

void resize_bilinear_into(const Image& src, const ResizePlan& plan, Image& dst) {
  dst.reset(plan.out_w, plan.out_h, src.channels());
  const int c = src.channels();
  constexpr int kOne = 1 << ResizePlan::kWeightBits;
  constexpr int kHalf = 1 << (2 * ResizePlan::kWeightBits - 1);
  const std::size_t row_stride = static_cast<std::size_t>(plan.src_w) * c;
  for (int y = 0; y < plan.out_h; ++y) {
    const auto yi = static_cast<std::size_t>(y);
    const std::uint8_t* r0 = src.data() + plan.y0[yi] * row_stride;
    const std::uint8_t* r1 = src.data() + plan.y1[yi] * row_stride;
    const int vy = plan.wy[yi];
    const int uy = kOne - vy;
    std::uint8_t* out = dst.data() + yi * plan.out_w * c;
    for (int x = 0; x < plan.out_w; ++x) {
      const int xa = plan.x0[static_cast<std::size_t>(x)] * c;
      const int xb = plan.x1[static_cast<std::size_t>(x)] * c;
      const int vx = plan.wx[static_cast<std::size_t>(x)];
      const int ux = kOne - vx;
      for (int ch = 0; ch < c; ++ch) {
        const int top = r0[xa + ch] * ux + r0[xb + ch] * vx;
        const int bot = r1[xa + ch] * ux + r1[xb + ch] * vx;
        out[x * c + ch] = static_cast<std::uint8_t>(
            (top * uy + bot * vy + kHalf) >> (2 * ResizePlan::kWeightBits));
      }
    }
  }
}

}  // namespace oracle

/// A mask of zero and assorted nonzero bytes, `density` of them set.
Image random_mask(int w, int h, int c, double density, std::uint64_t seed) {
  Image img(w, h, c);
  runtime::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < img.size_bytes(); ++i) {
    const bool set = static_cast<double>(rng.below(1000)) < density * 1000.0;
    img.data()[i] = set ? static_cast<std::uint8_t>(1 + rng.below(255)) : 0;
  }
  return img;
}

/// A map whose rows straddle threshold `t`: rows of zeros, rows of values
/// up to exactly t, full-range rows, rows with a lone t + 1, and a block of
/// t + 1 large enough to hold a whole blur window. So every way a window can
/// sit at, just above or far above t occurs.
Image straddling_map(int w, int h, int c, std::uint8_t t, std::uint64_t seed) {
  Image img(w, h, c);
  runtime::Xoshiro256 rng(seed);
  const int up = std::min(255, t + 1);
  for (int y = 0; y < h; ++y) {
    const auto kind = rng.below(5);
    std::uint8_t* row = img.data() + static_cast<std::size_t>(y) * w * c;
    for (int i = 0; i < w * c; ++i) {
      std::uint64_t v = 0;
      switch (kind) {
        case 0: break;
        case 1: v = rng.below(t + 1u); break;
        case 2: v = rng.below(256); break;
        default: v = t - rng.below(std::min<std::uint64_t>(t, 3) + 1);  // t-3 .. t
      }
      row[i] = static_cast<std::uint8_t>(v);
    }
    if (kind == 3) {
      row[rng.below(static_cast<std::uint64_t>(w) * c)] = static_cast<std::uint8_t>(up);
    }
  }
  const int bw = std::min(w, 19), bh = std::min(h, 19);
  const int x0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(w - bw + 1)));
  const int y0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(h - bh + 1)));
  for (int y = y0; y < y0 + bh; ++y) {
    for (int x = x0; x < x0 + bw; ++x) {
      for (int ch = 0; ch < c; ++ch) img.at(x, y, ch) = static_cast<std::uint8_t>(up);
    }
  }
  return img;
}

/// The fused kernel against thresholding the plain-loop blur.
void expect_blur_threshold_exact(const Image& img, double sigma, std::uint8_t t) {
  EXPECT_EQ(blur_threshold(img, sigma, t),
            oracle::threshold(oracle::gaussian_blur(img, sigma), t))
      << "sigma " << sigma << ", t " << int{t} << ", " << img.width() << "x"
      << img.height() << "x" << img.channels();
}

constexpr double kSigmas[] = {0.5, 0.7, 1.0, 1.6, 2.5};
constexpr std::uint8_t kThresholds[] = {0, 24, 28, 254, 255};

TEST(ExactnessOracle, BlurThresholdMatchesClampedLoops) {
  std::uint64_t seed = 100;
  for (const double sigma : kSigmas) {
    const int r = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    const std::vector<int> sizes = {1, 2, r, 2 * r + 1, 37};
    for (const std::uint8_t t : kThresholds) {
      for (const int c : {1, 3}) {
        for (const int w : sizes) {
          for (const int h : sizes) {
            expect_blur_threshold_exact(straddling_map(w, h, c, t, ++seed), sigma, t);
            expect_blur_threshold_exact(random_image(w, h, c, ++seed), sigma, t);
          }
        }
        expect_blur_threshold_exact(straddling_map(256, 192, c, t, ++seed), sigma, t);
      }
    }
  }
}

TEST(ExactnessOracle, BlurThresholdOfSaturatedBlocks) {
  // Hard 0/255 edges drive sums to the ends of the output range, where the
  // final clamp and rounding decide the byte.
  Image img(64, 48, 1, 0);
  for (int y = 8; y < 40; ++y) {
    for (int x = 10; x < 50; ++x) img.at(x, y) = 255;
  }
  for (const double sigma : kSigmas) {
    for (const std::uint8_t t : kThresholds) expect_blur_threshold_exact(img, sigma, t);
  }
}

TEST(ExactnessOracle, MorphologyMatchesClampedLoops) {
  std::uint64_t seed = 200;
  const std::vector<int> sizes = {1, 2, 3, 4, 37};
  for (const double density : {0.1, 0.5, 0.9}) {
    for (const int c : {1, 3}) {
      for (const int w : sizes) {
        for (const int h : sizes) {
          const Image mask = random_mask(w, h, c, density, ++seed);
          EXPECT_EQ(erode(mask), oracle::morph3x3(mask, /*erode=*/true))
              << w << "x" << h << "x" << c << " density " << density;
          EXPECT_EQ(dilate(mask), oracle::morph3x3(mask, /*erode=*/false))
              << w << "x" << h << "x" << c << " density " << density;
        }
      }
      const Image frame = random_mask(256, 192, c, density, ++seed);
      EXPECT_EQ(erode(frame), oracle::morph3x3(frame, true)) << density;
      EXPECT_EQ(dilate(frame), oracle::morph3x3(frame, false)) << density;
    }
  }
}

TEST(ExactnessOracle, ResizeMatchesGenericChannelLoop) {
  std::uint64_t seed = 300;
  // Every pair of shapes, both ways, including the engine's frame sizes
  // (256x192, 192x144) and filter inputs (SDD 100, T-YOLO 104, SNM 50).
  const std::vector<std::pair<int, int>> shapes = {
      {1, 1},     {2, 1},     {1, 2},     {7, 5},     {37, 23},  {50, 50},
      {100, 100}, {104, 104}, {192, 144}, {256, 192}, {320, 240}};
  for (const int c : {1, 3}) {
    for (const auto& [sw, sh] : shapes) {
      const Image img = random_image(sw, sh, c, ++seed);
      for (const auto& [ow, oh] : shapes) {
        ResizePlan plan;
        plan.ensure(sw, sh, ow, oh);
        Image got, want;
        resize_bilinear_into(img, plan, got);
        oracle::resize_bilinear_into(img, plan, want);
        EXPECT_EQ(got, want)
            << sw << "x" << sh << " -> " << ow << "x" << oh << "x" << c;
      }
    }
  }
  // Edges of the 3-channel column groups on AVX-512 builds (g pixels per
  // group, largest g <= 5 whose taps fit a 32-lane window of the row).
  struct Case {
    int sw, sh, ow, oh;
  };
  const std::vector<Case> edges = {
      {320, 240, 100, 100},  // g = 3, partial last group (1 pixel).
      {99, 77, 37, 23},      // g = 4, partial last group; odd widths.
      {192, 192, 50, 50},    // g = 3, partial last group (2 pixels).
      {192, 144, 100, 100},  // g = 5, full last group ends at the row end.
      {256, 192, 50, 50},    // g = 2, full last group ends at the row end.
      {1000, 4, 7, 3},       // g = 1: extreme downscale, one-pixel groups.
      {5, 4, 13, 3},         // Source row (15 lanes) shorter than a window.
      {3, 2, 1000, 5},       // Upscale: clamped right taps, 9-lane row.
      {99, 77, 100, 100},    {320, 240, 99, 77}, {77, 99, 99, 77}};
  for (const int c : {1, 3}) {
    for (const auto& [sw, sh, ow, oh] : edges) {
      const Image img = random_image(sw, sh, c, ++seed);
      ResizePlan plan;
      plan.ensure(sw, sh, ow, oh);
      Image got, want;
      resize_bilinear_into(img, plan, got);
      oracle::resize_bilinear_into(img, plan, want);
      EXPECT_EQ(got, want) << sw << "x" << sh << " -> " << ow << "x" << oh << "x" << c;
    }
  }
}

// SDD's per-thread plan sees gray and colour frames of one geometry; the
// column-group tables are 3-channel, so one ensured plan must serve both.
TEST(ResizePlan, OnePlanServesGrayAndColour) {
  ResizePlan plan;
  plan.ensure(192, 144, 100, 100);
  std::uint64_t seed = 900;
  for (const int c : {1, 3, 1, 3}) {
    const Image img = random_image(192, 144, c, ++seed);
    Image got, want;
    resize_bilinear_into(img, plan, got);
    oracle::resize_bilinear_into(img, plan, want);
    EXPECT_EQ(got, want) << c;
  }
}

}  // namespace
}  // namespace ffsva::image
