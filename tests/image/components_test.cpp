#include "image/components.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "detect/reference.hpp"
#include "detect/segmentation.hpp"
#include "detect/tyolo.hpp"
#include "image/ops.hpp"
#include "runtime/rng.hpp"
#include "video/profiles.hpp"
#include "video/scene.hpp"

namespace ffsva::image {
namespace {

namespace oracle {
/// The per-pixel flood-fill labeller the run labeller replaced, kept only
/// as the exactness reference: labels in raster order of each component's
/// first pixel, numbered before the `min_pixels` filter.
std::vector<Component> connected_components_labeled(const Image& binary,
                                                    std::vector<int>& labels,
                                                    int min_pixels) {
  const int w = binary.width(), h = binary.height();
  labels.assign(static_cast<std::size_t>(w) * h, 0);
  std::vector<Component> comps;
  int next_label = 0;
  std::vector<std::pair<int, int>> frontier;

  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      const std::size_t sidx = static_cast<std::size_t>(sy) * w + sx;
      if (binary.at(sx, sy) == 0 || labels[sidx] != 0) continue;
      ++next_label;
      Component comp;
      comp.label = next_label;
      comp.box = Box{sx, sy, sx + 1, sy + 1};
      frontier.clear();
      frontier.emplace_back(sx, sy);
      labels[sidx] = next_label;
      while (!frontier.empty()) {
        const auto [x, y] = frontier.back();
        frontier.pop_back();
        ++comp.pixel_count;
        comp.box.x0 = std::min(comp.box.x0, x);
        comp.box.y0 = std::min(comp.box.y0, y);
        comp.box.x1 = std::max(comp.box.x1, x + 1);
        comp.box.y1 = std::max(comp.box.y1, y + 1);
        constexpr int kDx[4] = {1, -1, 0, 0};
        constexpr int kDy[4] = {0, 0, 1, -1};
        for (int d = 0; d < 4; ++d) {
          const int nx = x + kDx[d], ny = y + kDy[d];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const std::size_t nidx = static_cast<std::size_t>(ny) * w + nx;
          if (binary.at(nx, ny) != 0 && labels[nidx] == 0) {
            labels[nidx] = next_label;
            frontier.emplace_back(nx, ny);
          }
        }
      }
      if (comp.pixel_count >= min_pixels) comps.push_back(comp);
    }
  }
  std::stable_sort(comps.begin(), comps.end(),
                   [](const Component& a, const Component& b) {
                     return a.pixel_count > b.pixel_count;
                   });
  return comps;
}
}  // namespace oracle

/// Both entry points against the oracle: component list (label, box, pixel
/// count, order) and label map, element by element.
void expect_matches_oracle(const Image& binary, const std::string& what) {
  for (const int min_pixels : {1, 40}) {
    SCOPED_TRACE(what + " min_pixels " + std::to_string(min_pixels));
    std::vector<int> want_labels, got_labels;
    const auto want =
        oracle::connected_components_labeled(binary, want_labels, min_pixels);
    const auto got = connected_components_labeled(binary, got_labels, min_pixels);
    const auto plain = connected_components(binary, min_pixels);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(plain.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].label, want[i].label) << i;
      EXPECT_EQ(got[i].box, want[i].box) << i;
      EXPECT_EQ(got[i].pixel_count, want[i].pixel_count) << i;
      EXPECT_EQ(plain[i].label, want[i].label) << i;
      EXPECT_EQ(plain[i].box, want[i].box) << i;
      EXPECT_EQ(plain[i].pixel_count, want[i].pixel_count) << i;
    }
    EXPECT_EQ(got_labels, want_labels);
  }
}

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

Image binary_from(const char* const* rows, int w, int h) {
  Image img(w, h, 1, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (rows[y][x] == '#') img.at(x, y) = 255;
    }
  }
  return img;
}

TEST(ConnectedComponents, EmptyImageHasNone) {
  const Image img(8, 8, 1, 0);
  EXPECT_TRUE(connected_components(img).empty());
}

TEST(ConnectedComponents, SingleBlobBoxAndCount) {
  const char* rows[] = {
      "........",
      ".###....",
      ".###....",
      "........",
  };
  const Image img = binary_from(rows, 8, 4);
  const auto comps = connected_components(img);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].pixel_count, 6);
  EXPECT_EQ(comps[0].box, (Box{1, 1, 4, 3}));
}

TEST(ConnectedComponents, TwoSeparateBlobs) {
  const char* rows[] = {
      "##....##",
      "##....##",
  };
  const auto comps = connected_components(binary_from(rows, 8, 2));
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].pixel_count, 4);
  EXPECT_EQ(comps[1].pixel_count, 4);
}

TEST(ConnectedComponents, DiagonalIsNotConnected) {
  // 4-connectivity: diagonal neighbors are separate components.
  const char* rows[] = {
      "#.",
      ".#",
  };
  EXPECT_EQ(connected_components(binary_from(rows, 2, 2)).size(), 2u);
}

TEST(ConnectedComponents, LShapeIsOneComponent) {
  const char* rows[] = {
      "#..",
      "#..",
      "###",
  };
  const auto comps = connected_components(binary_from(rows, 3, 3));
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].pixel_count, 5);
  EXPECT_EQ(comps[0].box, (Box{0, 0, 3, 3}));
}

TEST(ConnectedComponents, MinPixelsFiltersSmallBlobs) {
  const char* rows[] = {
      "#...####",
      "....####",
  };
  const auto comps = connected_components(binary_from(rows, 8, 2), /*min_pixels=*/4);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].pixel_count, 8);
}

TEST(ConnectedComponents, SortedByDescendingSize) {
  const char* rows[] = {
      "#..####..##",
  };
  const auto comps = connected_components(binary_from(rows, 11, 1));
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_GE(comps[0].pixel_count, comps[1].pixel_count);
  EXPECT_GE(comps[1].pixel_count, comps[2].pixel_count);
}

TEST(ConnectedComponents, LabelsCoverExactlyForeground) {
  const char* rows[] = {
      "##..",
      "..##",
  };
  const Image img = binary_from(rows, 4, 2);
  std::vector<int> labels;
  const auto comps = connected_components_labeled(img, labels, 1);
  ASSERT_EQ(comps.size(), 2u);
  int labeled = 0;
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 4; ++x) {
      const int l = labels[static_cast<std::size_t>(y) * 4 + x];
      if (img.at(x, y) != 0) {
        EXPECT_GT(l, 0);
        ++labeled;
      } else {
        EXPECT_EQ(l, 0);
      }
    }
  }
  EXPECT_EQ(labeled, 4);
}

TEST(ConnectedComponents, FullForegroundIsOneComponent) {
  const Image img(16, 16, 1, 255);
  const auto comps = connected_components(img);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].pixel_count, 256);
  EXPECT_EQ(comps[0].box, (Box{0, 0, 16, 16}));
}

TEST(ConnectedComponents, SnakePatternStaysConnected) {
  // A long winding 1-px path exercises the BFS frontier.
  Image img(21, 5, 1, 0);
  for (int x = 0; x < 21; ++x) img.at(x, 0) = 255;
  img.at(20, 1) = 255;
  for (int x = 0; x < 21; ++x) img.at(x, 2) = 255;
  img.at(0, 3) = 255;
  for (int x = 0; x < 21; ++x) img.at(x, 4) = 255;
  const auto comps = connected_components(img);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].pixel_count, 65);
}

TEST(ConnectedComponentsOracle, RandomMasks) {
  std::uint64_t seed = 700;
  const int sides[] = {1, 2, 7, 8, 9, 63, 64, 65};
  std::vector<std::pair<int, int>> shapes = {{256, 192}};
  for (const int w : sides) {
    for (const int h : sides) shapes.emplace_back(w, h);
  }
  for (const auto& [w, h] : shapes) {
    for (const double density : {0.0, 0.01, 0.1, 0.5, 0.9, 1.0}) {
      // Three-channel masks are labelled by channel 0.
      for (const int c : {1, 3}) {
        expect_matches_oracle(random_mask(w, h, c, density, ++seed),
                              std::to_string(w) + "x" + std::to_string(h) + "x" +
                                  std::to_string(c) + " density " +
                                  std::to_string(density));
      }
    }
  }
}

TEST(ConnectedComponentsOracle, CheckerboardKeepsDiagonalsApart) {
  for (const auto& [w, h] : {std::pair{9, 7}, std::pair{64, 64}, std::pair{65, 3}}) {
    Image img(w, h, 1, 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) img.at(x, y) = (x + y) % 2 == 0 ? 255 : 0;
    }
    const auto comps = connected_components(img);
    EXPECT_EQ(comps.size(), static_cast<std::size_t>((w * h + 1) / 2));
    expect_matches_oracle(img, "checkerboard " + std::to_string(w));
  }
}

TEST(ConnectedComponentsOracle, ArmsThatMergeLate) {
  // U shapes: pairs of arms, apart until the bottom bar joins them all.
  // Some right arms start rows above their left arm, so the component's
  // first raster pixel, and its label, come from a run that is not the
  // leftmost one; the union-find root must still be the earliest run.
  for (const int arms : {2, 3, 5}) {
    Image u(9 * arms, 20, 1, 0);
    for (int a = 0; a < arms; ++a) {
      for (int y = a; y < 19; ++y) u.at(9 * a + 1, y) = 255;
      for (int y = arms - a; y < 19; ++y) u.at(9 * a + 6, y) = 255;
    }
    for (int x = 0; x < 9 * arms; ++x) u.at(x, 19) = 255;
    u.at(2, 10) = 255;  // a stray pixel between the first pair of arms
    expect_matches_oracle(u, "U arms " + std::to_string(arms));
    EXPECT_EQ(connected_components(u).size(), 1u);
  }
  // A square spiral drawn inward, plus a comb whose teeth hang from a bar
  // that is drawn only in the last row.
  for (const int n : {7, 16, 33, 64}) {
    Image spiral(n, n, 1, 0);
    int x0 = 0, y0 = 0, x1 = n - 1, y1 = n - 1;
    while (x0 <= x1 && y0 <= y1) {
      for (int x = x0; x <= x1; ++x) spiral.at(x, y0) = 255;
      for (int y = y0; y <= y1; ++y) spiral.at(x1, y) = 255;
      for (int x = x0; x <= x1; ++x) spiral.at(x, y1) = 255;
      for (int y = y0 + 2; y <= y1; ++y) spiral.at(x0, y) = 255;
      if (x0 + 2 <= x1) spiral.at(x0 + 1, y0 + 2) = 255;
      x0 += 2;
      y0 += 2;
      x1 -= 2;
      y1 -= 2;
    }
    expect_matches_oracle(spiral, "spiral " + std::to_string(n));
    Image comb(n, n, 1, 0);
    for (int x = n - 1; x >= 0; x -= 2) {
      for (int y = (x * 7) % n; y < n - 1; ++y) comb.at(x, y) = 255;
    }
    for (int x = 0; x < n; ++x) comb.at(x, n - 1) = 255;
    expect_matches_oracle(comb, "comb " + std::to_string(n));
    EXPECT_EQ(connected_components(comb).size(), 1u);
  }
}

TEST(ConnectedComponentsOracle, RealForegroundMasks) {
  // The busy 256x192 jackson camera the engine benchmark replays, segmented
  // as the reference detector (full frame) and T-YOLO (104x104) do.
  video::SceneConfig cfg = video::jackson_profile();
  cfg.width = 256;
  cfg.height = 192;
  cfg.tor = 0.7;
  const video::SceneSimulator sim(cfg, 43, 64);
  const Image& bg = sim.background();
  const detect::ReferenceConfig ref;
  const detect::TYoloConfig tyolo;
  const Image bg_small = resize_bilinear(bg, tyolo.input_size, tyolo.input_size);
  int foreground = 0;
  for (int i = 0; i < 64; ++i) {
    const Image frame = sim.render(i).image;
    const Image full = detect::foreground_mask(frame, bg, ref.segmentation);
    const Image small = detect::foreground_mask(
        resize_bilinear(frame, tyolo.input_size, tyolo.input_size), bg_small,
        tyolo.segmentation);
    expect_matches_oracle(full, "reference mask " + std::to_string(i));
    expect_matches_oracle(small, "tyolo mask " + std::to_string(i));
    foreground += static_cast<int>(connected_components(full, 40).size());
  }
  EXPECT_GT(foreground, 0);  // the camera is busy: the masks are not empty
}

}  // namespace
}  // namespace ffsva::image
