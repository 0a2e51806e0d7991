#include "detect/segmentation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "image/draw.hpp"
#include "runtime/rng.hpp"

namespace ffsva::detect {
namespace {

image::Image flat(int w, int h, std::uint8_t v) { return image::Image(w, h, 3, v); }

image::Image motion(const image::Image& frame, const image::Image& background) {
  image::Image out;
  motion_map(frame, background, out);
  return out;
}

TEST(MotionMap, ZeroForIdenticalImages) {
  const auto img = flat(16, 16, 80);
  const auto m = motion(img, img);
  for (std::size_t i = 0; i < m.size_bytes(); ++i) EXPECT_EQ(m.data()[i], 0);
}

TEST(MotionMap, MaxChannelDifference) {
  image::Image a(1, 1, 3), b(1, 1, 3);
  a.at(0, 0, 0) = 100;
  a.at(0, 0, 1) = 100;
  a.at(0, 0, 2) = 100;
  b.at(0, 0, 0) = 110;
  b.at(0, 0, 1) = 160;
  b.at(0, 0, 2) = 90;
  EXPECT_EQ(motion(a, b).at(0, 0), 60);
}

TEST(MotionMap, ShapeMismatchThrows) {
  EXPECT_THROW(motion(flat(4, 4, 0), flat(4, 5, 0)), std::invalid_argument);
}

/// Exactness oracle: the plain any-channel-count loop motion_map replaced.
image::Image oracle_motion_map(const image::Image& frame,
                               const image::Image& background) {
  image::Image out(frame.width(), frame.height(), 1);
  const std::uint8_t* a = frame.data();
  const std::uint8_t* b = background.data();
  std::uint8_t* o = out.data();
  const std::size_t n = static_cast<std::size_t>(frame.width()) * frame.height();
  const int c = frame.channels();
  for (std::size_t i = 0; i < n; ++i) {
    int best = 0;
    for (int ch = 0; ch < c; ++ch) {
      best = std::max(best, std::abs(static_cast<int>(a[i * c + ch]) -
                                     static_cast<int>(b[i * c + ch])));
    }
    o[i] = static_cast<std::uint8_t>(best);
  }
  return out;
}

image::Image random_image(int w, int h, int c, std::uint64_t seed) {
  image::Image img(w, h, c);
  runtime::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

TEST(MotionMap, MatchesOracleBytewise) {
  std::uint64_t seed = 400;
  for (const int c : {1, 3}) {
    for (const auto& [w, h] : {std::pair{1, 1}, std::pair{2, 3}, std::pair{37, 23},
                               std::pair{256, 192}}) {
      const auto a = random_image(w, h, c, ++seed);
      const auto b = random_image(w, h, c, ++seed);
      EXPECT_EQ(motion(a, b), oracle_motion_map(a, b)) << w << "x" << h << "x" << c;
    }
  }
}

TEST(ForegroundComponents, FindsInsertedObject) {
  const auto bg = flat(64, 64, 70);
  auto frame = bg;
  image::fill_rect(frame, image::Box{10, 20, 30, 32}, image::Rgb{200, 60, 60});
  SegmentationParams params;
  params.min_pixels = 20;
  const auto comps = foreground_components(frame, bg, params);
  ASSERT_EQ(comps.size(), 1u);
  // Blur expands the box slightly; the core must be covered.
  EXPECT_LE(comps[0].box.x0, 11);
  EXPECT_GE(comps[0].box.x1, 29);
}

TEST(ForegroundComponents, IgnoresSubThresholdChange) {
  const auto bg = flat(32, 32, 70);
  auto frame = bg;
  image::fill_rect(frame, image::Box{5, 5, 15, 15}, image::Rgb{80, 80, 80});  // diff 10
  SegmentationParams params;  // threshold 26
  EXPECT_TRUE(foreground_components(frame, bg, params).empty());
}

TEST(ForegroundComponents, MorphOpenKillsSpeckle) {
  const auto bg = flat(64, 64, 70);
  auto frame = bg;
  // Single-pixel speckles.
  frame.at(5, 5, 0) = 255;
  frame.at(40, 40, 1) = 255;
  SegmentationParams params;
  params.blur_sigma = 0.0;
  params.min_pixels = 1;
  params.morph_open = true;
  EXPECT_TRUE(foreground_components(frame, bg, params).empty());
  params.morph_open = false;
  EXPECT_FALSE(foreground_components(frame, bg, params).empty());
}

TEST(ForegroundComponents, SeparatesDistantObjects) {
  const auto bg = flat(96, 48, 60);
  auto frame = bg;
  image::fill_rect(frame, image::Box{5, 10, 25, 30}, image::Rgb{220, 220, 220});
  image::fill_rect(frame, image::Box{60, 10, 85, 30}, image::Rgb{220, 220, 220});
  SegmentationParams params;
  params.min_pixels = 30;
  EXPECT_EQ(foreground_components(frame, bg, params).size(), 2u);
}

TEST(Classifier, TallBlobIsPerson) {
  image::Component c;
  c.box = image::Box{0, 0, 8, 20};
  c.pixel_count = 120;
  const auto d = classify_component(c, 320, 240, 30, ClassifierParams{});
  EXPECT_EQ(d.cls, video::ObjectClass::kPerson);
  EXPECT_EQ(d.pixels, 120);
}

TEST(Classifier, WideBlobIsCar) {
  image::Component c;
  c.box = image::Box{0, 0, 40, 18};
  c.pixel_count = 500;
  ClassifierParams params;
  params.car_min_area = 110;
  const auto d = classify_component(c, 320, 240, 30, params);
  EXPECT_EQ(d.cls, video::ObjectClass::kCar);
  EXPECT_GT(d.confidence, 0.5);
}

TEST(Classifier, VeryWideBlobIsBus) {
  image::Component c;
  c.box = image::Box{0, 0, 90, 30};
  c.pixel_count = 2000;
  const auto d = classify_component(c, 320, 240, 30, ClassifierParams{});
  EXPECT_EQ(d.cls, video::ObjectClass::kBus);
}

TEST(Classifier, SmallWideSpeckCannotBeConfidentVehicle) {
  // The half-camouflaged-pedestrian case: 7x7, 41 px.
  image::Component c;
  c.box = image::Box{0, 0, 7, 7};
  c.pixel_count = 41;
  ClassifierParams params;
  params.car_min_area = 110;
  const auto d = classify_component(c, 320, 240, 36, params);
  EXPECT_LT(d.confidence, 0.2);  // below the detection threshold
}

TEST(Classifier, CrowdSplitCountsInstances) {
  image::Component c;
  c.box = image::Box{0, 0, 30, 20};
  c.pixel_count = 360;
  ClassifierParams params;
  params.person_max_aspect = 2.2;
  params.person_split_area = 120.0;
  params.person_wide_min_area = 144.0;
  const auto d = classify_component(c, 320, 240, 30, params);
  EXPECT_EQ(d.cls, video::ObjectClass::kPerson);
  EXPECT_EQ(d.instances, 3);
}

TEST(Classifier, WidePersonNeedsMass) {
  image::Component c;
  c.box = image::Box{0, 0, 14, 8};  // aspect 1.75
  c.pixel_count = 70;               // a fish, not a crowd
  ClassifierParams params;
  params.person_max_aspect = 2.2;
  params.person_split_area = 120.0;
  params.person_wide_min_area = 144.0;
  const auto d = classify_component(c, 320, 240, 30, params);
  EXPECT_NE(d.cls, video::ObjectClass::kPerson);
}

TEST(Classifier, InstanceCapHolds) {
  image::Component c;
  c.box = image::Box{0, 0, 100, 60};
  c.pixel_count = 100000;
  ClassifierParams params;
  params.person_max_aspect = 2.2;
  params.person_split_area = 10.0;
  params.max_instances_per_blob = 8;
  const auto d = classify_component(c, 320, 240, 30, params);
  EXPECT_LE(d.instances, 8);
}

TEST(DetectionResult, CountTargetGroupsVehiclesAndInstances) {
  DetectionResult r;
  r.detections.push_back({video::ObjectClass::kCar, {}, 0.9, 1, 200});
  r.detections.push_back({video::ObjectClass::kBus, {}, 0.8, 1, 900});
  r.detections.push_back({video::ObjectClass::kPerson, {}, 0.9, 3, 360});
  r.detections.push_back({video::ObjectClass::kPerson, {}, 0.1, 5, 40});  // low conf
  EXPECT_EQ(r.count_target(video::ObjectClass::kCar), 2);
  EXPECT_EQ(r.count_target(video::ObjectClass::kPerson), 3);
  EXPECT_TRUE(r.any_target(video::ObjectClass::kCar));
}

}  // namespace
}  // namespace ffsva::detect
