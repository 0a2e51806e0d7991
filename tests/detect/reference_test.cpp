#include "detect/reference.hpp"

#include <gtest/gtest.h>

#include "image/draw.hpp"
#include "video/profiles.hpp"

namespace ffsva::detect {
namespace {

image::Image street_bg() { return image::Image(320, 240, 3, 70); }

TEST(Reference, EmptySceneYieldsNothing) {
  const auto bg = street_bg();
  ReferenceDetector ref(ReferenceConfig{}, bg);
  EXPECT_TRUE(ref.detect(bg).detections.empty());
}

TEST(Reference, DetectsAndClassifiesCar) {
  const auto bg = street_bg();
  auto frame = bg;
  image::fill_rect(frame, image::Box{80, 100, 130, 122}, image::Rgb{220, 50, 50});
  ReferenceDetector ref(ReferenceConfig{}, bg);
  const auto r = ref.detect(frame);
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].cls, video::ObjectClass::kCar);
  EXPECT_GE(r.detections[0].confidence, 0.45);
  // Box covers the object's core.
  EXPECT_LE(r.detections[0].box.x0, 85);
  EXPECT_GE(r.detections[0].box.x1, 125);
}

TEST(Reference, DetectsAndClassifiesPerson) {
  const auto bg = street_bg();
  auto frame = bg;
  image::fill_rect(frame, image::Box{200, 100, 214, 136}, image::Rgb{40, 180, 220});
  ReferenceDetector ref(ReferenceConfig{}, bg);
  const auto r = ref.detect(frame);
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].cls, video::ObjectClass::kPerson);
}

TEST(Reference, VeryWideVehicleIsBus) {
  const auto bg = street_bg();
  auto frame = bg;
  image::fill_rect(frame, image::Box{50, 100, 150, 134}, image::Rgb{230, 200, 40});
  ReferenceDetector ref(ReferenceConfig{}, bg);
  const auto r = ref.detect(frame);
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].cls, video::ObjectClass::kBus);
  // The vehicle group still counts it for a car-target stream.
  EXPECT_EQ(r.count_target(video::ObjectClass::kCar), 1);
}

TEST(Reference, LowContrastSpeckStaysBelowOperatingThreshold) {
  const auto bg = street_bg();
  auto frame = bg;
  // A 7x7 blob of moderate contrast: detectable foreground, but not a
  // credible vehicle at the 0.45 operating threshold.
  image::fill_rect(frame, image::Box{60, 200, 67, 207}, image::Rgb{160, 150, 140});
  ReferenceConfig cfg;
  ReferenceDetector ref(cfg, bg);
  const auto r = ref.detect(frame);
  EXPECT_FALSE(r.any_target(video::ObjectClass::kCar, cfg.confidence_threshold));
}

TEST(Reference, CountsMatchGroundTruthOnRealScenes) {
  video::SceneConfig cfg = video::jackson_profile();
  cfg.width = 160;
  cfg.height = 120;
  cfg.tor = 0.4;
  cfg.distractor_rate = 0.0;
  video::SceneSimulator sim(cfg, 13, 800);
  ReferenceConfig rc;
  ReferenceDetector ref(rc, sim.background());
  int checked = 0, agree = 0;
  for (int i = 0; i < 800; i += 19) {
    const auto f = sim.render(i);
    // Only score frames with fully-visible targets (partials are the known
    // hard case analysed elsewhere).
    bool all_full = true;
    for (const auto& o : f.gt.objects) all_full = all_full && o.visible_fraction > 0.95;
    if (!all_full) continue;
    ++checked;
    const int truth = f.gt.count_target(cfg.target, 0.95);
    const int found =
        ref.detect(f.image).count_target(cfg.target, rc.confidence_threshold);
    if (found == truth) ++agree;
  }
  ASSERT_GT(checked, 10);
  EXPECT_GT(static_cast<double>(agree) / checked, 0.85)
      << "the reference model must be a credible oracle on clean frames";
}

TEST(Reference, ConfidenceThresholdIsConfigurable) {
  ReferenceConfig cfg;
  EXPECT_NEAR(cfg.confidence_threshold, 0.45, 1e-9);
  cfg.confidence_threshold = 0.2;
  const auto bg = street_bg();
  ReferenceDetector ref(cfg, bg);
  EXPECT_NEAR(ref.config().confidence_threshold, 0.2, 1e-9);
}

}  // namespace
}  // namespace ffsva::detect
