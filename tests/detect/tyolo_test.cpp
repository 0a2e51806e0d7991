#include "detect/tyolo.hpp"

#include <gtest/gtest.h>

#include "detect/reference.hpp"
#include "detect/specialize.hpp"
#include "image/draw.hpp"
#include "video/profiles.hpp"

namespace ffsva::detect {
namespace {

image::Image street_bg() { return image::Image(320, 240, 3, 70); }

image::Image with_car(const image::Image& bg, int x, int y, int w = 46, int h = 20) {
  auto frame = bg;
  image::fill_rect(frame, image::Box{x, y, x + w, y + h}, image::Rgb{220, 60, 60});
  return frame;
}

// The engine's hand-off: an SDD worker prepares the detector input and GPU0
// detects on it. Every detection must equal what detect(frame) reports.
TEST(TYolo, DetectPreparedMatchesDetect) {
  video::SceneConfig cfg = video::jackson_profile();
  cfg.width = 256;
  cfg.height = 192;
  cfg.tor = 0.7;
  const video::SceneSimulator sim(cfg, 43, 64);
  const TYoloDetector tyolo(TYoloConfig{}, sim.background());
  int detections = 0;
  for (int i = 0; i < 64; i += 3) {
    const image::Image frame = sim.render(i).image;
    image::Image input;
    tyolo.prepare(frame, input);
    const DetectionResult want = tyolo.detect(frame);
    const DetectionResult got = tyolo.detect_prepared(input);
    ASSERT_EQ(got.detections.size(), want.detections.size()) << "frame " << i;
    for (std::size_t k = 0; k < got.detections.size(); ++k) {
      const Detection& g = got.detections[k];
      const Detection& w = want.detections[k];
      EXPECT_EQ(g.cls, w.cls);
      EXPECT_EQ(g.box, w.box);
      EXPECT_EQ(g.confidence, w.confidence);
      EXPECT_EQ(g.instances, w.instances);
      EXPECT_EQ(g.pixels, w.pixels);
    }
    detections += static_cast<int>(got.detections.size());
  }
  EXPECT_GT(detections, 0);
}

TEST(TYolo, DetectsFullCar) {
  const auto bg = street_bg();
  TYoloDetector tyolo(TYoloConfig{}, bg);
  const auto result = tyolo.detect(with_car(bg, 100, 120));
  EXPECT_GE(result.count_target(video::ObjectClass::kCar), 1);
}

TEST(TYolo, EmptyFrameHasNoDetections) {
  const auto bg = street_bg();
  TYoloDetector tyolo(TYoloConfig{}, bg);
  EXPECT_TRUE(tyolo.detect(bg).detections.empty());
}

TEST(TYolo, CountsTwoSeparatedCars) {
  const auto bg = street_bg();
  auto frame = with_car(bg, 30, 60);
  image::fill_rect(frame, image::Box{200, 160, 246, 180}, image::Rgb{60, 200, 220});
  TYoloDetector tyolo(TYoloConfig{}, bg);
  EXPECT_EQ(tyolo.detect(frame).count_target(video::ObjectClass::kCar), 2);
}

TEST(TYolo, BoxesMapBackToFrameCoordinates) {
  const auto bg = street_bg();
  TYoloDetector tyolo(TYoloConfig{}, bg);
  const auto result = tyolo.detect(with_car(bg, 100, 120));
  ASSERT_FALSE(result.detections.empty());
  const auto& box = result.detections[0].box;
  // Coarse detection: the box should overlap the true car region.
  EXPECT_LT(box.x0, 146);
  EXPECT_GT(box.x1, 100);
  EXPECT_LT(box.y0, 140);
  EXPECT_GT(box.y1, 120);
}

TEST(TYolo, PassRequiresNumberOfObjects) {
  const auto bg = street_bg();
  TYoloDetector tyolo(TYoloConfig{}, bg);
  const auto one_car = with_car(bg, 100, 120);
  EXPECT_TRUE(tyolo.pass(one_car, video::ObjectClass::kCar, 1));
  EXPECT_FALSE(tyolo.pass(one_car, video::ObjectClass::kCar, 2));
}

TEST(TYolo, CoarseResolutionMissesWhatReferenceSees) {
  // The central fidelity-gap property (paper Section 5.3): among partially
  // visible car slivers at the frame edge there are sizes the full
  // resolution reference detector resolves as a vehicle while T-YOLO's
  // coarse input loses them — and never the opposite at more-visible sizes.
  const auto bg = street_bg();
  ReferenceDetector ref(ReferenceConfig{}, bg);
  TYoloConfig ty_cfg;
  ty_cfg.classifier.person_max_aspect = 0.8;  // car-stream specialization
  TYoloDetector tyolo(ty_cfg, bg);

  int gap_widths = 0;   // ref sees a vehicle, T-YOLO does not
  int both_widths = 0;  // both see it
  for (int visible = 6; visible <= 46; visible += 2) {
    auto frame = bg;
    image::fill_rect(frame, image::Box{0, 120, visible, 140}, image::Rgb{220, 60, 60});
    const bool r = ref.detect(frame).any_target(video::ObjectClass::kCar);
    const bool t = tyolo.detect(frame).any_target(video::ObjectClass::kCar);
    if (r && !t) ++gap_widths;
    if (r && t) ++both_widths;
    if (!r) {
      EXPECT_FALSE(t) << "T-YOLO must not out-resolve the reference";
    }
  }
  EXPECT_GT(gap_widths, 0) << "some partial widths must fall in the fidelity gap";
  EXPECT_GT(both_widths, 0) << "full cars must be seen by both";
}

TEST(TYolo, GridCellSaturationCapsDetections) {
  TYoloConfig cfg;
  cfg.boxes_per_cell = 1;
  const auto bg = street_bg();
  // Two tiny blobs within the same 8-px coarse grid cell.
  auto frame = bg;
  image::fill_rect(frame, image::Box{100, 100, 112, 108}, image::Rgb{230, 230, 60});
  image::fill_rect(frame, image::Box{100, 112, 112, 120}, image::Rgb{60, 230, 230});
  TYoloDetector strict(cfg, bg);
  cfg.boxes_per_cell = 5;
  TYoloDetector loose(cfg, bg);
  EXPECT_LE(strict.detect(frame).detections.size(),
            loose.detect(frame).detections.size());
}

TEST(TYolo, ConfidenceThresholdFiltersWeakBlobs) {
  TYoloConfig cfg;
  cfg.confidence_threshold = 0.99;
  const auto bg = street_bg();
  TYoloDetector picky(cfg, bg);
  auto frame = bg;
  image::fill_rect(frame, image::Box{100, 100, 110, 106}, image::Rgb{120, 120, 120});
  EXPECT_TRUE(picky.detect(frame).detections.empty());
}

TEST(TYolo, UndercountsDenseCrowdVersusReference) {
  // Dense persons on a coral-like scene: with the per-stream calibration of
  // specialize_stream, T-YOLO systematically counts no more than the
  // reference (Figure 8b's error mechanism), and strictly fewer in total.
  video::SceneConfig cfg = video::coral_profile();
  cfg.width = 256;
  cfg.height = 144;
  cfg.tor = 1.0;
  cfg.max_objects = 10;
  cfg.crowd_sigma = 10.0;
  video::SceneSimulator sim(cfg, 77, 900);

  std::vector<video::Frame> calib;
  for (int i = 0; i < 500; ++i) calib.push_back(sim.render(i));
  SpecializeConfig sc;
  sc.target = cfg.target;
  sc.snm.epochs = 2;  // SNM is irrelevant to this test; keep it cheap
  const auto models = specialize_stream(calib, sc, 77);

  std::int64_t ref_total = 0, ty_total = 0;
  for (int i = 500; i < 900; i += 17) {
    const auto f = sim.render(i);
    ref_total += models.reference->detect(f.image).count_target(cfg.target);
    ty_total += models.tyolo->detect(f.image).count_target(cfg.target);
  }
  EXPECT_GT(ref_total, 0);
  EXPECT_LE(ty_total, ref_total * 1.05);
}

}  // namespace
}  // namespace ffsva::detect
