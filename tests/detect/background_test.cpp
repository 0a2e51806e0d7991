#include "detect/background.hpp"

#include <gtest/gtest.h>

#include "image/draw.hpp"
#include "image/ops.hpp"
#include "video/profiles.hpp"

namespace ffsva::detect {
namespace {

TEST(BackgroundEstimator, EmptyIsNotReady) {
  BackgroundEstimator bg;
  EXPECT_FALSE(bg.ready());
  EXPECT_TRUE(bg.estimate().empty());
}

TEST(BackgroundEstimator, MedianOfConstantFrames) {
  BackgroundEstimator bg(5);
  for (int i = 0; i < 5; ++i) bg.add(image::Image(8, 8, 3, 100));
  const auto est = bg.estimate();
  EXPECT_EQ(est.at(4, 4, 0), 100);
  EXPECT_EQ(bg.sample_count(), 5);
}

TEST(BackgroundEstimator, MedianRejectsTransientObject) {
  // 7 background frames + 3 frames with a bright object: the median must
  // recover the background value under the object.
  BackgroundEstimator bg(10);
  for (int i = 0; i < 10; ++i) {
    image::Image frame(16, 16, 3, 60);
    if (i % 4 == 0) {  // 3 of 10 frames have the object
      image::fill_rect(frame, image::Box{4, 4, 12, 12}, image::Rgb{240, 240, 240});
    }
    bg.add(frame);
  }
  const auto est = bg.estimate();
  EXPECT_EQ(est.at(8, 8, 0), 60);
}

TEST(BackgroundEstimator, MeanWouldFailWhereMedianSucceeds) {
  // Quantify the robustness argument from the header comment.
  image::Accumulator mean_acc;
  BackgroundEstimator median(10);
  for (int i = 0; i < 10; ++i) {
    image::Image frame(8, 8, 1, 50);
    if (i < 4)
      image::fill_rect(frame, image::Box{0, 0, 8, 8}, image::Rgb{250, 250, 250});
    mean_acc.add(frame);
    median.add(frame);
  }
  const int mean_err = std::abs(static_cast<int>(mean_acc.mean().at(4, 4)) - 50);
  const int median_err = std::abs(static_cast<int>(median.estimate().at(4, 4)) - 50);
  EXPECT_GT(mean_err, 50);
  EXPECT_LE(median_err, 2);
}

TEST(BackgroundEstimator, BoundedMemoryUnderManyOffers) {
  BackgroundEstimator bg(8);
  for (int i = 0; i < 1000; ++i)
    bg.add(image::Image(4, 4, 1, static_cast<std::uint8_t>(i % 200)));
  EXPECT_EQ(bg.sample_count(), 8);
  EXPECT_FALSE(bg.estimate().empty());
}

TEST(BackgroundEstimator, RecoversSceneBackground) {
  // On a real simulated stream, the estimate should be close to the true
  // static background away from lighting drift.
  video::SceneConfig cfg = video::jackson_profile();
  cfg.width = 96;
  cfg.height = 72;
  cfg.tor = 0.3;
  cfg.lighting_amp = 0.0;
  cfg.noise_amp = 0.0;
  video::SceneSimulator sim(cfg, 3, 600);
  BackgroundEstimator bg(21);
  for (int i = 0; i < 600; i += 29) bg.add(sim.render(i).image);
  const auto est = bg.estimate();
  const double err = image::sad(est, sim.background());
  EXPECT_LT(err, 4.0) << "mean abs error vs true background";
}

}  // namespace
}  // namespace ffsva::detect
