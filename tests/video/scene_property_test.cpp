// Parameterized ground-truth invariants of the scene simulator across
// profiles, TORs and seeds — the contract every downstream experiment
// relies on.
#include <gtest/gtest.h>

#include "video/codec.hpp"
#include "video/profiles.hpp"

namespace ffsva::video {
namespace {

struct SceneCase {
  bool coral;
  double tor;
  std::uint64_t seed;
};

class SceneInvariants : public ::testing::TestWithParam<SceneCase> {};

TEST_P(SceneInvariants, HoldAcrossTheStream) {
  const SceneCase c = GetParam();
  SceneConfig cfg = c.coral ? coral_profile() : jackson_profile();
  cfg.width = 112;
  cfg.height = 84;
  cfg.tor = c.tor;
  const std::int64_t frames = 2400;
  SceneSimulator sim(cfg, c.seed, frames);

  // Planned TOR tracks the request.
  EXPECT_NEAR(sim.planned_tor(), c.tor, 0.04);

  // Intervals tile without overlap and stay in range.
  std::int64_t prev_end = 0;
  for (const auto& iv : sim.intervals()) {
    ASSERT_GE(iv.begin, prev_end);
    ASSERT_LT(iv.begin, iv.end);
    ASSERT_LE(iv.end, frames);
    ASSERT_GE(iv.num_objects, 1);
    prev_end = iv.end;
  }

  // Sampled frames: ground truth boxes clipped and sane; targets appear
  // inside intervals (probing interval middles).
  for (std::int64_t i = 0; i < frames; i += 97) {
    const Frame f = sim.render(i);
    ASSERT_EQ(f.index, i);
    for (const auto& o : f.gt.objects) {
      ASSERT_GT(o.visible_fraction, 0.0);
      ASSERT_LE(o.visible_fraction, 1.0 + 1e-9);
      ASSERT_GE(o.visible_box.x0, 0);
      ASSERT_LE(o.visible_box.x1, cfg.width);
      ASSERT_GE(o.visible_box.y0, 0);
      ASSERT_LE(o.visible_box.y1, cfg.height);
      ASSERT_FALSE(o.visible_box.empty());
    }
  }

  for (const auto& iv : sim.intervals()) {
    const auto mid = (iv.begin + iv.end) / 2;
    EXPECT_TRUE(sim.render(mid).gt.any_target(cfg.target))
        << "interval [" << iv.begin << "," << iv.end << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndTors, SceneInvariants,
    ::testing::Values(SceneCase{false, 0.05, 1}, SceneCase{false, 0.25, 2},
                      SceneCase{false, 0.60, 3}, SceneCase{false, 1.00, 4},
                      SceneCase{true, 0.10, 5}, SceneCase{true, 0.50, 6},
                      SceneCase{true, 1.00, 7}));

class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(CodecRoundTrip, LosslessAcrossGopAndSize) {
  const auto [keyframe_interval, size, tor] = GetParam();
  SceneConfig cfg = jackson_profile();
  cfg.width = size;
  cfg.height = size * 3 / 4;
  cfg.tor = tor;
  SceneSimulator sim(cfg, 9, 60);
  std::vector<Frame> frames;
  for (int i = 0; i < 60; ++i) frames.push_back(sim.render(i));
  const StoredVideo video = StoredVideo::encode(frames, keyframe_interval);
  VideoReader reader(video);
  for (const auto& expected : frames) {
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->image, expected.image);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecRoundTrip,
    ::testing::Combine(::testing::Values(1, 7, 32),
                       ::testing::Values(64, 96),
                       ::testing::Values(0.0, 0.6)));

}  // namespace
}  // namespace ffsva::video
