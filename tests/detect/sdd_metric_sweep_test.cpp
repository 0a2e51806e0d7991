// SDD distance-metric ablation (DESIGN.md §5): MSE, NRMSE and SAD must all
// calibrate to a usable operating point on a real scene — high recall on
// target frames, substantial filtering of background frames.
#include <gtest/gtest.h>

#include "detect/sdd.hpp"
#include "video/profiles.hpp"

namespace ffsva::detect {
namespace {

struct SweepStream {
  video::SceneConfig cfg;
  std::unique_ptr<video::SceneSimulator> sim;
  std::vector<video::Frame> calib;

  SweepStream() {
    cfg = video::jackson_profile();
    cfg.width = 128;
    cfg.height = 96;
    cfg.tor = 0.3;
    sim = std::make_unique<video::SceneSimulator>(cfg, 23, 1600);
    for (int i = 0; i < 800; ++i) calib.push_back(sim->render(i));
  }
};

SweepStream& stream() {
  static auto* s = new SweepStream();
  return *s;
}

class SddMetricSweep : public ::testing::TestWithParam<SddMetric> {};

TEST_P(SddMetricSweep, CalibratesToUsableOperatingPoint) {
  auto& s = stream();
  SddConfig cfg;
  cfg.metric = GetParam();
  SddFilter sdd(cfg, s.sim->background());
  const double delta = sdd.calibrate_on(s.calib, s.cfg.target);
  EXPECT_GT(delta, 0.0);

  // Evaluate on fresh frames.
  int targets = 0, fn = 0, background = 0, bg_passed = 0;
  for (int i = 800; i < 1600; i += 2) {
    const auto f = s.sim->render(i);
    const bool pass = sdd.pass(f.image);
    if (f.gt.any_target(s.cfg.target)) {
      ++targets;
      fn += !pass;
    } else if (f.gt.objects.empty()) {  // pure background (no distractors)
      ++background;
      bg_passed += pass;
    }
  }
  ASSERT_GT(targets, 20);
  ASSERT_GT(background, 20);
  EXPECT_LT(static_cast<double>(fn) / targets, 0.05)
      << to_string(GetParam()) << ": target recall too low";
  EXPECT_LT(static_cast<double>(bg_passed) / background, 0.5)
      << to_string(GetParam()) << ": filters too little background";
}

INSTANTIATE_TEST_SUITE_P(Metrics, SddMetricSweep,
                         ::testing::Values(SddMetric::kMse, SddMetric::kNrmse,
                                           SddMetric::kSad),
                         [](const auto& info) { return to_string(info.param); });

TEST(SddMetricSweep, MseSeparatesBestOnQuadraticContrast) {
  // MSE weights large deviations quadratically: a compact high-contrast
  // object stands out more against diffuse noise than under SAD.
  auto& s = stream();
  SddConfig mse_cfg;
  mse_cfg.metric = SddMetric::kMse;
  SddConfig sad_cfg;
  sad_cfg.metric = SddMetric::kSad;
  SddFilter mse(mse_cfg, s.sim->background());
  SddFilter sad(sad_cfg, s.sim->background());

  double mse_ratio = 0, sad_ratio = 0;
  int n = 0;
  for (const auto& iv : s.sim->intervals()) {
    if (iv.begin >= 800) break;
    const auto target = s.sim->render((iv.begin + iv.end) / 2);
    const auto bg_frame = s.sim->render(std::max<std::int64_t>(0, iv.begin - 20));
    if (bg_frame.gt.objects.empty()) {
      mse_ratio +=
          mse.distance(target.image) / std::max(1e-9, mse.distance(bg_frame.image));
      sad_ratio +=
          sad.distance(target.image) / std::max(1e-9, sad.distance(bg_frame.image));
      ++n;
    }
  }
  if (n > 0) {
    EXPECT_GT(mse_ratio / n, sad_ratio / n);
  }
}

}  // namespace
}  // namespace ffsva::detect
