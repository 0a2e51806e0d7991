#include "detect/sdd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "image/draw.hpp"
#include "image/ops.hpp"
#include "runtime/rng.hpp"
#include "video/profiles.hpp"

namespace ffsva::detect {
namespace {

image::Image flat(std::uint8_t v) { return image::Image(64, 64, 3, v); }

TEST(SddFilter, EmptyReferenceThrows) {
  EXPECT_THROW(SddFilter(SddConfig{}, image::Image{}), std::invalid_argument);
}

TEST(SddFilter, IdenticalFrameHasZeroDistance) {
  const auto bg = flat(90);
  SddFilter sdd(SddConfig{}, bg);
  EXPECT_NEAR(sdd.distance(bg), 0.0, 1e-9);
  EXPECT_FALSE(sdd.pass(bg));
}

TEST(SddFilter, ObjectRaisesDistance) {
  const auto bg = flat(90);
  auto frame = bg;
  image::fill_rect(frame, image::Box{10, 10, 40, 30}, image::Rgb{230, 40, 40});
  SddConfig cfg;
  cfg.delta_diff = 5.0;
  SddFilter sdd(cfg, bg);
  EXPECT_GT(sdd.distance(frame), 5.0);
  EXPECT_TRUE(sdd.pass(frame));
}

TEST(SddFilter, MetricsAgreeOnOrdering) {
  const auto bg = flat(90);
  auto small_change = bg;
  image::fill_rect(small_change, image::Box{0, 0, 8, 8}, image::Rgb{140, 140, 140});
  auto big_change = bg;
  image::fill_rect(big_change, image::Box{0, 0, 40, 40}, image::Rgb{230, 230, 230});
  for (SddMetric m : {SddMetric::kMse, SddMetric::kNrmse, SddMetric::kSad}) {
    SddConfig cfg;
    cfg.metric = m;
    SddFilter sdd(cfg, bg);
    EXPECT_LT(sdd.distance(small_change), sdd.distance(big_change))
        << to_string(m);
  }
}

TEST(SddFilter, NrmseIsNormalized) {
  const auto bg = flat(0);
  const auto white = flat(255);
  SddConfig cfg;
  cfg.metric = SddMetric::kNrmse;
  cfg.gain_compensate = false;  // measure the raw global change
  SddFilter sdd(cfg, bg);
  EXPECT_NEAR(sdd.distance(white), 1.0, 1e-6);
}

TEST(SddFilter, GainCompensationIgnoresGlobalLighting) {
  const auto bg = flat(100);
  // A globally brightened frame is "the same scene under other light".
  auto brighter = bg;
  image::apply_gain(brighter, 1.2);
  // The same brightening plus a real object.
  auto with_object = brighter;
  image::fill_rect(with_object, image::Box{10, 10, 34, 26}, image::Rgb{230, 40, 40});

  SddConfig comp;  // gain_compensate = true by default
  SddFilter sdd(comp, bg);
  EXPECT_LT(sdd.distance(brighter), 2.0);
  EXPECT_GT(sdd.distance(with_object), 20.0);

  SddConfig raw;
  raw.gain_compensate = false;
  SddFilter sdd_raw(raw, bg);
  // Without compensation the lighting alone already looks like change.
  EXPECT_GT(sdd_raw.distance(brighter), 100.0);
}

TEST(SddFilter, ResizesInputToFeatureSize) {
  // A frame of a different resolution than the reference still works: both
  // are resized to the SDD feature size (100x100 by default).
  const image::Image bg(64, 64, 3, 90);
  const image::Image frame(128, 128, 3, 90);
  SddFilter sdd(SddConfig{}, bg);
  EXPECT_LT(sdd.distance(frame), 2.0);
}

TEST(SddCalibrate, SeparatesCleanDistances) {
  SddFilter sdd(SddConfig{}, flat(90));
  // Background distances ~5, target distances ~100.
  std::vector<double> d;
  std::vector<bool> label;
  for (int i = 0; i < 100; ++i) {
    d.push_back(5.0 + i * 0.01);
    label.push_back(false);
  }
  for (int i = 0; i < 50; ++i) {
    d.push_back(100.0 + i);
    label.push_back(true);
  }
  const double delta = sdd.calibrate(d, label);
  EXPECT_GT(delta, 6.0);
  EXPECT_LT(delta, 100.0);
  // All targets pass, all backgrounds are filtered, at the chosen delta.
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d[i] > delta, label[i]);
  }
}

TEST(SddCalibrate, RelaxFactorSitsBelowQuantile) {
  SddConfig cfg;
  cfg.fn_budget = 0.0;   // quantile = min target distance
  cfg.relax_factor = 0.5;
  cfg.bg_margin = 100.0;  // disable the background anchor for this check
  SddFilter sdd(cfg, flat(90));
  std::vector<double> d{1.0, 2.0, 50.0, 60.0, 70.0};
  std::vector<bool> label{false, false, true, true, true};
  const double delta = sdd.calibrate(d, label);
  EXPECT_NEAR(delta, 25.0, 1e-9);  // 0.5 * min(50)
}

TEST(SddCalibrate, BackgroundAnchorBoundsDelta) {
  // Targets so strong that the FN rule alone would pick a huge delta; the
  // background anchor keeps it near the background-distance ceiling.
  SddConfig cfg;
  cfg.bg_quantile = 0.90;
  cfg.bg_margin = 1.15;
  SddFilter sdd(cfg, flat(90));
  std::vector<double> d;
  std::vector<bool> label;
  for (int i = 0; i < 100; ++i) {
    d.push_back(4.0 + 0.02 * i);  // background: 4.0 .. 6.0
    label.push_back(false);
  }
  for (int i = 0; i < 50; ++i) {
    d.push_back(200.0 + i);
    label.push_back(true);
  }
  const double delta = sdd.calibrate(d, label);
  EXPECT_LT(delta, 10.0);
  EXPECT_GT(delta, 4.0);
}

TEST(SddCalibrate, NoTargetsFallsBackConservatively) {
  SddFilter sdd(SddConfig{}, flat(90));
  std::vector<double> d{1.0, 2.0, 3.0, 4.0};
  std::vector<bool> label{false, false, false, false};
  const double delta = sdd.calibrate(d, label);
  EXPECT_GT(delta, 0.0);
  EXPECT_LT(delta, 10.0);
}

TEST(SddCalibrate, BadInputsThrow) {
  SddFilter sdd(SddConfig{}, flat(90));
  EXPECT_THROW(sdd.calibrate({}, {}), std::invalid_argument);
  EXPECT_THROW(sdd.calibrate({1.0}, {true, false}), std::invalid_argument);
}

TEST(SddCalibrateOn, RealSceneKeepsTargetFramesPassing) {
  video::SceneConfig cfg = video::jackson_profile();
  cfg.width = 96;
  cfg.height = 72;
  cfg.tor = 0.4;
  video::SceneSimulator sim(cfg, 21, 800);
  std::vector<video::Frame> frames;
  for (int i = 0; i < 800; ++i) frames.push_back(sim.render(i));

  SddFilter sdd(SddConfig{}, sim.background());
  const double delta = sdd.calibrate_on(frames, cfg.target);
  EXPECT_GT(delta, 0.0);

  // On the calibration window itself the FN rate must respect the budget
  // (with slack for the relax factor this should be ~0).
  int fn = 0, targets = 0;
  for (const auto& f : frames) {
    if (!f.gt.any_target(cfg.target)) continue;
    ++targets;
    if (!sdd.pass(f.image)) ++fn;
  }
  ASSERT_GT(targets, 0);
  EXPECT_LT(static_cast<double>(fn) / targets, 0.02);
}

TEST(SddFilter, ToStringCoversMetrics) {
  EXPECT_STREQ(to_string(SddMetric::kMse), "MSE");
  EXPECT_STREQ(to_string(SddMetric::kNrmse), "NRMSE");
  EXPECT_STREQ(to_string(SddMetric::kSad), "SAD");
}

/// Exactness oracle: SddFilter::distance as first written, with a fresh
/// resize and luma conversion per call and a flat `i % channels` loop for
/// the gain-compensated metrics.
double oracle_distance(const SddConfig& config,
                       const image::Image& reference_background,
                       const image::Image& frame) {
  const image::Image reference =
      image::resize_bilinear(reference_background, config.width, config.height);
  image::Image small = image::resize_bilinear(frame, config.width, config.height);
  if (small.channels() != reference.channels()) {
    small = image::to_gray(small);
    const image::Image ref_gray = image::to_gray(reference);
    switch (config.metric) {
      case SddMetric::kMse: return image::mse(small, ref_gray);
      case SddMetric::kNrmse: return image::nrmse(small, ref_gray);
      case SddMetric::kSad: return image::sad(small, ref_gray);
    }
  }
  if (!config.gain_compensate) {
    switch (config.metric) {
      case SddMetric::kMse: return image::mse(small, reference);
      case SddMetric::kNrmse: return image::nrmse(small, reference);
      case SddMetric::kSad: return image::sad(small, reference);
    }
    return 0.0;
  }
  const std::uint8_t* a = small.data();
  const std::uint8_t* b = reference.data();
  const std::size_t n = small.size_bytes();
  const int channels = small.channels();
  double mean[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    mean[i % static_cast<std::size_t>(channels)] +=
        static_cast<double>(a[i]) - static_cast<double>(b[i]);
  }
  const double per_channel = static_cast<double>(n) / channels;
  for (int c = 0; c < channels; ++c) mean[c] /= per_channel;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]) -
                     mean[i % static_cast<std::size_t>(channels)];
    acc += config.metric == SddMetric::kSad ? std::abs(d) : d * d;
  }
  acc /= static_cast<double>(n);
  switch (config.metric) {
    case SddMetric::kMse: return acc;
    case SddMetric::kNrmse: return std::sqrt(acc) / 255.0;
    case SddMetric::kSad: return acc;
  }
  return 0.0;
}

image::Image random_image(int w, int h, int c, std::uint64_t seed) {
  image::Image img(w, h, c);
  runtime::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

TEST(SddFilter, DistanceMatchesOracleBitwise) {
  // Rendered frames (small, realistic distances) and random ones (large),
  // colour and gray on either side, at the feature size and off it.
  const video::SceneSimulator sim(video::jackson_profile(), 11, 40);
  const image::Image& bg = sim.background();
  const image::Image bg_gray = image::to_gray(bg);
  std::vector<image::Image> frames;
  for (int i = 0; i < 40; i += 4) frames.push_back(sim.render(i).image);
  frames.push_back(image::to_gray(frames.back()));
  frames.push_back(random_image(bg.width(), bg.height(), 3, 500));
  frames.push_back(random_image(100, 100, 3, 501));
  frames.push_back(random_image(97, 61, 1, 502));
  for (const image::Image* ref : {&bg, &bg_gray}) {
    for (const SddMetric metric :
         {SddMetric::kMse, SddMetric::kNrmse, SddMetric::kSad}) {
      for (const bool gain : {false, true}) {
        SddConfig cfg;
        cfg.metric = metric;
        cfg.gain_compensate = gain;
        const SddFilter sdd(cfg, *ref);
        for (const auto& f : frames) {
          const double got = sdd.distance(f);
          const double want = oracle_distance(cfg, *ref, f);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want))
              << to_string(metric) << " gain " << gain << " ref channels "
              << ref->channels() << " frame " << f.width() << "x" << f.height() << "x"
              << f.channels() << ": " << got << " vs " << want;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ffsva::detect
