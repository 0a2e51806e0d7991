#include "detect/sdd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

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

/// SddFilter::distance before exact moments: a fresh resize and luma
/// conversion per call, and the gain-compensated metrics as a serial
/// `double` sum of (a - b - mean)^2 or |a - b - mean| over a flat
/// `i % channels` loop, with the channel mean rounded to `double` first.
double serial_distance(const SddConfig& config,
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

using u128 = unsigned __int128;

/// p / q rounded once: reduced to lowest terms, both are exact doubles, and
/// IEEE division rounds their quotient correctly.
double rounded_ratio(u128 p, u128 q) {
  u128 x = p, y = q;
  while (y != 0) {
    const u128 r = x % y;
    x = y;
    y = r;
  }
  p /= x;
  q /= x;
  constexpr u128 kExact = u128{1} << 53;
  EXPECT_LT(p, kExact);
  EXPECT_LT(q, kExact);
  return static_cast<double>(static_cast<std::uint64_t>(p)) /
         static_cast<double>(static_cast<std::uint64_t>(q));
}

/// Exact oracle: the gain-compensated metric's definition with the exact
/// channel mean S_c / N, from 128-bit per-value residuals N * x - S_c (not
/// the kernel's moments) and one final rounding: MSE = sum (N x - S_c)^2 /
/// (N^2 n), SAD = sum |N x - S_c| / (N n). Other paths as in serial_distance.
double exact_distance(const SddConfig& config,
                      const image::Image& reference_background,
                      const image::Image& frame) {
  if (!config.gain_compensate || frame.channels() != reference_background.channels()) {
    return serial_distance(config, reference_background, frame);
  }
  const image::Image reference =
      image::resize_bilinear(reference_background, config.width, config.height);
  const image::Image small = image::resize_bilinear(frame, config.width, config.height);
  const std::size_t channels = static_cast<std::size_t>(small.channels());
  const std::size_t n = small.size_bytes();
  const auto pixels = static_cast<__int128>(n / channels);
  __int128 sum[3] = {0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    sum[i % channels] += static_cast<int>(small.data()[i]) - reference.data()[i];
  }
  u128 numerator = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const __int128 x = static_cast<int>(small.data()[i]) - reference.data()[i];
    const __int128 r = pixels * x - sum[i % channels];
    numerator += static_cast<u128>(config.metric == SddMetric::kSad ? (r < 0 ? -r : r)
                                                                     : r * r);
  }
  const u128 denominator = static_cast<u128>(pixels) * n;
  if (config.metric == SddMetric::kSad) return rounded_ratio(numerator, denominator);
  const double mse = rounded_ratio(numerator, denominator * static_cast<u128>(pixels));
  return config.metric == SddMetric::kMse ? mse : std::sqrt(mse) / 255.0;
}

image::Image random_image(int w, int h, int c, std::uint64_t seed) {
  image::Image img(w, h, c);
  runtime::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(rng.below(256));
  }
  return img;
}

TEST(SddFilter, DistanceMatchesExactOracleBitwise) {
  // Rendered frames (small, realistic distances) and random ones (large),
  // colour and gray on either side, at the feature size and off it. The
  // distance is its definition correctly rounded; the serial double sum it
  // replaced differs from it only by that sum's rounding.
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
          SCOPED_TRACE(testing::Message()
                       << to_string(metric) << " gain " << gain << " ref channels "
                       << ref->channels() << " frame " << f.width() << "x"
                       << f.height() << "x" << f.channels());
          const double got = sdd.distance(f);
          const double want = exact_distance(cfg, *ref, f);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want))
              << got << " vs " << want;
          const double serial = serial_distance(cfg, *ref, f);
          EXPECT_LE(std::abs(serial - got), 1e-12 * std::abs(got))
              << got << " vs serial " << serial;
        }
      }
    }
  }
}

TEST(SddCalibrateOn, SerialAndExactDistancesGiveSameVerdicts) {
  // Calibrated on either distance, the filter passes and fails the same
  // frames: the two differ by far less than any gap between frames.
  const std::pair<const char*, video::SceneConfig> scenes[] = {
      {"jackson", video::jackson_profile()}, {"coral", video::coral_profile()}};
  for (auto [scene, cfg] : scenes) {
    cfg.width = 128;
    cfg.height = 96;
    cfg.tor = 0.4;
    video::SceneSimulator sim(cfg, 23, 400);
    std::vector<video::Frame> frames;
    for (int i = 0; i < 400; ++i) frames.push_back(sim.render(i));
    for (const SddMetric metric :
         {SddMetric::kMse, SddMetric::kNrmse, SddMetric::kSad}) {
      SCOPED_TRACE(testing::Message() << scene << " " << to_string(metric));
      SddConfig sc;
      sc.metric = metric;
      SddFilter exact(sc, sim.background());
      SddFilter serial(sc, sim.background());
      exact.calibrate_on(frames, cfg.target);
      std::vector<double> serial_d;
      std::vector<bool> labels;
      for (const auto& f : frames) {
        serial_d.push_back(serial_distance(sc, sim.background(), f.image));
        labels.push_back(f.gt.any_target(cfg.target));
      }
      serial.calibrate(serial_d, labels);
      int passed = 0;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const bool pass = exact.pass(frames[i].image);
        EXPECT_EQ(pass, serial_d[i] > serial.config().delta_diff) << "frame " << i;
        passed += pass ? 1 : 0;
      }
      EXPECT_GT(passed, 0);
      EXPECT_LT(passed, static_cast<int>(frames.size()));
    }
  }
}

}  // namespace
}  // namespace ffsva::detect
