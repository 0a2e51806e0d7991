#include "video/scene.hpp"

#include <algorithm>
#include <cmath>

#include "image/draw.hpp"

namespace ffsva::video {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
}

const char* to_string(ObjectClass cls) {
  switch (cls) {
    case ObjectClass::kCar: return "car";
    case ObjectClass::kPerson: return "person";
    case ObjectClass::kBus: return "bus";
  }
  return "?";
}

void ObjectTrack::position(std::int64_t t, double& cx, double& cy) const {
  const double span = static_cast<double>(exit - enter);
  double progress;
  if (stall_start >= 0) {
    // Three-phase path: approach, stall (hold at stall_x), cross.
    if (t < stall_start) {
      const double pre = static_cast<double>(stall_start - enter);
      const double u = pre > 0 ? static_cast<double>(t - enter) / pre : 1.0;
      cx = x_start + u * (stall_x - x_start);
    } else if (t < stall_start + stall_len) {
      cx = stall_x;
    } else {
      const double post = static_cast<double>(exit - (stall_start + stall_len));
      const double u =
          post > 0 ? static_cast<double>(t - (stall_start + stall_len)) / post : 1.0;
      cx = stall_x + u * (x_end - stall_x);
    }
  } else {
    progress = span > 0 ? static_cast<double>(t - enter) / span : 1.0;
    cx = x_start + progress * (x_end - x_start);
  }
  cy = y;
  if (wander_amp > 0.0) {
    cx += wander_amp * std::sin(wander_phase + kTwoPi * static_cast<double>(t) / 90.0);
    cy += 0.6 * wander_amp *
          std::cos(0.7 * wander_phase + kTwoPi * static_cast<double>(t) / 130.0);
  }
}

SceneSimulator::SceneSimulator(const SceneConfig& config, std::uint64_t seed,
                               std::int64_t total_frames)
    : config_(config),
      total_frames_(std::max<std::int64_t>(total_frames, 1)),
      seed_(seed) {
  build_background(seed);
  plan_timeline(seed);
  plan_tracks(seed);
}

void SceneSimulator::build_background(std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed * 0x9e37u + 17);
  const int w = config_.width, h = config_.height;
  background_ = image::Image(w, h, 3);

  if (config_.target == ObjectClass::kPerson) {
    // Aquarium-like scene: deep water gradient with rocky floor.
    image::fill_vertical_gradient(background_, image::Rgb{24, 60, 110},
                                  image::Rgb{10, 30, 60});
    for (int i = 0; i < 8; ++i) {
      const int cx = static_cast<int>(rng.below(static_cast<std::uint64_t>(w)));
      const int cy = h - 12 - static_cast<int>(rng.below(18));
      const auto shade = static_cast<std::uint8_t>(40 + rng.below(40));
      image::fill_ellipse(
          background_, cx, cy, 10 + static_cast<int>(rng.below(14)),
          5 + static_cast<int>(rng.below(6)),
          image::Rgb{shade, shade, static_cast<std::uint8_t>(shade + 10)});
    }
  } else {
    // Street scene: sky, buildings strip, road band, sidewalk.
    image::fill_vertical_gradient(background_, image::Rgb{150, 170, 200},
                                  image::Rgb{120, 130, 150});
    const int road_top = static_cast<int>(h * 0.45);
    const int road_bot = static_cast<int>(h * 0.85);
    image::fill_band(background_, static_cast<int>(h * 0.30), road_top,
                     image::Rgb{90, 85, 80});  // building strip
    image::fill_band(background_, road_top, road_bot, image::Rgb{70, 70, 72});
    image::fill_band(background_, road_bot, h, image::Rgb{130, 125, 118});
    // Lane markings.
    const int lane_y = (road_top + road_bot) / 2;
    for (int x = 0; x < w; x += 24) {
      image::fill_rect(background_, image::Box{x, lane_y - 1, x + 10, lane_y + 1},
                       image::Rgb{200, 200, 190});
    }
  }

  // Per-seed static texture so different streams differ even with identical
  // configs (specialized SDD/SNM per stream is the whole point).
  std::uint8_t* p = background_.data();
  const std::size_t n = background_.size_bytes();
  for (std::size_t i = 0; i < n; i += 3) {
    const int d = static_cast<int>(rng.below(9)) - 4;
    for (int ch = 0; ch < 3; ++ch) {
      p[i + ch] = static_cast<std::uint8_t>(
          std::clamp(static_cast<int>(p[i + ch]) + d, 0, 255));
    }
  }
}

void SceneSimulator::plan_timeline(std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed ^ 0xfeedfaceULL);
  intervals_.clear();
  const std::int64_t presence =
      std::llround(std::clamp(config_.tor, 0.0, 1.0) *
                   static_cast<double>(total_frames_));
  if (presence <= 0) return;

  // Choose scene lengths summing to `presence`.
  std::vector<std::int64_t> lens;
  std::int64_t acc = 0;
  while (acc < presence) {
    const double raw = config_.mean_scene_len_frames * (0.4 + 1.2 * rng.uniform());
    std::int64_t len = std::max<std::int64_t>(12, std::llround(raw));
    len = std::min(len, presence - acc);
    // Avoid a trailing sliver; merge into the previous scene instead.
    if (len < 12 && !lens.empty()) {
      lens.back() += len;
    } else {
      lens.push_back(len);
    }
    acc += len;
  }

  // Partition the absence into |lens|+1 gaps with random weights.
  const std::int64_t absence = total_frames_ - presence;
  const std::size_t num_gaps = lens.size() + 1;
  std::vector<double> weights(num_gaps);
  double wsum = 0.0;
  for (auto& wgt : weights) {
    wgt = 0.2 + rng.uniform();
    wsum += wgt;
  }
  std::vector<std::int64_t> gaps(num_gaps);
  std::int64_t gacc = 0;
  for (std::size_t i = 0; i + 1 < num_gaps; ++i) {
    gaps[i] = std::llround(static_cast<double>(absence) * weights[i] / wsum);
    gacc += gaps[i];
  }
  gaps.back() = std::max<std::int64_t>(0, absence - gacc);

  // Lay out: gap0, scene0, gap1, scene1, ...
  std::int64_t cursor = 0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    cursor += gaps[i];
    SceneInterval iv;
    iv.begin = cursor;
    iv.end = std::min<std::int64_t>(cursor + lens[i], total_frames_);
    // Object count: 1 + geometric(multi_object_bias), capped.
    iv.num_objects = 1;
    while (iv.num_objects < config_.max_objects &&
           rng.chance(config_.multi_object_bias)) {
      ++iv.num_objects;
    }
    if (iv.end > iv.begin) intervals_.push_back(iv);
    cursor = iv.end;
  }
}

double SceneSimulator::planned_tor() const {
  std::int64_t covered = 0;
  for (const auto& iv : intervals_) covered += iv.end - iv.begin;
  return static_cast<double>(covered) / static_cast<double>(total_frames_);
}

void SceneSimulator::plan_tracks(std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed ^ 0xdeadbeefULL);
  tracks_.clear();
  int next_id = 1;
  const int w = config_.width, h = config_.height;
  const int road_top = static_cast<int>(h * 0.45);
  const int road_bot = static_cast<int>(h * 0.85);

  auto make_car = [&](std::int64_t b, std::int64_t e, bool allow_stall) {
    ObjectTrack t;
    t.object_id = next_id++;
    t.cls = rng.chance(0.12) ? ObjectClass::kBus : ObjectClass::kCar;
    t.enter = b;
    t.exit = e;
    const double scale = 0.8 + 0.5 * rng.uniform();
    t.w = static_cast<int>((t.cls == ObjectClass::kBus ? 1.8 : 1.0) * config_.car_w *
                           scale);
    t.h = static_cast<int>((t.cls == ObjectClass::kBus ? 1.5 : 1.0) * config_.car_h *
                           scale);
    const bool ltr = rng.chance(0.5);
    t.x_start = ltr ? -t.w * 0.5 : w + t.w * 0.5;
    t.x_end = ltr ? w + t.w * 0.5 : -t.w * 0.5;
    const int lanes = 3;
    const int lane = static_cast<int>(rng.below(lanes));
    t.y = road_top + (lane + 0.5) * (road_bot - road_top) / lanes;
    t.color = image::Rgb{static_cast<std::uint8_t>(60 + rng.below(180)),
                         static_cast<std::uint8_t>(60 + rng.below(180)),
                         static_cast<std::uint8_t>(60 + rng.below(180))};
    if (allow_stall && rng.chance(config_.stopline_fraction) &&
        e - b > config_.stall_frames + 30) {
      // Stall at the entry edge with only 25-50% of the car inside the
      // frame: the paper's partial-appearance false-negative generator.
      const double vis = 0.25 + 0.25 * rng.uniform();
      t.stall_start = b + 4;
      t.stall_len = std::min<std::int64_t>(config_.stall_frames, e - b - 24);
      t.stall_x = ltr ? (vis * t.w - t.w * 0.5) : (w - vis * t.w + t.w * 0.5);
    }
    tracks_.push_back(t);
  };

  auto make_person = [&](std::int64_t b, std::int64_t e, double cx0, double cy0) {
    ObjectTrack t;
    t.object_id = next_id++;
    t.cls = ObjectClass::kPerson;
    t.enter = b;
    t.exit = e;
    t.h = static_cast<int>(config_.person_h * (0.8 + 0.5 * rng.uniform()));
    t.w = std::max(4, t.h / 2);
    const double drift = 6.0 + 10.0 * rng.uniform();
    t.x_start = cx0 - drift;
    t.x_end = cx0 + drift;
    t.y = cy0;
    t.wander_amp = 2.0 + 3.0 * rng.uniform();
    t.wander_phase = rng.uniform(0.0, kTwoPi);
    t.color = image::Rgb{static_cast<std::uint8_t>(90 + rng.below(160)),
                         static_cast<std::uint8_t>(90 + rng.below(160)),
                         static_cast<std::uint8_t>(90 + rng.below(160))};
    tracks_.push_back(t);
  };

  for (const auto& iv : intervals_) {
    if (config_.target == ObjectClass::kPerson) {
      // A crowd cluster: num_objects persons around a shared center.
      const double cx0 = w * (0.2 + 0.6 * rng.uniform());
      const double cy0 = h * (0.35 + 0.4 * rng.uniform());
      for (int k = 0; k < iv.num_objects; ++k) {
        const double px = cx0 + config_.crowd_sigma * rng.normal();
        const double py = cy0 + 0.6 * config_.crowd_sigma * rng.normal();
        make_person(iv.begin, iv.end,
                    std::clamp(px, w * 0.08, w * 0.92),
                    std::clamp(py, h * 0.25, h * 0.85));
      }
    } else {
      // First car spans the whole interval (guarantees presence); extras
      // cover random sub-spans.
      make_car(iv.begin, iv.end, /*allow_stall=*/true);
      for (int k = 1; k < iv.num_objects; ++k) {
        const std::int64_t len = iv.end - iv.begin;
        const std::int64_t sub = std::max<std::int64_t>(12, len / 2);
        const std::int64_t off =
            static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(
                std::max<std::int64_t>(1, len - sub + 1))));
        make_car(iv.begin + off, std::min(iv.begin + off + sub, iv.end),
                 /*allow_stall=*/false);
      }
      // Occasional in-scene distractor (pedestrian on the sidewalk).
      if (rng.chance(config_.distractor_rate)) {
        make_person(iv.begin, iv.end, w * (0.2 + 0.6 * rng.uniform()), h * 0.90);
      }
    }
  }

  // Non-target motion in the gaps ("SDD filters out few frames due to
  // frequent movement and scene changes in the daytime", Fig. 5): fill a
  // portion of each gap with distractor-only activity.
  if (config_.distractor_rate > 0.0) {
    std::int64_t prev_end = 0;
    auto fill_gap = [&](std::int64_t gb, std::int64_t ge) {
      const std::int64_t len = ge - gb;
      if (len < 40) return;
      // Cover roughly half of each sizable gap with a distractor.
      const std::int64_t sub = len / 2;
      const std::int64_t off = static_cast<std::int64_t>(
          rng.below(static_cast<std::uint64_t>(len - sub + 1)));
      if (config_.target == ObjectClass::kPerson) {
        // Distractor in an aquarium stream: a fish-like small ellipse (bus
        // class reused as "other moving thing" is wrong; draw a person-free
        // moving blob as a car-class object of small size).
        ObjectTrack t;
        t.object_id = -1;  // assigned below
        t.cls = ObjectClass::kCar;  // non-target class for a person stream
        t.enter = gb + off;
        t.exit = gb + off + sub;
        t.w = 14;
        t.h = 7;
        const bool ltr = rng.chance(0.5);
        t.x_start = ltr ? -8.0 : w + 8.0;
        t.x_end = ltr ? w + 8.0 : -8.0;
        t.y = h * (0.3 + 0.5 * rng.uniform());
        t.color = image::Rgb{220, 170, 60};
        t.object_id = next_id++;
        tracks_.push_back(t);
      } else {
        make_person(gb + off, gb + off + sub, w * (0.2 + 0.6 * rng.uniform()),
                    h * 0.90);
      }
    };
    for (const auto& iv : intervals_) {
      fill_gap(prev_end, iv.begin);
      prev_end = iv.end;
    }
    fill_gap(prev_end, total_frames_);
  }

  std::stable_sort(
      tracks_.begin(), tracks_.end(),
      [](const ObjectTrack& a, const ObjectTrack& b) { return a.y < b.y; });
}

void SceneSimulator::render_object(image::Image& img, const ObjectTrack& track,
                                   std::int64_t t, GroundTruth& gt) const {
  double cx, cy;
  track.position(t, cx, cy);
  const int x0 = static_cast<int>(std::lround(cx - track.w * 0.5));
  const int y0 = static_cast<int>(std::lround(cy - track.h * 0.5));
  const image::Box full{x0, y0, x0 + track.w, y0 + track.h};
  const image::Box vis = full.clip(img.width(), img.height());
  const double frac =
      full.area() > 0
          ? static_cast<double>(vis.area()) / static_cast<double>(full.area())
          : 0.0;
  if (frac <= 0.0) return;

  switch (track.cls) {
    case ObjectClass::kCar:
    case ObjectClass::kBus: {
      image::fill_rect(img, full, track.color);
      // Window strip (darker).
      const image::Box win{full.x0 + track.w / 5, full.y0 + 2,
                           full.x1 - track.w / 5, full.y0 + track.h / 2};
      image::fill_rect(img, win,
                       image::Rgb{static_cast<std::uint8_t>(track.color.r / 3),
                                  static_cast<std::uint8_t>(track.color.g / 3),
                                  static_cast<std::uint8_t>(track.color.b / 3)});
      // Wheels.
      const int wr = std::max(2, track.h / 5);
      image::fill_ellipse(img, full.x0 + track.w / 5, full.y1 - 1, wr, wr,
                          image::Rgb{20, 20, 20});
      image::fill_ellipse(img, full.x1 - track.w / 5, full.y1 - 1, wr, wr,
                          image::Rgb{20, 20, 20});
      break;
    }
    case ObjectClass::kPerson: {
      // Head + torso.
      const int head_r = std::max(2, track.h / 5);
      image::fill_ellipse(img, (full.x0 + full.x1) / 2, full.y0 + head_r, head_r,
                          head_r, image::Rgb{210, 180, 150});
      const image::Box torso{full.x0, full.y0 + 2 * head_r, full.x1, full.y1};
      image::fill_rect(img, torso, track.color);
      break;
    }
  }

  GtObject o;
  o.cls = track.cls;
  o.full_box = full;
  o.visible_box = vis;
  o.visible_fraction = frac;
  o.object_id = track.object_id;
  gt.objects.push_back(o);
}

Frame SceneSimulator::render(std::int64_t index, int stream_id) const {
  Frame f;
  f.image = background_;
  f.stream_id = stream_id;
  f.index = index;
  f.pts_sec = static_cast<double>(index) / config_.fps;

  // Dynamic texture (water shimmer): cheap tiled perturbation of the lower
  // region, re-phased every frame.
  if (config_.dynamic_texture > 0.0) {
    runtime::SplitMix64 sm(seed_ ^ static_cast<std::uint64_t>(index) * 0x2545f491ULL);
    const std::uint64_t off = sm.next();
    std::uint8_t* p = f.image.data();
    const int y_begin = static_cast<int>(config_.height * 0.25);
    const int amp = static_cast<int>(14 * config_.dynamic_texture);
    for (int y = y_begin; y < config_.height; ++y) {
      for (int x = 0; x < config_.width; ++x) {
        const std::uint64_t hsh =
            (static_cast<std::uint64_t>(y) * 0x9e3779b97f4a7c15ULL + x + off);
        const int d = static_cast<int>((hsh >> 32) % (2 * amp + 1)) - amp;
        const std::size_t i = (static_cast<std::size_t>(y) * config_.width + x) * 3;
        for (int ch = 0; ch < 3; ++ch) {
          p[i + ch] = static_cast<std::uint8_t>(
              std::clamp(static_cast<int>(p[i + ch]) + d, 0, 255));
        }
      }
    }
  }

  // Objects (tracks are pre-sorted by y for painter's order).
  for (const auto& tr : tracks_) {
    if (index >= tr.enter && index < tr.exit) render_object(f.image, tr, index, f.gt);
  }

  // Slow lighting drift.
  if (config_.lighting_amp > 0.0) {
    const double gain =
        1.0 + config_.lighting_amp *
                  std::sin(kTwoPi * static_cast<double>(index) /
                           (config_.fps * config_.lighting_period_sec));
    image::apply_gain(f.image, gain);
  }

  // Sensor noise from a tiled table (cheap, deterministic per frame).
  if (config_.noise_amp > 0.0) {
    runtime::SplitMix64 sm(seed_ * 0xc0ffee + static_cast<std::uint64_t>(index));
    const std::uint64_t off = sm.next();
    const int amp = std::max(1, static_cast<int>(config_.noise_amp));
    std::uint8_t* p = f.image.data();
    const std::size_t n = f.image.size_bytes();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t hsh = (i + off) * 0x9e3779b97f4a7c15ULL;
      const int d = static_cast<int>((hsh >> 40) % (2 * amp + 1)) - amp;
      p[i] = static_cast<std::uint8_t>(std::clamp(static_cast<int>(p[i]) + d, 0, 255));
    }
  }

  return f;
}

}  // namespace ffsva::video
