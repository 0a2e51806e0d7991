#include "video/tor_schedule.hpp"

#include <algorithm>
#include <cmath>

namespace ffsva::video {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
}

TorSchedule::TorSchedule(TorScheduleConfig config, std::uint64_t seed)
    : config_(config) {
  if (config_.pattern == TorPattern::kBursty) {
    // Pre-draw surge onsets over four periods as a Poisson process.
    runtime::Xoshiro256 rng(seed ^ 0xb0b5ULL);
    const double horizon = 4.0 * config_.period_sec;
    const double rate_per_sec = config_.surge_rate_per_hour / 3600.0;
    double t = 0.0;
    while (t < horizon) {
      // Exponential inter-arrival.
      t += -std::log(1.0 - rng.uniform()) / std::max(1e-9, rate_per_sec);
      if (t < horizon) surge_starts_.push_back(t);
    }
  }
}

double TorSchedule::tor_at(double t_sec) const {
  double tor = config_.base_tor;
  switch (config_.pattern) {
    case TorPattern::kConstant:
      break;
    case TorPattern::kDiurnal: {
      // Trough at phase 0 (night), peak half a period later (midday).
      const double cycle = -std::cos(
          kTwoPi * (t_sec - config_.phase_sec) / config_.period_sec);
      tor = config_.base_tor * (1.0 + config_.amplitude * cycle);
      break;
    }
    case TorPattern::kBursty: {
      const auto it =
          std::upper_bound(surge_starts_.begin(), surge_starts_.end(), t_sec);
      if (it != surge_starts_.begin()) {
        const double onset = *(it - 1);
        if (t_sec - onset < config_.surge_len_sec) tor = config_.surge_tor;
      }
      break;
    }
  }
  return std::clamp(tor, 0.0, 1.0);
}

std::vector<TorSegment> TorSchedule::segments(double duration_sec,
                                              double segment_sec) const {
  std::vector<TorSegment> out;
  segment_sec = std::max(1.0, segment_sec);
  for (double t = 0.0; t < duration_sec; t += segment_sec) {
    TorSegment seg;
    seg.begin_sec = t;
    seg.end_sec = std::min(duration_sec, t + segment_sec);
    // Mean via midpoint sampling (the schedules are smooth or piecewise
    // constant at surge granularity).
    const int samples = 8;
    double acc = 0.0;
    for (int k = 0; k < samples; ++k) {
      const double u = (k + 0.5) / samples;
      acc += tor_at(seg.begin_sec + u * (seg.end_sec - seg.begin_sec));
    }
    seg.tor = acc / samples;
    out.push_back(seg);
  }
  return out;
}

double TorSchedule::mean_tor(double duration_sec) const {
  const auto segs = segments(duration_sec, duration_sec / 64.0);
  double acc = 0.0, total = 0.0;
  for (const auto& s : segs) {
    acc += s.tor * (s.end_sec - s.begin_sec);
    total += s.end_sec - s.begin_sec;
  }
  return total > 0 ? acc / total : 0.0;
}

}  // namespace ffsva::video
