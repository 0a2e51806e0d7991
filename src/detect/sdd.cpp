#include "detect/sdd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "detect/fault_hook.hpp"
#include "image/ops.hpp"
#include "runtime/cancel.hpp"

namespace ffsva::detect {

const char* to_string(SddMetric m) {
  switch (m) {
    case SddMetric::kMse: return "MSE";
    case SddMetric::kNrmse: return "NRMSE";
    case SddMetric::kSad: return "SAD";
  }
  return "?";
}

SddFilter::SddFilter(SddConfig config, const image::Image& reference_background)
    : config_(config),
      // Keep color: a chromatic object (a red car on gray asphalt) can be
      // luma-neutral and invisible to a grayscale difference.
      reference_(
          image::resize_bilinear(reference_background, config.width, config.height)),
      reference_gray_(image::to_gray(reference_)) {
  if (reference_.empty()) {
    throw std::invalid_argument("SddFilter: empty reference background");
  }
}

double SddFilter::distance(const image::Image& frame) const {
  FaultHook::on_call(FaultStage::kSdd);
  runtime::check_cancel();
  // Plan-based resize into thread-local staging, as in TYoloDetector::detect:
  // steady state (fixed frame geometry) resizes allocation-free.
  static thread_local image::ResizePlan plan;
  static thread_local image::Image small;
  plan.ensure(frame.width(), frame.height(), config_.width, config_.height);
  image::resize_bilinear_into(frame, plan, small);
  if (small.channels() != reference_.channels()) {
    // Mixed gray/color inputs: fall back to luma on both sides.
    const image::Image gray = image::to_gray(small);
    switch (config_.metric) {
      case SddMetric::kMse: return image::mse(gray, reference_gray_);
      case SddMetric::kNrmse: return image::nrmse(gray, reference_gray_);
      case SddMetric::kSad: return image::sad(gray, reference_gray_);
    }
  }
  if (!config_.gain_compensate) {
    switch (config_.metric) {
      case SddMetric::kMse: return image::mse(small, reference_);
      case SddMetric::kNrmse: return image::nrmse(small, reference_);
      case SddMetric::kSad: return image::sad(small, reference_);
    }
    return 0.0;
  }
  switch (config_.metric) {
    case SddMetric::kMse: return image::gain_compensated_mse(small, reference_);
    case SddMetric::kNrmse:
      return std::sqrt(image::gain_compensated_mse(small, reference_)) / 255.0;
    case SddMetric::kSad: return image::gain_compensated_sad(small, reference_);
  }
  return 0.0;
}

double SddFilter::calibrate(const std::vector<double>& distances,
                            const std::vector<bool>& is_target) {
  if (distances.size() != is_target.size() || distances.empty()) {
    throw std::invalid_argument("SddFilter::calibrate: bad inputs");
  }
  std::vector<double> target_d;
  std::vector<double> bg_d;
  for (std::size_t i = 0; i < distances.size(); ++i) {
    (is_target[i] ? target_d : bg_d).push_back(distances[i]);
  }
  if (target_d.empty()) {
    // No targets in the calibration window: be conservative, pass almost
    // everything above the noise floor of the observed distances.
    std::vector<double> all = distances;
    std::sort(all.begin(), all.end());
    config_.delta_diff = all[all.size() / 2] * 1.5;
    return config_.delta_diff;
  }
  std::sort(target_d.begin(), target_d.end());
  // Largest threshold keeping FN rate within budget: the fn_budget-quantile
  // of target distances (frames below the threshold would be missed).
  const auto idx = static_cast<std::size_t>(config_.fn_budget *
                                            static_cast<double>(target_d.size()));
  const double quantile = target_d[std::min(idx, target_d.size() - 1)];
  // Relaxed filtering: sit slightly below the selected threshold.
  double delta = quantile * config_.relax_factor;
  // ...and never above the background-anchored bound: beyond it we would be
  // betting that no future target frame is weaker than the weakest one the
  // calibration window happened to contain.
  if (!bg_d.empty()) {
    std::sort(bg_d.begin(), bg_d.end());
    const auto bg_idx = static_cast<std::size_t>(config_.bg_quantile *
                                                 static_cast<double>(bg_d.size() - 1));
    const double bg_bound = bg_d[bg_idx] * config_.bg_margin;
    delta = std::min(delta, std::max(bg_bound, 1e-9));
  }
  config_.delta_diff = delta;
  return config_.delta_diff;
}

double SddFilter::calibrate_on(const std::vector<video::Frame>& frames,
                               video::ObjectClass target) {
  std::vector<double> d;
  std::vector<bool> label;
  d.reserve(frames.size());
  label.reserve(frames.size());
  for (const auto& f : frames) {
    d.push_back(distance(f.image));
    label.push_back(f.gt.any_target(target));
  }
  return calibrate(d, label);
}

// --- compressed-domain SDD ---------------------------------------------------

const char* to_string(HintDecision d) {
  switch (d) {
    case HintDecision::kSkip: return "skip";
    case HintDecision::kPass: return "pass";
    case HintDecision::kFallback: return "fallback";
  }
  return "?";
}

namespace {

// Map a pixel-SDD distance into the space where the triangle inequality
// holds: MSE is a squared norm, NRMSE and SAD already are norms.
double to_norm(SddMetric metric, double distance) {
  const double d = distance < 0.0 ? 0.0 : distance;
  return metric == SddMetric::kMse ? std::sqrt(d) : d;
}

}  // namespace

CompressedSdd::CompressedSdd(SddMetric metric, double delta_diff, double hint_relax)
    : metric_(metric) {
  const double relax = std::clamp(hint_relax, 0.01, 1.0);
  thr_skip_ = to_norm(metric_, delta_diff * relax);
  thr_pass_ = to_norm(metric_, delta_diff / relax);
}

double CompressedSdd::residual_norm(const video::FrameHint& hint) const {
  // Peak-block statistics bound the aliasing hazard: the SDD resize can
  // sample a change confined to one grid cell at up to its local amplitude.
  float peak_energy = 0.0f, peak_sad = 0.0f;
  for (const auto& b : hint.blocks) {
    peak_energy = b.energy > peak_energy ? b.energy : peak_energy;
    peak_sad = b.sad > peak_sad ? b.sad : peak_sad;
  }
  switch (metric_) {
    case SddMetric::kMse:
      return std::max(std::sqrt(static_cast<double>(hint.mse)),
                      0.5 * std::sqrt(static_cast<double>(peak_energy)));
    case SddMetric::kNrmse:
      return std::max(std::sqrt(static_cast<double>(hint.mse)),
                      0.5 * std::sqrt(static_cast<double>(peak_energy))) /
             255.0;
    case SddMetric::kSad:
      return std::max(static_cast<double>(hint.sad),
                      0.5 * static_cast<double>(peak_sad));
  }
  return 0.0;
}

HintDecision CompressedSdd::decide(const video::FrameHint& hint) {
  if (anchor_norm_ < 0.0) return HintDecision::kFallback;
  const double r = residual_norm(hint);
  const double lo = std::max(0.0, anchor_norm_ - drift_ - r);
  const double hi = anchor_norm_ + drift_ + r;
  HintDecision d;
  if (hi < thr_skip_) {
    d = HintDecision::kSkip;
  } else if (lo > thr_pass_) {
    d = HintDecision::kPass;
  } else {
    return HintDecision::kFallback;
  }
  drift_ += r;  // the unmeasured frame becomes part of the uncertainty
  return d;
}

void CompressedSdd::anchor(double pixel_distance) {
  anchor_norm_ = to_norm(metric_, pixel_distance);
  drift_ = 0.0;
}

CompressedSddReport compressed_sdd_agreement(const video::StoredVideo& video,
                                             const SddFilter& sdd,
                                             double hint_relax) {
  CompressedSddReport r;
  CompressedSdd csdd(sdd.config().metric, sdd.config().delta_diff, hint_relax);
  video::VideoReader reader(video);
  for (std::int64_t i = 0; i < video.frame_count(); ++i) {
    const auto frame = reader.next();
    if (!frame) break;
    // The oracle decodes every frame; the engine would not — decisions are
    // deterministic functions of (hints, threshold), so verdicts match.
    const double dist = sdd.distance(frame->image);
    const bool truth = dist > sdd.config().delta_diff;
    bool predicted = truth;
    switch (csdd.decide(video.hint(i))) {
      case HintDecision::kSkip:
        ++r.skipped;
        predicted = false;
        break;
      case HintDecision::kPass:
        ++r.hint_passes;
        predicted = true;
        break;
      case HintDecision::kFallback:
        ++r.fallbacks;
        csdd.anchor(dist);
        break;
    }
    if (predicted != truth) ++r.disagreements;
    ++r.frames;
  }
  return r;
}

}  // namespace ffsva::detect
