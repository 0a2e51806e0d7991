// SDD — stream-specialized difference detector (paper Section 3.2.1).
//
// Resizes each frame to a fixed low resolution, converts to gray, and
// compares against a per-stream reference background image with one of
// MSE / NRMSE / SAD. A frame whose distance exceeds delta_diff shows "an
// obvious content change" and passes; otherwise it is a background frame
// and is filtered out.
//
// calibrate() implements the paper's threshold selection (Section 4.1):
// given labeled frames it picks the largest delta_diff whose false-negative
// rate on target frames stays within a budget, then relaxes it slightly —
// "set the real filtering threshold slightly below the target threshold"
// (Section 3.3) — so downstream filters get a second chance at borderline
// frames.
//
// CompressedSdd is the compressed-domain variant (DESIGN.md §13): it maps
// the codec's per-frame block-energy hints (video::FrameHint) onto the same
// pass/fail decision *before* any pixel is decoded, with a conservative
// band that falls back to full decode + pixel SDD for borderline frames.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hpp"
#include "video/codec.hpp"
#include "video/frame.hpp"

namespace ffsva::detect {

enum class SddMetric : std::uint8_t { kMse = 0, kNrmse = 1, kSad = 2 };

const char* to_string(SddMetric m);

struct SddConfig {
  int width = 100;                 ///< SDD feature size (100x100, Sec. 3.2.1).
  int height = 100;
  SddMetric metric = SddMetric::kMse;
  double delta_diff = 50.0;        ///< Pass if distance > delta_diff.
  double relax_factor = 0.9;       ///< Relaxed filtering (Sec. 3.3).
  double fn_budget = 0.005;        ///< Calibration FN budget on target frames.
  /// Calibration also bounds delta by the background-distance distribution:
  /// delta <= bg_margin * quantile(non-target distances, bg_quantile). The
  /// FN-budget rule alone picks the most aggressive delta the calibration
  /// window permits, which over-filters target frames the window never
  /// showed (small distant objects); anchoring to the background statistics
  /// keeps the threshold near the noise floor instead.
  double bg_quantile = 0.90;
  double bg_margin = 1.15;
  /// Subtract the mean frame-vs-reference offset before measuring distance.
  /// Global illumination drift ("weather, light intensity, etc. can all
  /// contribute to the value of MSE", Section 3.2.1) otherwise dominates
  /// the metric and forces delta_diff so high that small single objects
  /// captured at a different lighting phase than calibration slip under it.
  bool gain_compensate = true;
};

class SddFilter {
 public:
  SddFilter(SddConfig config, const image::Image& reference_background);

  /// Distance of this frame to the reference (after resize + gray).
  double distance(const image::Image& frame) const;

  /// True if the frame passes (content changed), false if filtered out.
  bool pass(const image::Image& frame) const {
    return distance(frame) > config_.delta_diff;
  }

  /// Threshold selection from labeled examples. `distances` and
  /// `is_target` are parallel; chooses delta_diff and returns it.
  double calibrate(const std::vector<double>& distances,
                   const std::vector<bool>& is_target);

  /// Convenience: compute distances for frames, then calibrate.
  double calibrate_on(const std::vector<video::Frame>& frames,
                      video::ObjectClass target);

  const SddConfig& config() const { return config_; }
  void set_delta(double d) { config_.delta_diff = d; }

 private:
  SddConfig config_;
  image::Image reference_;       ///< At SDD feature size, channels kept.
  image::Image reference_gray_;  ///< Luma of reference_, for gray frames.
};

/// What the compressed-domain SDD concluded about a not-yet-decoded frame.
///  * kSkip     — the frame cannot pass pixel SDD: skip decoding entirely.
///  * kPass     — the frame cannot fail pixel SDD: decode it (downstream
///                filters need pixels) but skip the pixel SDD distance.
///  * kFallback — borderline: decode and run pixel SDD, then anchor().
enum class HintDecision : std::uint8_t { kSkip = 0, kPass = 1, kFallback = 2 };

const char* to_string(HintDecision d);

/// The conservative band the engine's hinted ingest runs CompressedSdd with
/// (`hint_relax` below). 1.0 = no band (trust the bound exactly); lower =
/// safer and slower.
inline constexpr double kHintRelax = 0.9;

/// Per-stream decision machine mapping codec residual hints onto the pixel
/// SDD's threshold without decoding.
///
/// Reasoning, in "norm space" (a metric-dependent space where the triangle
/// inequality holds: sqrt(distance) for MSE, the distance itself for NRMSE
/// and SAD): the SDD distance of frame f can differ from that of the last
/// pixel-measured frame (the *anchor*) by at most the accumulated residual
/// norms between them. decide() brackets the unseen frame's distance in
/// [anchor - drift - r, anchor + drift + r] and decides only when the whole
/// bracket clears the threshold by the conservative band `hint_relax`
/// (skip only below delta_diff * hint_relax, pass only above
/// delta_diff / hint_relax). Everything else falls back to pixel SDD, which
/// re-anchors the chain and resets the drift. The resize/gray/gain steps of
/// the pixel SDD make the bound heuristic rather than exact — a change
/// confined to one hint block can alias through the 100x100 resize at up to
/// its local amplitude, so the forward estimate takes the worse of the
/// global residual norm and half the peak-block norm — hence the band, and
/// the >= 0.99 empirical agreement gate (compressed_sdd_agreement).
class CompressedSdd {
 public:
  CompressedSdd(SddMetric metric, double delta_diff, double hint_relax);

  /// Decide the upcoming frame from its residual summary. On kSkip/kPass
  /// the drift widens by the frame's residual norm; on kFallback the caller
  /// must decode, measure pixel SDD, and call anchor() (or invalidate()).
  HintDecision decide(const video::FrameHint& hint);

  /// Record the pixel SDD distance of the frame decide() fell back on.
  void anchor(double pixel_distance);

  /// Drop the anchor (pixel SDD threw, or the chain is otherwise broken);
  /// every decision is kFallback until the next anchor().
  void invalidate() { anchor_norm_ = -1.0; }

 private:
  double residual_norm(const video::FrameHint& hint) const;

  SddMetric metric_;
  double thr_skip_ = 0.0;      ///< Norm of delta_diff * hint_relax.
  double thr_pass_ = 0.0;      ///< Norm of delta_diff / hint_relax.
  double anchor_norm_ = -1.0;  ///< Last pixel distance, in norm space (<0: none).
  double drift_ = 0.0;         ///< Accumulated residual norms since anchor.
};

/// Replay of the CompressedSdd state machine against per-frame pixel SDD
/// over a whole stored video (decisions are deterministic, so this is
/// exactly what the engine's hinted ingest path would decide). Shared by
/// tests and the bench to report the pass/fail agreement.
struct CompressedSddReport {
  std::uint64_t frames = 0;
  std::uint64_t skipped = 0;        ///< kSkip: decode avoided entirely.
  std::uint64_t hint_passes = 0;    ///< kPass: pixel SDD distance avoided.
  std::uint64_t fallbacks = 0;      ///< kFallback: decoded + pixel SDD.
  std::uint64_t disagreements = 0;  ///< Hint verdict != pixel verdict.
  double agreement() const {
    return frames ? 1.0 - static_cast<double>(disagreements) /
                              static_cast<double>(frames)
                  : 1.0;
  }
};

CompressedSddReport compressed_sdd_agreement(const video::StoredVideo& video,
                                             const SddFilter& sdd,
                                             double hint_relax);

}  // namespace ffsva::detect
