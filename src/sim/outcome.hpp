// Per-frame filter outcomes for the simulator.
//
// The simulator needs to know, for each simulated frame, which cascade
// stage (if any) filters it. Two sources:
//
//  * TraceOutcomes replays a real trace recorded by core::record_trace over
//    the synthetic video with the real filters — scene structure and
//    burstiness are preserved exactly.
//  * MarkovOutcomes generates outcomes from a two-state (in-scene /
//    background) Markov chain with per-state conditional pass rates,
//    calibrated from measured traces. This is what makes wide TOR sweeps
//    (Figure 6a: TOR 0.05..1.0) affordable: the chain preserves the
//    scene-length burstiness that drives queue dynamics, while its
//    stationary target-frame fraction equals the requested TOR.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/trace.hpp"
#include "runtime/rng.hpp"

namespace ffsva::sim {

class OutcomeSource {
 public:
  virtual ~OutcomeSource() = default;
  /// Outcome for the next frame of this stream.
  virtual core::FilteredAt next() = 0;
};

/// Replays recorded outcomes, looping, starting at `offset` (different
/// streams replay the same trace out of phase).
class TraceOutcomes final : public OutcomeSource {
 public:
  TraceOutcomes(std::shared_ptr<const std::vector<core::FilteredAt>> outcomes,
                std::size_t offset)
      : outcomes_(std::move(outcomes)),
        pos_(outcomes_->empty() ? 0 : offset % outcomes_->size()) {}

  core::FilteredAt next() override {
    if (outcomes_->empty()) return core::FilteredAt::kSdd;
    const auto v = (*outcomes_)[pos_];
    pos_ = (pos_ + 1) % outcomes_->size();
    return v;
  }

 private:
  std::shared_ptr<const std::vector<core::FilteredAt>> outcomes_;
  std::size_t pos_;
};

/// Convert a recorded trace + thresholds into an outcome sequence.
std::vector<core::FilteredAt> outcomes_from_trace(
    const std::vector<core::FrameRecord>& records,
    const core::CascadeThresholds& thresholds);

/// Two-state Markov outcome generator.
struct MarkovParams {
  double tor = 0.10;              ///< Stationary fraction of in-scene frames.
  double mean_scene_len = 100.0;  ///< Mean in-scene run length (frames).
  // Conditional pass rates, in-scene vs background:
  double sdd_in = 0.99, sdd_out = 0.35;   ///< P(pass SDD | state)
  double snm_in = 0.95, snm_out = 0.12;   ///< P(pass SNM | passed SDD, state)
  double ty_in = 0.90, ty_out = 0.10;     ///< P(pass T-YOLO | passed SNM, state)

  /// Default calibration for a requested TOR, interpolated from traces of
  /// the jackson/coral workloads (see bench_fig5 / EXPERIMENTS.md).
  static MarkovParams for_tor(double tor, int number_of_objects = 1);

  /// Calibrate from a real recorded trace: in-scene/background state comes
  /// from ground truth, the conditional pass rates from applying the given
  /// thresholds to the recorded filter quantities. This is how the
  /// performance benches tie the queueing simulation to the real filters.
  static MarkovParams from_trace(const std::vector<core::FrameRecord>& records,
                                 const core::CascadeThresholds& thresholds);
};

class MarkovOutcomes final : public OutcomeSource {
 public:
  MarkovOutcomes(const MarkovParams& params, std::uint64_t seed);

  core::FilteredAt next() override;

  bool in_scene() const { return in_scene_; }

 private:
  MarkovParams p_;
  runtime::Xoshiro256 rng_;
  bool in_scene_ = false;
  double p_enter_ = 0.0;  ///< P(background -> scene) per frame.
  double p_leave_ = 0.0;  ///< P(scene -> background) per frame.
};

}  // namespace ffsva::sim
