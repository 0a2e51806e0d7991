// SNM — stream-specialized network model (paper Sections 2.1, 3.2.2, 4.2.1).
//
// A 3-layer CNN (CONV, CONV, FC) binary classifier over a 50x50 input that
// predicts the probability c that the stream's target object appears in a
// frame. The input is the resized gray frame differenced against the
// stream's background: a fixed-viewpoint camera means the motion silhouette
// is the discriminative signal, which is why a model this small reaches
// >95% accuracy on its own stream (Section 3.2.2).
//
// Inference-side semantics follow Section 4.2.1 exactly:
//
//     t_pre = (c_high - c_low) * FilterDegree + c_low
//     pass  <=>  c >= t_pre
//
// where [c_low, c_high] is selected on held-out data during specialization
// (Section 4.1): below c_low (almost) no positives occur, above c_high
// (almost) no negatives.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "image/image.hpp"
#include "nn/layers.hpp"
#include "video/frame.hpp"

namespace ffsva::detect {

struct SnmConfig {
  int input_size = 50;         ///< SNM feature size (50x50, Section 3.2.2).
  int conv1_filters = 8;
  int conv2_filters = 16;
  double c_low = 0.3;
  double c_high = 0.7;
  double filter_degree = 0.5;  ///< User knob in [0, 1] (Section 4.2.1).
  // Threshold-selection quantiles: c_low keeps all but this share of
  // positives above it; c_high keeps all but this share of negatives below.
  double threshold_tail = 0.02;
  /// Relaxed filtering (Section 3.3): scale the selected c_low down so the
  /// operating band sits "slightly below the target threshold" — frames the
  /// calibration window never showed (weaker, smaller targets) still get a
  /// chance at the follow-up filters.
  double c_low_relax = 0.75;
  // Training hyperparameters.
  int epochs = 10;
  int batch_size = 16;
  double lr = 0.02;
  double lr_decay = 0.85;      ///< Per-epoch multiplicative decay.
  // Train-time augmentation: random shifts (pixels, on the 50x50 input),
  // horizontal flips, and scale jitter. A fixed-viewpoint camera sees the
  // same objects at many positions and apparent sizes over a day; a short
  // calibration window does not, so the augmentation supplies the variety
  // the window lacks.
  int augment_shift = 4;
  bool augment_flip = true;
  double augment_scale = 0.30;  ///< Scale factor drawn from 1 +- this.
};

/// What one filter instance needs for allocation-free scoring and
/// prediction: prepared-input staging for predict()/predict_batch(), the
/// network input tensor, and the Sequential inference workspace. Warm after
/// one call per batch size.
struct SnmScratch {
  std::vector<std::vector<float>> prepared;
  std::vector<const float*> inputs;
  std::vector<double> scores;
  nn::Tensor input;
  nn::ForwardScratch net;
};

struct SnmTrainReport {
  double final_loss = 0.0;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
  double c_low = 0.0;
  double c_high = 0.0;
  int positives = 0;
  int negatives = 0;
};

class SnmFilter {
 public:
  SnmFilter(SnmConfig config, const image::Image& background, std::uint64_t seed);

  /// The frame's network input (the input_size^2 difference map against
  /// the background), written to `out`. Const and safe to call
  /// concurrently, also on one shared instance: its staging is per
  /// thread. Fires no fault hook; the scoring call does.
  void prepare(const image::Image& frame, std::vector<float>& out) const;

  /// Score prepared inputs (each from prepare()) as one batch — the unit the
  /// dynamic batcher feeds to the GPU: scores[i] is the predicted
  /// probability c for inputs[i]. Allocation-free once `scores` and the
  /// instance's scratch are warm. Not safe for concurrent calls on one
  /// instance (the GPU0 executor is its one caller in the engine).
  void score(std::span<const float* const> inputs, std::vector<double>& scores) const;

  /// Predicted probability that the frame contains the target object:
  /// prepare() + score() on one frame. Not safe for concurrent calls on one
  /// instance.
  double predict(const image::Image& frame) const;

  /// prepare() over the frames, spread across the compute pool, + score().
  std::vector<double> predict_batch(
      const std::vector<const image::Image*>& frames) const;

  /// The cascade predicate (Section 4.2.1).
  bool pass(const image::Image& frame) const { return predict(frame) >= t_pre(); }

  double t_pre() const {
    return (config_.c_high - config_.c_low) * config_.filter_degree + config_.c_low;
  }
  void set_filter_degree(double fd);
  void set_thresholds(double c_low, double c_high);

  /// Train on labeled frames (labels from the reference model per Section
  /// 4.1), then select [c_low, c_high] on the validation split.
  /// `val_fraction` of the data is held out.
  SnmTrainReport train(const std::vector<video::Frame>& frames,
                       const std::vector<bool>& labels, double val_fraction = 0.25);

  /// Parameter + threshold (de)serialization.
  void save(std::ostream& os) const;
  void load(std::istream& is);

  const SnmConfig& config() const { return config_; }
  std::size_t num_parameters() const { return net_->num_parameters(); }

  /// Direct access to the network, e.g. for compression (nn/compress.hpp)
  /// per the paper's Section 5.5 remedy.
  nn::Sequential& network() { return *net_; }

 private:
  /// prepare() over the frames into scratch_.prepared, spread across the
  /// compute pool.
  void prepare_all(const std::vector<const image::Image*>& frames) const;
  nn::Tensor preprocess_batch(const std::vector<const image::Image*>& frames) const;
  /// Training-only: preprocess with a random shift/flip per sample.
  nn::Tensor preprocess_batch_augmented(const std::vector<const image::Image*>& frames,
                                        runtime::Xoshiro256& rng) const;
  void select_thresholds(const std::vector<double>& scores,
                         const std::vector<bool>& labels);

  SnmConfig config_;
  image::Image background_small_;           ///< Gray at input_size.
  mutable std::unique_ptr<nn::Sequential> net_;
  int fc_features_ = 0;
  /// Warm buffers for the allocation-free scoring path. Safe as a member
  /// because score() is never called concurrently on one instance.
  mutable SnmScratch scratch_;
};

}  // namespace ffsva::detect
