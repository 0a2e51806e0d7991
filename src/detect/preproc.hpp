// SNM frame preprocessing (paper Section 3.2.2).
//
// SnmFilter feeds its network this feature: the frame resized to the model
// input size, differenced per pixel against the stream's (pre-resized)
// background with a max-over-channels reduction, scaled to [0, 1] floats.
// This module is that feature computed once, allocation-free on a warm
// scratch, with batches fanned out across the runtime compute pool.
#pragma once

#include <vector>

#include "image/image.hpp"
#include "image/ops.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace ffsva::detect {

/// Per-frame resize staging: plan tables + the resized pixels.
struct PreprocScratch {
  image::ResizePlan plan;
  image::Image resized;
};

/// Everything one filter instance needs for allocation-free inference:
/// preprocessing staging (single + per-frame batch slots), the network
/// input tensor, and the Sequential inference workspace. Warm after one
/// predict per (frame geometry, batch size).
struct SnmScratch {
  PreprocScratch pre;
  std::vector<PreprocScratch> pre_batch;
  nn::Tensor input;
  nn::InferenceScratch net;
};

/// Write the difference map of `frame` against `bg_small` into sample `n`
/// of `out` (which must already be shaped [*, 1, s, s]).
void diff_preprocess(const image::Image& frame, const image::Image& bg_small,
                     int input_size, PreprocScratch& ws, nn::Tensor& out, int n);

/// Batched preprocessing: reshapes `out` to [frames.size(), 1, s, s] and
/// fills every sample, in parallel across the compute pool for larger
/// batches. `slots` grows to one scratch per frame (stable thereafter).
void diff_preprocess_batch(const std::vector<const image::Image*>& frames,
                           const image::Image& bg_small, int input_size,
                           std::vector<PreprocScratch>& slots, nn::Tensor& out);

}  // namespace ffsva::detect
