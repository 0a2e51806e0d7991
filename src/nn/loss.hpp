// Losses. SNM is a binary classifier ("a predicted probability c of the
// target object appearing in the frame", Section 2.1), trained with
// binary cross-entropy on logits for numerical stability.
#pragma once

#include "nn/tensor.hpp"

namespace ffsva::nn {

/// Numerically stable BCE-with-logits.
/// `logits`: [N,1,1,1]; `targets`: 0/1 per sample.
/// Returns mean loss; fills `grad` (same shape as logits) with
/// dLoss/dLogit, already divided by N.
double bce_with_logits(const Tensor& logits, const std::vector<float>& targets,
                       Tensor& grad);

/// Sigmoid of a scalar logit (the inference-side counterpart of
/// bce_with_logits).
double sigmoid(double x);

}  // namespace ffsva::nn
