#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace ffsva::nn {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double bce_with_logits(const Tensor& logits, const std::vector<float>& targets,
                       Tensor& grad) {
  const int n = logits.n();
  if (static_cast<int>(targets.size()) != n || logits.c() != 1) {
    throw std::invalid_argument("bce_with_logits: shape mismatch");
  }
  grad = Tensor::zeros_like(logits);
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = logits.at(i, 0, 0, 0);
    const double y = targets[static_cast<std::size_t>(i)];
    // log(1 + e^z) computed stably.
    const double log1pez =
        z > 0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
    loss += log1pez - y * z;
    grad.at(i, 0, 0, 0) = static_cast<float>((sigmoid(z) - y) / n);
  }
  return loss / n;
}

double softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                             Tensor& grad) {
  const int n = logits.n(), c = logits.c();
  if (static_cast<int>(labels.size()) != n) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  grad = Tensor::zeros_like(logits);
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    double mx = -1e30;
    for (int k = 0; k < c; ++k)
      mx = std::max(mx, static_cast<double>(logits.at(i, k, 0, 0)));
    double denom = 0.0;
    for (int k = 0; k < c; ++k) denom += std::exp(logits.at(i, k, 0, 0) - mx);
    const int label = labels[static_cast<std::size_t>(i)];
    if (label < 0 || label >= c) throw std::invalid_argument("label out of range");
    const double logp =
        logits.at(i, label, 0, 0) - mx - std::log(denom);
    loss -= logp;
    for (int k = 0; k < c; ++k) {
      const double p = std::exp(logits.at(i, k, 0, 0) - mx) / denom;
      grad.at(i, k, 0, 0) = static_cast<float>((p - (k == label ? 1.0 : 0.0)) / n);
    }
  }
  return loss / n;
}

}  // namespace ffsva::nn
