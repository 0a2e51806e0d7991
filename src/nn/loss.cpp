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

}  // namespace ffsva::nn
