#include "nn/optim.hpp"

namespace ffsva::nn {

Sgd::Sgd(std::vector<Param> params, Options opts)
    : params_(std::move(params)), opts_(opts) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_) velocity_.push_back(Tensor::zeros_like(*p.value));
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& v = velocity_[i];
    Tensor& val = *params_[i].value;
    Tensor& g = *params_[i].grad;
    for (std::size_t j = 0; j < val.size(); ++j) {
      const float grad = g[j] + static_cast<float>(opts_.weight_decay) * val[j];
      v[j] = static_cast<float>(opts_.momentum) * v[j] -
             static_cast<float>(opts_.lr) * grad;
      val[j] += v[j];
    }
    g.fill(0.0f);
  }
}

}  // namespace ffsva::nn
