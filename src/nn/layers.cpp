#include "nn/layers.hpp"

#include "nn/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/cancel.hpp"

namespace ffsva::nn {

namespace {
/// He-normal initialization for ReLU networks.
void he_init(Tensor& t, int fan_in, runtime::Xoshiro256& rng) {
  const double std_dev = std::sqrt(2.0 / std::max(1, fan_in));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal() * std_dev);
  }
}
}  // namespace

void Layer::forward_into(const Tensor& x, Tensor& y, GemmScratch&) {
  y = forward(x, /*train=*/false);
}

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
               runtime::Xoshiro256& rng)
    : weight(out_channels, in_channels, kernel, kernel),
      bias(out_channels, 1, 1, 1),
      weight_grad(out_channels, in_channels, kernel, kernel),
      bias_grad(out_channels, 1, 1, 1),
      in_ch_(in_channels), out_ch_(out_channels), kernel_(kernel),
      stride_(stride), pad_(pad) {
  he_init(weight, in_channels * kernel * kernel, rng);
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.c() != in_ch_) throw std::invalid_argument("Conv2d: channel mismatch");
  if (use_im2col_) {
    if (train) cached_input_ = x;
    return conv2d_im2col(x, weight, bias, stride_, pad_);
  }
  const int oh = out_h(x.h()), ow = out_w(x.w());
  Tensor y(x.n(), out_ch_, oh, ow);
  // Direct convolution: for 50x50-class inputs this is within 2x of an
  // im2col+GEMM and considerably simpler to verify.
  for (int n = 0; n < x.n(); ++n) {
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float b = bias.at(oc, 0, 0, 0);
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float acc = b;
          for (int ic = 0; ic < in_ch_; ++ic) {
            for (int ky = 0; ky < kernel_; ++ky) {
              const int iy = oy * stride_ + ky - pad_;
              if (iy < 0 || iy >= x.h()) continue;
              for (int kx = 0; kx < kernel_; ++kx) {
                const int ix = ox * stride_ + kx - pad_;
                if (ix < 0 || ix >= x.w()) continue;
                acc += weight.at(oc, ic, ky, kx) * x.at(n, ic, iy, ix);
              }
            }
          }
          y.at(n, oc, oy, ox) = acc;
        }
      }
    }
  }
  if (train) cached_input_ = x;
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  Tensor grad_in = Tensor::zeros_like(x);
  for (int n = 0; n < x.n(); ++n) {
    for (int oc = 0; oc < out_ch_; ++oc) {
      for (int oy = 0; oy < grad_out.h(); ++oy) {
        for (int ox = 0; ox < grad_out.w(); ++ox) {
          const float g = grad_out.at(n, oc, oy, ox);
          if (g == 0.0f) continue;
          bias_grad.at(oc, 0, 0, 0) += g;
          for (int ic = 0; ic < in_ch_; ++ic) {
            for (int ky = 0; ky < kernel_; ++ky) {
              const int iy = oy * stride_ + ky - pad_;
              if (iy < 0 || iy >= x.h()) continue;
              for (int kx = 0; kx < kernel_; ++kx) {
                const int ix = ox * stride_ + kx - pad_;
                if (ix < 0 || ix >= x.w()) continue;
                weight_grad.at(oc, ic, ky, kx) += g * x.at(n, ic, iy, ix);
                grad_in.at(n, ic, iy, ix) += g * weight.at(oc, ic, ky, kx);
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void Conv2d::forward_into(const Tensor& x, Tensor& y, GemmScratch& ws) {
  if (x.c() != in_ch_) throw std::invalid_argument("Conv2d: channel mismatch");
  conv2d_im2col_into(x, weight, bias, stride_, pad_, y, ws);
}

std::vector<Param> Conv2d::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
}

// ------------------------------------------------------------- MaxPool2d --

MaxPool2d::MaxPool2d(int kernel, int stride) : kernel_(kernel), stride_(stride) {}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  const int oh = (x.h() - kernel_) / stride_ + 1;
  const int ow = (x.w() - kernel_) / stride_ + 1;
  Tensor y(x.n(), x.c(), oh, ow);
  argmax_.assign(y.size(), 0);
  std::size_t oi = 0;
  for (int n = 0; n < x.n(); ++n) {
    for (int c = 0; c < x.c(); ++c) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::uint32_t best_idx = 0;
          for (int ky = 0; ky < kernel_; ++ky) {
            for (int kx = 0; kx < kernel_; ++kx) {
              const int iy = oy * stride_ + ky;
              const int ix = ox * stride_ + kx;
              const float v = x.at(n, c, iy, ix);
              if (v > best) {
                best = v;
                best_idx = static_cast<std::uint32_t>(
                    ((static_cast<std::size_t>(n) * x.c() + c) * x.h() + iy) * x.w() +
                    ix);
              }
            }
          }
          y.at(n, c, oy, ox) = best;
          argmax_[oi] = best_idx;
        }
      }
    }
  }
  if (train) {
    cached_input_ = x;
  }
  out_shape_ = y.shape();
  return y;
}

void MaxPool2d::forward_into(const Tensor& x, Tensor& y, GemmScratch&) {
  // Inference variant of forward(): no argmax bookkeeping, no input cache.
  const int oh = (x.h() - kernel_) / stride_ + 1;
  const int ow = (x.w() - kernel_) / stride_ + 1;
  y.resize(x.n(), x.c(), oh, ow);
  for (int n = 0; n < x.n(); ++n) {
    for (int c = 0; c < x.c(); ++c) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < kernel_; ++ky) {
            for (int kx = 0; kx < kernel_; ++kx) {
              best = std::max(best, x.at(n, c, oy * stride_ + ky, ox * stride_ + kx));
            }
          }
          y.at(n, c, oy, ox) = best;
        }
      }
    }
  }
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  Tensor grad_in = Tensor::zeros_like(cached_input_);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(int in_features, int out_features, runtime::Xoshiro256& rng)
    : weight(out_features, in_features, 1, 1),
      bias(out_features, 1, 1, 1),
      weight_grad(out_features, in_features, 1, 1),
      bias_grad(out_features, 1, 1, 1),
      in_features_(in_features), out_features_(out_features) {
  he_init(weight, in_features, rng);
}

Tensor Linear::forward(const Tensor& x, bool train) {
  const int feat = x.c() * x.h() * x.w();
  if (feat != in_features_) throw std::invalid_argument("Linear: feature mismatch");
  Tensor y(x.n(), out_features_, 1, 1);
  const float* xd = x.data();
  for (int n = 0; n < x.n(); ++n) {
    const float* xin = xd + static_cast<std::size_t>(n) * feat;
    for (int o = 0; o < out_features_; ++o) {
      const float* wrow = weight.data() + static_cast<std::size_t>(o) * in_features_;
      float acc = bias.at(o, 0, 0, 0);
      for (int i = 0; i < in_features_; ++i) acc += wrow[i] * xin[i];
      y.at(n, o, 0, 0) = acc;
    }
  }
  if (train) cached_input_ = x;
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const int feat = in_features_;
  Tensor grad_in = Tensor::zeros_like(x);
  for (int n = 0; n < x.n(); ++n) {
    const float* xin = x.data() + static_cast<std::size_t>(n) * feat;
    float* gin = grad_in.data() + static_cast<std::size_t>(n) * feat;
    for (int o = 0; o < out_features_; ++o) {
      const float g = grad_out.at(n, o, 0, 0);
      if (g == 0.0f) continue;
      bias_grad.at(o, 0, 0, 0) += g;
      float* wg = weight_grad.data() + static_cast<std::size_t>(o) * feat;
      const float* wrow = weight.data() + static_cast<std::size_t>(o) * feat;
      for (int i = 0; i < feat; ++i) {
        wg[i] += g * xin[i];
        gin[i] += g * wrow[i];
      }
    }
  }
  return grad_in;
}

void Linear::forward_into(const Tensor& x, Tensor& y, GemmScratch&) {
  const int feat = x.c() * x.h() * x.w();
  if (feat != in_features_) throw std::invalid_argument("Linear: feature mismatch");
  y.resize(x.n(), out_features_, 1, 1);
  const float* xd = x.data();
  for (int n = 0; n < x.n(); ++n) {
    const float* xin = xd + static_cast<std::size_t>(n) * feat;
    for (int o = 0; o < out_features_; ++o) {
      const float* wrow = weight.data() + static_cast<std::size_t>(o) * in_features_;
      // Eight explicit partial sums: a single-accumulator FP reduction
      // cannot be vectorized without reassociation, which -O3 alone does
      // not grant. (Inference-only; forward() keeps the serial order the
      // gradient checks expect.)
      float part[8] = {};
      const int tail = in_features_ & ~7;
      for (int i = 0; i < tail; i += 8) {
        for (int u = 0; u < 8; ++u) part[u] += wrow[i + u] * xin[i + u];
      }
      float acc = bias.at(o, 0, 0, 0);
      for (int i = tail; i < in_features_; ++i) acc += wrow[i] * xin[i];
      acc += ((part[0] + part[1]) + (part[2] + part[3])) +
             ((part[4] + part[5]) + (part[6] + part[7]));
      y.at(n, o, 0, 0) = acc;
    }
  }
}

std::vector<Param> Linear::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
}

// ------------------------------------------------------------ activations --

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = std::max(0.0f, y[i]);
  if (train) cached_input_ = x;
  return y;
}

void ReLU::forward_into(const Tensor& x, Tensor& y, GemmScratch&) {
  y.resize(x.n(), x.c(), x.h(), x.w());
  const float* in = x.data();
  float* out = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::max(0.0f, in[i]);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    if (cached_input_[i] <= 0.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

Tensor Sigmoid::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 1.0f / (1.0f + std::exp(-y[i]));
  }
  if (train) cached_output_ = y;
  return y;
}

void Sigmoid::forward_into(const Tensor& x, Tensor& y, GemmScratch&) {
  y.resize(x.n(), x.c(), x.h(), x.w());
  const float* in = x.data();
  float* out = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    const float s = cached_output_[i];
    grad_in[i] *= s * (1.0f - s);
  }
  return grad_in;
}

// ------------------------------------------------------------- Sequential --

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur, train);
  return cur;
}

const Tensor& Sequential::forward_inference(const Tensor& x, InferenceScratch& ws) {
  if (layers_.empty()) {
    ws.acts[0] = x;
    return ws.acts[0];
  }
  const Tensor* cur = &x;
  int slot = 0;
  for (auto& l : layers_) {
    // Cancellation boundary between layers: layers whose kernels have no
    // internal check (activations, pooling) still unwind within one layer.
    runtime::check_cancel();
    Tensor& out = ws.acts[slot];
    l->forward_into(*cur, out, ws.gemm);
    cur = &out;
    slot ^= 1;
  }
  return *cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> out;
  for (auto& l : layers_) {
    auto p = l->params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

void Sequential::zero_grad() {
  for (auto p : params()) p.grad->fill(0.0f);
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (auto p : params()) n += p.value->size();
  return n;
}

void Sequential::save(std::ostream& os) {
  for (auto p : params()) write_tensor(os, *p.value);
}

void Sequential::load(std::istream& is) {
  for (auto p : params()) read_tensor_values(is, *p.value);
}

}  // namespace ffsva::nn
