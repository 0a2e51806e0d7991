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

/// acc + w.x in index order: the reduction training uses. The specialised
/// SNM weights are trained on this order, so another one would move them.
float dot_serial(const float* w, const float* x, int n, float acc) {
  for (int i = 0; i < n; ++i) acc += w[i] * x[i];
  return acc;
}

/// acc + w.x over eight explicit partial sums: the reduction inference
/// uses. A single-accumulator FP reduction cannot be vectorized without
/// reassociation, which -O3 alone does not grant, and GPU0 runs this for
/// every frame; another order would move its scores and its time.
float dot_partial8(const float* w, const float* x, int n, float acc) {
  float part[8] = {};
  const int tail = n & ~7;
  for (int i = 0; i < tail; i += 8) {
    for (int u = 0; u < 8; ++u) part[u] += w[i + u] * x[i + u];
  }
  for (int i = tail; i < n; ++i) acc += w[i] * x[i];
  return acc + (((part[0] + part[1]) + (part[2] + part[3])) +
                ((part[4] + part[5]) + (part[6] + part[7])));
}
}  // namespace

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

void Conv2d::forward(const Tensor& x, Tensor& y, GemmScratch& ws, bool train) {
  if (x.c() != in_ch_) throw std::invalid_argument("Conv2d: channel mismatch");
  if (train) cached_input_ = x;
  conv2d_im2col_into(x, weight, bias, stride_, pad_, y, ws);
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

std::vector<Param> Conv2d::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
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

void Linear::forward(const Tensor& x, Tensor& y, GemmScratch&, bool train) {
  const int feat = x.c() * x.h() * x.w();
  if (feat != in_features_) throw std::invalid_argument("Linear: feature mismatch");
  if (train) cached_input_ = x;
  y.resize(x.n(), out_features_, 1, 1);
  const float* xd = x.data();
  for (int n = 0; n < x.n(); ++n) {
    const float* xin = xd + static_cast<std::size_t>(n) * feat;
    for (int o = 0; o < out_features_; ++o) {
      const float* wrow = weight.data() + static_cast<std::size_t>(o) * in_features_;
      // Training and inference keep their own reduction orders (above).
      const float b = bias.at(o, 0, 0, 0);
      y.at(n, o, 0, 0) = train ? dot_serial(wrow, xin, in_features_, b)
                               : dot_partial8(wrow, xin, in_features_, b);
    }
  }
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

std::vector<Param> Linear::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
}

// ------------------------------------------------------------ activations --

void ReLU::forward(const Tensor& x, Tensor& y, GemmScratch&, bool train) {
  if (train) cached_input_ = x;
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

// ------------------------------------------------------------- Sequential --

const Tensor& Sequential::forward(const Tensor& x, ForwardScratch& ws, bool train) {
  if (layers_.empty()) {
    ws.acts[0] = x;
    return ws.acts[0];
  }
  const Tensor* cur = &x;
  int slot = 0;
  for (auto& l : layers_) {
    // Cancellation boundary between layers: layers whose kernels have no
    // internal check (activations, the linear head) still unwind within
    // one layer.
    runtime::check_cancel();
    Tensor& out = ws.acts[slot];
    l->forward(*cur, out, ws.gemm, train);
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
