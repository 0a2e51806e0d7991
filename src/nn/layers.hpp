// The SNM's layers (paper Section 3.2.2: CONV, CONV, FC with ReLUs between)
// and the Sequential container that runs them.
//
// Each layer has one forward, into a caller-owned output, which training
// and inference share. With `train` set, a layer also caches what it needs
// for backward(); backward() returns the gradient w.r.t. the input and
// accumulates parameter gradients, which the optimizer consumes and zeroes.
// All backward implementations are validated against central-difference
// numerical gradients in the tests.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/tensor.hpp"
#include "runtime/rng.hpp"

namespace ffsva::nn {

/// A trainable parameter: value and accumulated gradient.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Reusable buffers for Sequential::forward(): GEMM packing / im2col
/// staging plus the two ping-pong activation tensors the layer chain
/// alternates between. After one warming forward per input shape, every
/// buffer has reached its steady-state capacity and repeated inference
/// performs zero heap allocations.
struct ForwardScratch {
  GemmScratch gemm;
  Tensor acts[2];
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward into a caller-owned output (x and y must be distinct).
  /// Allocation-free once y and ws are warm and `train` is off; with
  /// `train` set, the layer also caches its input for backward().
  virtual void forward(const Tensor& x, Tensor& y, GemmScratch& ws, bool train) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;
  virtual std::vector<Param> params() { return {}; }
  virtual std::string name() const = 0;
};

/// 2-D convolution (im2col + GEMM, nn/gemm.hpp), zero padding, square kernel.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         runtime::Xoshiro256& rng);

  void forward(const Tensor& x, Tensor& y, GemmScratch& ws, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param> params() override;
  std::string name() const override { return "conv2d"; }

  Tensor weight;  ///< [out_ch, in_ch, k, k]
  Tensor bias;    ///< [out_ch, 1, 1, 1]
  Tensor weight_grad;
  Tensor bias_grad;

 private:
  int in_ch_, out_ch_, kernel_, stride_, pad_;
  Tensor cached_input_;
};

/// Fully connected layer; flattens C*H*W of its input.
class Linear final : public Layer {
 public:
  Linear(int in_features, int out_features, runtime::Xoshiro256& rng);

  void forward(const Tensor& x, Tensor& y, GemmScratch& ws, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param> params() override;
  std::string name() const override { return "linear"; }

  Tensor weight;  ///< [out, in, 1, 1]
  Tensor bias;    ///< [out, 1, 1, 1]
  Tensor weight_grad;
  Tensor bias_grad;

 private:
  int in_features_, out_features_;
  Tensor cached_input_;
};

class ReLU final : public Layer {
 public:
  void forward(const Tensor& x, Tensor& y, GemmScratch& ws, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_input_;
};

/// Layer pipeline with parameter-level (de)serialization.
class Sequential {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  /// Runs every layer's forward() through the scratch's ping-pong
  /// activation buffers and returns a reference to the last one. Zero heap
  /// allocations once ws is warm for the input shape and `train` is off.
  /// The reference is invalidated by the next forward on the same scratch.
  const Tensor& forward(const Tensor& x, ForwardScratch& ws, bool train = false);
  /// Backprop from dLoss/dOutput; returns dLoss/dInput.
  Tensor backward(const Tensor& grad_out);

  std::vector<Param> params();

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// Total trainable scalar count.
  std::size_t num_parameters();

  /// Parameter-only serialization; the architecture must be rebuilt
  /// identically before load (the SNM architecture is fixed per Sec. 3.2.2).
  void save(std::ostream& os);
  void load(std::istream& is);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace ffsva::nn
