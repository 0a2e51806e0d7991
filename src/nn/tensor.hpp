// Dense float tensor in NCHW layout.
//
// This is the numeric substrate for the stream-specialized network model
// (SNM): a 3-layer CNN (CONV, CONV, FC — paper Section 3.2.2) trained per
// stream with SGD (Section 2.1 / 4.1). The implementation favours clarity
// and testability (every layer is verified against numerical gradients)
// over raw speed; SNM inputs are 50x50, so naive im2col+GEMM is microseconds
// per frame.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace ffsva::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int n, int c, int h, int w)
      : shape_{n, c, h, w},
        data_(static_cast<std::size_t>(n) * c * h * w, 0.0f) {
    assert(n >= 0 && c >= 0 && h >= 0 && w >= 0);
  }

  static Tensor zeros_like(const Tensor& t) {
    return Tensor(t.n(), t.c(), t.h(), t.w());
  }

  int n() const { return shape_[0]; }
  int c() const { return shape_[1]; }
  int h() const { return shape_[2]; }
  int w() const { return shape_[3]; }
  const std::array<int, 4>& shape() const { return shape_; }
  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(int n, int c, int h, int w) {
    return data_[index(n, c, h, w)];
  }
  float at(int n, int c, int h, int w) const {
    return data_[index(n, c, h, w)];
  }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape in place, reusing the existing allocation when capacity
  /// allows — repeated resizes to previously seen sizes are free, which is
  /// what the zero-allocation inference path relies on. Element contents
  /// are unspecified after a size change.
  void resize(int n, int c, int h, int w) {
    assert(n >= 0 && c >= 0 && h >= 0 && w >= 0);
    shape_ = {n, c, h, w};
    data_.resize(static_cast<std::size_t>(n) * c * h * w);
  }

  /// In-place axpy: this += alpha * other. Shapes must match.
  void axpy(float alpha, const Tensor& other);

  /// Scale all elements.
  void scale(float alpha);

  double sum() const;
  double abs_max() const;

 private:
  std::size_t index(int n, int c, int h, int w) const {
    assert(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] && h >= 0 &&
           h < shape_[2] && w >= 0 && w < shape_[3]);
    return ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) * shape_[3] +
           w;
  }

  std::array<int, 4> shape_{0, 0, 0, 0};
  std::vector<float> data_;
};

/// Binary (de)serialization of raw values; shape must already match on load.
void write_tensor(std::ostream& os, const Tensor& t);
void read_tensor_values(std::istream& is, Tensor& t);

}  // namespace ffsva::nn
