#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "runtime/binary_io.hpp"

namespace ffsva::nn {

void Tensor::scale(float alpha) {
  for (auto& v : data_) v *= alpha;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

double Tensor::abs_max() const {
  double m = 0.0;
  for (float v : data_) m = std::max(m, static_cast<double>(std::fabs(v)));
  return m;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  const auto& s = t.shape();
  runtime::write_pod(os, s.data(), s.size());
  runtime::write_pod(os, t.data(), t.size());
}

void read_tensor_values(std::istream& is, Tensor& t) {
  std::array<int, 4> s{};
  if (!runtime::read_pod(is, s.data(), s.size()) || s != t.shape()) {
    throw std::runtime_error("tensor shape mismatch on load");
  }
  if (!runtime::read_pod(is, t.data(), t.size())) {
    throw std::runtime_error("truncated tensor data on load");
  }
}

}  // namespace ffsva::nn
