#include "runtime/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ffsva::runtime {

std::size_t Histogram::bucket_index(double value) {
  if (!(value > 1.0)) return 0;  // [0,1] and NaN land in bucket 0
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5,1)
  // Octave = exp-1; position within octave from the fraction.
  const int octave = std::clamp(exp - 1, 0, 62);
  const int sub = std::clamp(
      static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets), 0, kSubBuckets - 1);
  return static_cast<std::size_t>(octave * kSubBuckets + sub) + 1;
}

double Histogram::bucket_value(std::size_t index) {
  if (index == 0) return 0.5;
  const std::size_t i = index - 1;
  const auto octave = static_cast<int>(i / kSubBuckets);
  const auto sub = static_cast<int>(i % kSubBuckets);
  const double frac = 0.5 + (static_cast<double>(sub) + 0.5) / (2.0 * kSubBuckets);
  return std::ldexp(frac, octave + 1);
}

void Histogram::add(double value) {
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[std::min(bucket_index(value), kBuckets - 1)];
}

void Histogram::merge(const Histogram& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen > target) {
      // Clamp the bucket's representative value into the observed range so
      // bucketing error never reports beyond min/max.
      return std::clamp(bucket_value(i), min, max);
    }
  }
  return max;
}

}  // namespace ffsva::runtime
