// Latency / throughput statistics used by both the threaded engine and the
// discrete-event simulator.
//
// Histogram uses logarithmic bucketing (HdrHistogram-style, 32 sub-buckets
// per octave) so that recording is O(1), memory is bounded, and percentile
// error is < ~3% across nanoseconds-to-minutes ranges — good enough for the
// p50/p99 tables in EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ffsva::runtime {

/// Log-bucketed histogram over non-negative values (typically milliseconds).
/// A plain value: the fields are the whole state, so the telemetry
/// registry's AtomicHistogram snapshots into this type and every consumer
/// merges and reads one shape.
struct Histogram {
  static constexpr int kSubBucketsLog2 = 5;  // 32 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketsLog2;
  static constexpr std::size_t kBuckets = 64 * kSubBuckets;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 while empty.
  double max = 0.0;  ///< 0 while empty.
  std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(kBuckets);

  void add(double value);
  void merge(const Histogram& other);

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

  /// Value at quantile q in [0, 1]; returns the representative value of the
  /// bucket containing the q-th sample, clamped into [min, max].
  double quantile(double q) const;

  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }

  /// The bucketing scheme, exposed so other recorders (the telemetry
  /// registry's lock-free AtomicHistogram) can share it and stay mergeable
  /// with this type bucket-for-bucket.
  static std::size_t bucket_index(double value);
  static double bucket_value(std::size_t index);
};

/// Per-stage pipeline counters: frames in, frames passed, frames filtered.
struct StageCounters {
  std::uint64_t in = 0;
  std::uint64_t passed = 0;

  std::uint64_t filtered() const { return in - passed; }
  double pass_rate() const {
    return in ? static_cast<double>(passed) / static_cast<double>(in) : 0.0;
  }
  bool operator==(const StageCounters&) const = default;
};

}  // namespace ffsva::runtime
