// Latency / throughput statistics used by both the threaded engine and the
// discrete-event simulator.
//
// Histogram uses logarithmic bucketing (HdrHistogram-style, 32 sub-buckets
// per octave) so that recording is O(1), memory is bounded, and percentile
// error is < ~3% across nanoseconds-to-minutes ranges — good enough for the
// p50/p90/p99 tables in EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ffsva::runtime {

/// Running scalar summary: count / mean / min / max / variance (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-bucketed histogram over non-negative values (typically microseconds).
class Histogram {
 public:
  Histogram();

  void add(double value);
  void merge(const Histogram& other);

  std::uint64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }

  /// Value at quantile q in [0, 1]; returns the representative value of the
  /// bucket containing the q-th sample.
  double quantile(double q) const;

  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  /// One-line summary, e.g. "n=1000 mean=3.2 p50=3.0 p99=9.7 max=12.1".
  std::string summary() const;

  static constexpr int kSubBucketsLog2 = 5;  // 32 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketsLog2;
  static constexpr std::size_t kBuckets = 64 * kSubBuckets;

  /// The bucketing scheme, exposed so other recorders (the telemetry
  /// registry's lock-free AtomicHistogram) can share it and stay mergeable
  /// with this class bucket-for-bucket.
  static std::size_t bucket_index(double value);
  static double bucket_value(std::size_t index);

 private:
  std::vector<std::uint64_t> buckets_;
  RunningStats stats_;
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
