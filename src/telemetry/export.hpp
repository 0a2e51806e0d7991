// Live metrics export: a runtime::Watchdog tick that periodically snapshots
// a Registry and appends one JSON object per sample to a sink (JSONL).
//
// Each row carries the sample time, every counter (cumulative), per-counter
// rates over the sampling interval (this is where per-stage FPS and drop
// rates come from), every gauge (instantaneous: queue depths, prefetch-side
// cumulative counters kept as stream atomics), and a summary of every
// histogram (count/mean/p50/p99/max). The sampler takes one final sample on
// stop(), so short runs still produce at least one row.
//
// The exporter owns no metric state — it is safe to start before the
// pipeline's threads and must be stopped before the Registry (or anything
// its gauge callbacks read) is destroyed.
//
// relaxed-ok: samples_ is a monotonic progress counter polled by tests;
// the sampler's state is otherwise confined to the watchdog's thread and
// the start/stop join edges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>

#include "runtime/supervision.hpp"
#include "telemetry/metrics.hpp"

namespace ffsva::telemetry {

/// Serialize one sample as a single-line JSON object (no trailing newline).
/// `dt_sec` is the time since the previous sample (rates denominator);
/// `prev` may be null for the first sample (rates then span [0, t]).
/// `node_id` >= 0 stamps a `"node_id"` field into the row, so rows from
/// several cluster nodes can share one archive and still be attributed.
std::string metrics_jsonl_row(const MetricsSnapshot& cur,
                              const MetricsSnapshot* prev, double t_sec,
                              double dt_sec, const std::string& label,
                              int node_id = -1);

class MetricsExporter {
 public:
  explicit MetricsExporter(Registry& registry) : registry_(registry) {}
  ~MetricsExporter() { stop(); }

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Start sampling every `interval_ms` into a caller-owned stream (must
  /// outlive stop()). Open a file in append mode to let one archive hold
  /// several runs. A null sink starts nothing.
  void start_stream(std::ostream* sink, int interval_ms, std::string label = {});

  /// Stop the sampler: takes one final sample, flushes, joins. Idempotent.
  void stop();

  /// Stamp every row with a cluster node id (DESIGN.md §15). Call before
  /// start; negative (the default) omits the field.
  void set_node_id(int id) { node_id_ = id; }

  bool running() const { return watchdog_.running(); }
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void sample_once();

  Registry& registry_;
  // Sink plumbing and sample history are written by start_stream()/stop()
  // and the watchdog's thread, ordered by its thread create/join edges.
  std::ostream* sink_ = nullptr;
  std::string label_;
  int node_id_ = -1;
  std::atomic<std::uint64_t> samples_{0};
  bool have_prev_ = false;
  MetricsSnapshot prev_;
  double prev_t_sec_ = 0.0;
  std::chrono::steady_clock::time_point t0_;
  runtime::Watchdog watchdog_;
};

}  // namespace ffsva::telemetry
