// Lock-free metrics registry: named counters, gauges, and histograms whose
// hot-path recording is wait-free and allocation-free, with
// snapshot-on-demand merge for samplers and control planes.
//
// The engine's control decisions (feedback throttling, `num_tyolo`
// scheduling, Section 4.3.1 re-forwarding) all hinge on runtime signals —
// queue depths, per-stage service rates, drop rates — that must be
// observable *while the pipeline runs*, at a cost the pipeline cannot feel.
// The design follows the usual production-telemetry split:
//
//  * Counter   — monotonic event count. add() is one relaxed fetch_add on
//    a single atomic cell; value() is one relaxed load. Per-frame counts
//    live in the engine's per-stream atomics and reach the registry as
//    read functions, so the counters that still take add() have one writer
//    thread each. Totals are exact once writers quiesce and monotonically
//    non-decreasing while they run.
//  * Gauge     — an instantaneous value polled at snapshot time via a
//    callback (a queue depth, a cumulative counter kept elsewhere as an
//    atomic). Registering costs a lock; the hot path never sees a gauge.
//  * AtomicHistogram — log-bucketed distribution (the exact bucketing
//    scheme of runtime::Histogram) over shared atomic buckets. record() is
//    relaxed fetch_adds plus CAS min/max — lock-free and alloc-free;
//    batch-size and service-time distributions record at batch rate, so
//    bucket contention is negligible.
//
// Registration (counter()/gauge()/histogram()) takes the registry mutex and
// may allocate; callers hold the returned reference, which stays valid for
// the registry's lifetime. snapshot() walks everything under the same mutex
// and returns plain merged values.
//
// relaxed-ok: counter cells, histogram buckets, and min/max cells are
// independent monotonic accumulators; snapshot() is documented approximate
// while writers run and exact once they quiesce (a join edge, not an
// ordering edge, makes it exact).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/annotations.hpp"
#include "runtime/stats.hpp"

namespace ffsva::telemetry {

/// Small dense id for the calling thread, assigned on first use; the trace
/// recorder's tid.
std::uint32_t thread_slot();

/// Monotonic event counter: one relaxed atomic. A counter given a read
/// function instead reports that function's value (a count kept elsewhere,
/// e.g. in per-stream atomics or a histogram's count) and ignores add().
class Counter {
 public:
  using Fn = std::function<std::uint64_t()>;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Wait-free, alloc-free; safe from any thread.
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }

  void set_fn(Fn fn) { fn_ = std::move(fn); }

  /// Total so far. Exact once writers quiesce; while they run, a value
  /// that never decreases and never exceeds the true count at read time.
  std::uint64_t value() const {
    return fn_ ? fn_() : v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
  Fn fn_;
};

/// Instantaneous value, read via callback at snapshot time only.
class Gauge {
 public:
  using Fn = std::function<double()>;

  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set_fn(Fn fn) { fn_ = std::move(fn); }
  double value() const { return fn_ ? fn_() : 0.0; }

 private:
  Fn fn_;
};

/// Log-bucketed histogram over shared atomic buckets. record() is lock-free
/// and alloc-free from any thread; snapshot() is a relaxed walk into a plain
/// runtime::Histogram that is exact once writers quiesce.
class AtomicHistogram {
 public:
  AtomicHistogram();
  AtomicHistogram(const AtomicHistogram&) = delete;
  AtomicHistogram& operator=(const AtomicHistogram&) = delete;

  void record(double value);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  runtime::Histogram snapshot() const;

 private:
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Everything the registry holds, merged into plain values. Entries are
/// sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, runtime::Histogram>> histograms;

  std::uint64_t counter_or(std::string_view name, std::uint64_t fallback = 0) const;
  double gauge_or(std::string_view name, double fallback = 0.0) const;
  const runtime::Histogram* histogram(std::string_view name) const;
};

/// Named metric registry. Handles returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime; repeated registration of a name
/// returns the same instance (a counter's or gauge's read function is
/// replaced if a new one is supplied). A counter registered with a read
/// function is polled at snapshot time like a gauge but exported in the
/// counters section, so rates are computed for it.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, Counter::Fn fn = nullptr)
      FFSVA_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name, Gauge::Fn fn = nullptr)
      FFSVA_EXCLUDES(mu_);
  AtomicHistogram& histogram(const std::string& name) FFSVA_EXCLUDES(mu_);

  /// Merge every metric into plain values. Safe concurrently with recording
  /// (counters/histograms are relaxed reads); counter and gauge read
  /// functions run on the calling thread and must themselves be thread-safe.
  MetricsSnapshot snapshot() const FFSVA_EXCLUDES(mu_);

 private:
  // Held across gauge callbacks in snapshot(): anything a callback locks
  // (queue depths, pool state) must rank higher than this.
  mutable runtime::Mutex mu_{runtime::rank::kTelemetryRegistry,
                             "telemetry::Registry::mu_"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ FFSVA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ FFSVA_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<AtomicHistogram>> histograms_
      FFSVA_GUARDED_BY(mu_);
};

}  // namespace ffsva::telemetry
