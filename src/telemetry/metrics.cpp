// relaxed-ok: see telemetry/metrics.hpp — relaxed accumulators whose
// snapshots are approximate-until-quiesce by contract.
#include "telemetry/metrics.hpp"

#include <algorithm>

namespace ffsva::telemetry {

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

AtomicHistogram::AtomicHistogram()
    : buckets_(runtime::Histogram::kBuckets) {}

void AtomicHistogram::record(double value) {
  // min_/max_ start at +inf/-inf, so every record, the first included, is
  // one CAS fold each: concurrent first records cannot lose an extreme.
  double cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  const std::size_t idx =
      std::min(runtime::Histogram::bucket_index(value), buckets_.size() - 1);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

runtime::Histogram AtomicHistogram::snapshot() const {
  runtime::Histogram s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  // Nothing folded yet (or a snapshot racing a record's folds): report the
  // empty range, so quantile() never clamps into min > max.
  if (s.min > s.max) s.min = s.max = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

double MetricsSnapshot::gauge_or(std::string_view name, double fallback) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return fallback;
}

const runtime::Histogram* MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

Counter& Registry::counter(const std::string& name, Counter::Fn fn) {
  runtime::MutexLock lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  if (fn) slot->set_fn(std::move(fn));
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, Gauge::Fn fn) {
  runtime::MutexLock lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  if (fn) slot->set_fn(std::move(fn));
  return *slot;
}

AtomicHistogram& Registry::histogram(const std::string& name) {
  runtime::MutexLock lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<AtomicHistogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  runtime::MutexLock lk(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h->snapshot());
  }
  return s;
}

}  // namespace ffsva::telemetry
