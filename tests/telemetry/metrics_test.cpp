// Metrics registry: atomic counters, callback gauges, atomic histograms,
// and the snapshot merge — including exactness under concurrent recording
// (writers quiesce => totals exact) and snapshot-while-recording safety,
// which is the registry's whole reason to exist.
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/stats.hpp"

namespace ffsva::telemetry {
namespace {

TEST(Counter, SingleThreadTotals) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, CallbackAndDefault) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);  // no callback yet
  double depth = 3.0;
  g.set_fn([&depth] { return depth; });
  EXPECT_EQ(g.value(), 3.0);
  depth = 7.0;
  EXPECT_EQ(g.value(), 7.0);  // instantaneous, not cached
}

TEST(AtomicHistogram, MatchesRuntimeHistogramBuckets) {
  // The snapshot is a runtime::Histogram equal to one fed the same samples.
  AtomicHistogram ah;
  runtime::Histogram rh;
  for (int i = 1; i <= 1000; ++i) {
    const double v = 0.05 * i;
    ah.record(v);
    rh.add(v);
  }
  const runtime::Histogram snap = ah.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 0.05);
  EXPECT_DOUBLE_EQ(snap.max, 50.0);
  EXPECT_EQ(snap.count, rh.count);
  EXPECT_DOUBLE_EQ(snap.min, rh.min);
  EXPECT_DOUBLE_EQ(snap.max, rh.max);
  EXPECT_NEAR(snap.sum, rh.sum, 1e-9);
  EXPECT_EQ(snap.buckets, rh.buckets);
}

TEST(AtomicHistogram, ConcurrentRecordsExactAfterQuiesce) {
  AtomicHistogram h;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(1.0 + t);  // distinct per-thread value exercises min/max CAS
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads));
  double want_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) want_sum += (1.0 + t) * kPerThread;
  EXPECT_NEAR(snap.sum, want_sum, want_sum * 1e-12);
}

// Two threads record their first values into a fresh histogram at the same
// moment. Neither extreme may be lost, and a snapshot never reports a min
// above its max. The same two threads serve every trial, released together
// by a barrier, so the first records race as closely as the host allows.
TEST(AtomicHistogram, ConcurrentFirstRecordsKeepMinAndMax) {
  constexpr int kTrials = 4000;
  std::unique_ptr<AtomicHistogram> h;
  std::barrier sync(3);
  const auto writer = [&](double value) {
    for (int i = 0; i < kTrials; ++i) {
      sync.arrive_and_wait();  // h is fresh
      h->record(value);
      sync.arrive_and_wait();  // both values recorded
    }
  };
  std::thread lo(writer, 1.0);
  std::thread hi(writer, 2.0);
  int wrong = 0;
  for (int i = 0; i < kTrials; ++i) {
    h = std::make_unique<AtomicHistogram>();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    const auto snap = h->snapshot();
    if (snap.count != 2 || snap.min != 1.0 || snap.max != 2.0) ++wrong;
  }
  lo.join();
  hi.join();
  EXPECT_EQ(wrong, 0) << "of " << kTrials << " trials";
}

TEST(Registry, HandlesAreStableAndNamed) {
  Registry reg;
  Counter& a = reg.counter("stage.in");
  Counter& b = reg.counter("stage.in");
  EXPECT_EQ(&a, &b);  // same name => same instance
  a.add(5);
  EXPECT_EQ(reg.counter("stage.in").value(), 5u);

  reg.gauge("queue.depth", [] { return 11.0; });
  AtomicHistogram& h = reg.histogram("batch");
  h.record(4.0);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("stage.in"), 5u);
  EXPECT_EQ(snap.counter_or("missing", 99u), 99u);
  EXPECT_EQ(snap.gauge_or("queue.depth"), 11.0);
  ASSERT_NE(snap.histogram("batch"), nullptr);
  EXPECT_EQ(snap.histogram("batch")->count, 1u);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(Registry, SnapshotEntriesAreSorted) {
  Registry reg;
  reg.counter("zeta");
  reg.counter("alpha");
  reg.counter("mid");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
}

TEST(Registry, ReadFunctionCounterExportsAsCounter) {
  Registry reg;
  std::uint64_t kept_elsewhere = 7;
  Counter& c = reg.counter("stage.in", [&] { return kept_elsewhere; });
  EXPECT_EQ(&c, &reg.counter("stage.in"));
  c.add(100);  // ignored: the read function owns the value
  kept_elsewhere = 9;
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("stage.in"), 9u);
  EXPECT_TRUE(snap.gauges.empty());
}

// The production pattern: stage threads hammer counters/histograms while a
// sampler thread snapshots concurrently. Mid-run snapshots must be
// monotonic and bounded by the true total; the post-join snapshot exact.
TEST(Registry, SnapshotWhileRecording) {
  Registry reg;
  Counter& events = reg.counter("events");
  AtomicHistogram& sizes = reg.histogram("sizes");
  std::atomic<bool> stop{false};

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        events.add();
        if ((i & 1023) == 0) sizes.record(static_cast<double>(i & 63));
      }
    });
  }
  std::thread sampler([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = reg.snapshot();
      const std::uint64_t n = snap.counter_or("events");
      EXPECT_GE(n, last);  // monotone while writers run
      EXPECT_LE(n, kWriters * kPerThread);
      last = n;
      const runtime::Histogram* h = snap.histogram("sizes");
      ASSERT_NE(h, nullptr);
      EXPECT_LE(h->min, h->max);  // never an inverted range mid-run
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();

  const auto final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counter_or("events"), kWriters * kPerThread);
  ASSERT_NE(final_snap.histogram("sizes"), nullptr);
  // One record per thread at every 1024th iteration (i = 0, 1024, ...).
  const std::uint64_t records_per_thread = (kPerThread + 1023) / 1024;
  EXPECT_EQ(final_snap.histogram("sizes")->count,
            kWriters * records_per_thread);
}

}  // namespace
}  // namespace ffsva::telemetry
