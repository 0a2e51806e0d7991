#include "runtime/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ffsva::runtime {
namespace {

class ParallelismGuard {
 public:
  ParallelismGuard() : saved_(compute_parallelism()) {}
  ~ParallelismGuard() { set_compute_parallelism(saved_); }

 private:
  int saved_;
};

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ParallelismGuard guard;
  set_compute_parallelism(4);
  const std::int64_t n = 10007;  // Prime: never a multiple of the grain.
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for(0, n, 64, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(1, hits[static_cast<std::size_t>(i)].load()) << "index " << i;
  }
}

TEST(ParallelFor, MatchesSerialSum) {
  ParallelismGuard guard;
  std::vector<std::int64_t> v(5000);
  std::iota(v.begin(), v.end(), 1);
  const std::int64_t want = std::accumulate(v.begin(), v.end(), std::int64_t{0});
  for (int threads : {1, 2, 4}) {
    set_compute_parallelism(threads);
    std::atomic<std::int64_t> got{0};
    parallel_for(0, static_cast<std::int64_t>(v.size()), 128,
                 [&](std::int64_t b, std::int64_t e) {
                   std::int64_t local = 0;
                   for (std::int64_t i = b; i < e; ++i) {
                     local += v[static_cast<std::size_t>(i)];
                   }
                   got.fetch_add(local, std::memory_order_relaxed);
                 });
    EXPECT_EQ(want, got.load()) << "threads=" << threads;
  }
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  ParallelismGuard guard;
  set_compute_parallelism(4);
  std::atomic<int> calls{0};
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(0, calls.load());
}

TEST(ParallelFor, PropagatesExceptionToCaller) {
  ParallelismGuard guard;
  set_compute_parallelism(4);
  EXPECT_THROW(
      parallel_for(0, 1000, 10,
                   [&](std::int64_t b, std::int64_t) {
                     if (b >= 500) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must still be usable after an exceptional join.
  std::atomic<int> calls{0};
  parallel_for(0, 100, 10, [&](std::int64_t b, std::int64_t e) {
    calls.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(100, calls.load());
}

TEST(ParallelFor, NestedCallsComplete) {
  ParallelismGuard guard;
  set_compute_parallelism(4);
  std::atomic<std::int64_t> total{0};
  parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      parallel_for(0, 100, 10, [&](std::int64_t ib, std::int64_t ie) {
        total.fetch_add(ie - ib, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(800, total.load());
}

TEST(ParallelFor, HelpersRunChunksConcurrently) {
  // 4 chunks that wait until all 4 have arrived can only finish if three
  // workers run them alongside the caller.
  ParallelismGuard guard;
  set_compute_parallelism(4);
  std::atomic<int> arrived{0};
  parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(4, arrived.load());
}

TEST(ParallelFor, ResizeBetweenLoops) {
  // Every resize tears the workers down (dropping queued helpers, joining)
  // and starts a new set; each size must still cover its range once.
  ParallelismGuard guard;
  for (int threads : {4, 2, 4}) {
    set_compute_parallelism(threads);
    EXPECT_EQ(threads, compute_parallelism());
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, 1000, 7, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(1, hits[i].load()) << "threads=" << threads << " index " << i;
    }
  }
}

TEST(ParallelFor, SetParallelismClampsToOne) {
  ParallelismGuard guard;
  set_compute_parallelism(0);
  EXPECT_EQ(1, compute_parallelism());
  set_compute_parallelism(-3);
  EXPECT_EQ(1, compute_parallelism());
  set_compute_parallelism(3);
  EXPECT_EQ(3, compute_parallelism());
}

}  // namespace
}  // namespace ffsva::runtime
