// Cooperative cancellation: CancelToken flag semantics, the
// thread-local install protocol (runtime/cancel.hpp), and the propagation
// contract parallel_for promises — the caller's token is observed by every
// pool worker running that loop's chunks, so one cancel unwinds the whole
// fork-join.
#include "runtime/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "runtime/parallel_for.hpp"

namespace ffsva::runtime {
namespace {

TEST(CancelToken, FreshTokenIsNotCancelled) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, CancelLatchesAndCopiesAlias) {
  CancelToken a;
  CancelToken b = a;  // copy before the request
  a.cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  CancelToken c = a;  // copy after the request still observes it
  EXPECT_TRUE(c.cancelled());
}

TEST(CancelToken, ResetClearsTheFlag) {
  CancelToken t;
  CancelToken alias = t;
  t.cancel();
  ASSERT_TRUE(t.cancelled());
  t.reset();
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(alias.cancelled());  // copies share the cleared state
}

TEST(CancelCheck, NoTokenInstalledIsANoOp) {
  EXPECT_EQ(current_cancel_token(), nullptr);
  EXPECT_FALSE(cancel_requested());
  EXPECT_NO_THROW(check_cancel());
}

TEST(CancelCheck, InstalledTokenDrivesCheckAndPoll) {
  CancelToken t;
  ScopedCancelToken install(t);
  EXPECT_EQ(current_cancel_token(), &t);
  EXPECT_FALSE(cancel_requested());
  EXPECT_NO_THROW(check_cancel());
  t.cancel();
  EXPECT_TRUE(cancel_requested());
  EXPECT_THROW(check_cancel(), CancelledError);
}

TEST(CancelCheck, ScopedInstallNestsAndRestores) {
  CancelToken outer;
  CancelToken inner;
  outer.cancel();
  {
    ScopedCancelToken a(outer);
    {
      ScopedCancelToken b(inner);  // shadows the cancelled outer token
      EXPECT_EQ(current_cancel_token(), &inner);
      EXPECT_FALSE(cancel_requested());
    }
    EXPECT_EQ(current_cancel_token(), &outer);  // restored on scope exit
    EXPECT_TRUE(cancel_requested());
  }
  EXPECT_EQ(current_cancel_token(), nullptr);
}

// Each chunk parks until it observes the cancel (bounded by a per-chunk
// timeout so a propagation bug fails the test instead of hanging it), then
// check_cancel() must throw: the loop cannot complete unless propagation to
// the pool workers is broken.
void park_until_cancelled_loop(std::atomic<int>& timed_out) {
  parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto limit =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!cancel_requested() &&
             std::chrono::steady_clock::now() < limit) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      check_cancel();  // throws iff the cancel reached this lane
      timed_out.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

TEST(CancelParallelFor, CancelMidLoopUnwindsEveryLane) {
  CancelToken token;
  ScopedCancelToken install(token);
  std::atomic<int> timed_out{0};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel();
  });
  EXPECT_THROW(park_until_cancelled_loop(timed_out), CancelledError);
  canceller.join();
  EXPECT_EQ(timed_out.load(std::memory_order_relaxed), 0);
}

TEST(CancelParallelFor, PreCancelledTokenThrowsBeforeAnyWork) {
  CancelToken token;
  token.cancel();
  ScopedCancelToken install(token);
  std::atomic<int> bodies{0};
  EXPECT_THROW(parallel_for(0, 1024, 1,
                            [&](std::int64_t, std::int64_t) {
                              check_cancel();
                              bodies.fetch_add(1, std::memory_order_relaxed);
                            }),
               CancelledError);
  EXPECT_EQ(bodies.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace ffsva::runtime
