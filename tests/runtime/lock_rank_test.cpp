// Runtime lock-rank verifier (src/runtime/lock_rank.hpp, DESIGN.md §16):
// in-order acquisition passes, an inversion aborts with both lock names,
// unranked mutexes stay off the held stack entirely, and in Release builds
// (no FFSVA_LOCK_RANK_CHECKS) the checks compile out to nothing.
#include "runtime/annotations.hpp"
#include "runtime/lock_rank.hpp"

#include <gtest/gtest.h>

#include <thread>

// GCC spells TSan detection __SANITIZE_THREAD__; __has_feature is Clang's.
#if defined(__SANITIZE_THREAD__)
#define FFSVA_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FFSVA_TEST_UNDER_TSAN 1
#endif
#endif

namespace ffsva::runtime {
namespace {

TEST(LockRank, InOrderAcquisitionPasses) {
  Mutex outer{rank::kEngineStreams, "test::outer"};
  Mutex inner{rank::kBoundedQueue, "test::inner"};
  {
    MutexLock lo(outer);
    if (lock_rank_checks_enabled()) {
      EXPECT_EQ(lock_rank_held_depth(), 1);
    }
    MutexLock li(inner);
    if (lock_rank_checks_enabled()) {
      EXPECT_EQ(lock_rank_held_depth(), 2);
    }
  }
  EXPECT_EQ(lock_rank_held_depth(), 0);
}

TEST(LockRank, UniqueLockTracksUnlockRelock) {
  Mutex mu{rank::kWatchdog, "test::uniq"};
  UniqueLock lk(mu);
  if (lock_rank_checks_enabled()) {
    EXPECT_EQ(lock_rank_held_depth(), 1);
  }
  lk.unlock();
  EXPECT_EQ(lock_rank_held_depth(), 0);
  lk.lock();
  if (lock_rank_checks_enabled()) {
    EXPECT_EQ(lock_rank_held_depth(), 1);
  }
  lk.unlock();
  EXPECT_EQ(lock_rank_held_depth(), 0);
}

TEST(LockRank, TryLockPushesOnSuccessOnly) {
  Mutex mu{rank::kTraceBuffer, "test::try"};
  ASSERT_TRUE(mu.try_lock());
  if (lock_rank_checks_enabled()) {
    EXPECT_EQ(lock_rank_held_depth(), 1);
  }
  // Contended try_lock from another thread fails and must leave that
  // thread's stack untouched.
  std::thread([&] {
    EXPECT_FALSE(mu.try_lock());
    EXPECT_EQ(lock_rank_held_depth(), 0);
  }).join();
  mu.unlock();
  EXPECT_EQ(lock_rank_held_depth(), 0);
}

TEST(LockRank, UnrankedMutexesStayOffTheStack) {
  // Default-constructed (rank 0) locks are never tracked — locals and test
  // fixtures pay nothing and impose no ordering constraints.
  Mutex a;
  Mutex b;
  MutexLock la(a);
  EXPECT_EQ(lock_rank_held_depth(), 0);
  MutexLock lb(b);
  EXPECT_EQ(lock_rank_held_depth(), 0);
  // An unranked lock under a ranked one is equally invisible.
  Mutex ranked{rank::kEngineOutputs, "test::ranked"};
  MutexLock lr(ranked);
  if (lock_rank_checks_enabled()) {
    EXPECT_EQ(lock_rank_held_depth(), 1);
  }
}

TEST(LockRank, EqualRankCountsAsInversion) {
  // Two locks at the same rank have no defined order between them: the
  // verifier demands strictly increasing ranks.
  if (!lock_rank_checks_enabled()) GTEST_SKIP() << "checks compiled out";
#if defined(FFSVA_TEST_UNDER_TSAN)
  GTEST_SKIP() << "death-test fork is unreliable under TSan";
#endif
  Mutex a{rank::kWatchdog, "test::peer_a"};
  Mutex b{rank::kWatchdog, "test::peer_b"};
  EXPECT_DEATH(
      {
        MutexLock la(a);
        MutexLock lb(b);
      },
      "lock-order inversion.*peer_b.*peer_a");
}

TEST(LockRank, InversionAbortsWithBothNames) {
  if (!lock_rank_checks_enabled()) GTEST_SKIP() << "checks compiled out";
#if defined(FFSVA_TEST_UNDER_TSAN)
  GTEST_SKIP() << "death-test fork is unreliable under TSan";
#endif
  Mutex inner{rank::kQueueWaiter, "test::leaf"};
  Mutex outer{rank::kNodeControl, "test::control"};
  EXPECT_DEATH(
      {
        MutexLock li(inner);
        MutexLock lo(outer);
      },
      "lock-order inversion.*test::control.*test::leaf");
}

TEST(LockRank, ReleaseChecksCompileOutInRelease) {
  // The contract the default (Release) build relies on: with checks
  // compiled out an inversion is NOT caught — the gate lives in the
  // sanitizer/debug builds and the static analyzer, not on the hot path.
  if (lock_rank_checks_enabled()) {
    GTEST_SKIP() << "checked build: covered by the death tests above";
  }
  Mutex inner{rank::kQueueWaiter, "test::leaf"};
  Mutex outer{rank::kNodeControl, "test::control"};
  {
    MutexLock li(inner);
    MutexLock lo(outer);  // inversion; must be a plain pair of locks here
  }
  EXPECT_EQ(lock_rank_held_depth(), 0);
  SUCCEED();
}

TEST(LockRank, CondVarWaitKeepsEntryAcrossWait) {
  Mutex mu{rank::kLoopJoin, "test::cvmu"};
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lk(mu);
    ready = true;
    cv.notify_one();
  });
  {
    UniqueLock lk(mu);
    while (!ready) cv.wait(lk);
    if (lock_rank_checks_enabled()) {
      EXPECT_EQ(lock_rank_held_depth(), 1);
    }
  }
  waker.join();
  EXPECT_EQ(lock_rank_held_depth(), 0);
}

}  // namespace
}  // namespace ffsva::runtime
