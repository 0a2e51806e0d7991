// Supervision primitives: StopToken aliasing, InflightCall busy-age
// readings, and the Watchdog tick/stop protocol (runtime/supervision.hpp).
#include "runtime/supervision.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace ffsva::runtime {
namespace {

TEST(StopToken, CopiesAliasTheSameState) {
  StopToken a;
  StopToken b = a;  // copy before the request
  EXPECT_FALSE(a.stop_requested());
  EXPECT_FALSE(b.stop_requested());
  b.request_stop();
  EXPECT_TRUE(a.stop_requested());
  EXPECT_TRUE(b.stop_requested());
  StopToken c = a;  // copy after the request still observes it
  EXPECT_TRUE(c.stop_requested());
}

TEST(StopToken, RequestStopIsIdempotent) {
  StopToken t;
  t.request_stop();
  t.request_stop();
  EXPECT_TRUE(t.stop_requested());
}

TEST(StopToken, FreshTokensAreIndependent) {
  StopToken a;
  StopToken b;
  a.request_stop();
  EXPECT_FALSE(b.stop_requested());
}

TEST(InflightCall, IdleReadsMinusOne) {
  InflightCall call;
  EXPECT_EQ(call.busy_age_ms(), -1);  // no call ever registered
  call.begin(/*stream=*/0);
  call.end();
  EXPECT_EQ(call.busy_age_ms(), -1);  // idle again after the call returned
}

TEST(InflightCall, BusyAgeGrowsWhileInFlight) {
  InflightCall call;
  call.begin(/*stream=*/1);
  EXPECT_GE(call.busy_age_ms(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(call.busy_age_ms(), 25);  // slack for timer coarseness
  call.end();
  EXPECT_EQ(call.busy_age_ms(), -1);
}

TEST(InflightCall, NextBeginResetsTheAge) {
  InflightCall call;
  call.begin(/*stream=*/0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  call.end();
  call.begin(/*stream=*/0);  // a new call: the stall clock restarts
  EXPECT_GE(call.busy_age_ms(), 0);
  EXPECT_LT(call.busy_age_ms(), 25);
  call.end();
}

// The guard is how the engine registers a call: the slot reads busy for
// exactly the guarded scope.
TEST(InflightCall, GuardRegistersForItsScope) {
  InflightCall call;
  {
    ModelCallGuard guard(call, /*stream=*/2);
    EXPECT_GE(call.busy_age_ms(), 0);
    EXPECT_EQ(call.stream(), 2);
  }
  EXPECT_EQ(call.busy_age_ms(), -1);
}

TEST(Watchdog, RunsTheCheckRepeatedly) {
  Watchdog dog;
  std::atomic<int> ticks{0};
  dog.start(std::chrono::milliseconds(5), [&] { ++ticks; });
  EXPECT_TRUE(dog.running());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ticks.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  dog.stop();
  EXPECT_GE(ticks.load(), 3);
  EXPECT_FALSE(dog.running());
}

TEST(Watchdog, StopIsIdempotentAndStopsTicking) {
  Watchdog dog;
  std::atomic<int> ticks{0};
  dog.start(std::chrono::milliseconds(1), [&] { ++ticks; });
  dog.stop();
  dog.stop();  // second stop is a no-op
  const int after_stop = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), after_stop);  // no ticks after stop returned
}

TEST(Watchdog, IsRestartable) {
  Watchdog dog;
  std::atomic<int> first{0}, second{0};
  dog.start(std::chrono::milliseconds(1), [&] { ++first; });
  dog.stop();
  dog.start(std::chrono::milliseconds(1), [&] { ++second; });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (second.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  dog.stop();
  EXPECT_GE(second.load(), 1);
}

// The check may itself take locks and notify condition variables (the
// engine's quarantine path does); destroying a running watchdog must join
// cleanly rather than leak the thread.
TEST(Watchdog, DestructorStopsARunningDog) {
  std::atomic<int> ticks{0};
  {
    Watchdog dog;
    dog.start(std::chrono::milliseconds(1), [&] { ++ticks; });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }  // ~Watchdog joins; `ticks` outlives it, so no use-after-free
  const int at_destroy = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ticks.load(), at_destroy);
}

}  // namespace
}  // namespace ffsva::runtime
