// BoundedQueue: the decoupling primitive between pipeline stages.
#include "runtime/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace ffsva::runtime {
namespace {

TEST(BoundedQueue, PushPopSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, TryPopEmptyReturnsNullopt) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, ZeroCapacityClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.push(7));
  EXPECT_FALSE(q.push_for(8, std::chrono::milliseconds(0)));
}

TEST(BoundedQueue, CloseWakesConsumersAndDrains) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // producers fail after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // end of stream
}

TEST(BoundedQueue, CloseUnblocksWaitingConsumer) {
  BoundedQueue<int> q(2);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(BoundedQueue, CloseUnblocksWaitingProducer) {
  BoundedQueue<int> q(1);
  q.push(1);
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
}

// Close must be idempotent — quarantine and a racing producer exit can both
// close the same queue, in any order, without upsetting drain semantics.
TEST(BoundedQueue, CloseIsIdempotent) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.close();
  q.close();
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.pop().value(), 1);  // drain still works after repeated close
  EXPECT_FALSE(q.pop().has_value());
  q.close();  // and close after drain is still a no-op
  EXPECT_FALSE(q.push(2));
}

// The timed push must observe close the same way the blocking one does:
// push_for fails fast (no timeout wait) on a closed queue.
TEST(BoundedQueue, PushForAfterCloseFailsFast) {
  BoundedQueue<int> q(1);
  q.close();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.push_for(1, std::chrono::milliseconds(500)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::milliseconds(100));  // no full-timeout sleep
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, PushForTimesOutWhenFull) {
  BoundedQueue<int> q(1);
  q.push(1);
  EXPECT_FALSE(q.push_for(2, std::chrono::milliseconds(20)));
  EXPECT_EQ(q.depth(), 1u);
}

TEST(BoundedQueue, FifoOrderPreserved) {
  BoundedQueue<int> q(128);
  for (int i = 0; i < 100; ++i) q.push(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop().value(), i);
}

// Property: under concurrent producers and consumers, every pushed element
// is popped exactly once (no loss, no duplication) — the invariant the
// pipeline depends on for its "no frame lost" guarantee.
class BoundedQueueConcurrencyTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(BoundedQueueConcurrencyTest, NoLossNoDuplication) {
  const auto [producers, consumers, capacity] = GetParam();
  const int per_producer = 500;
  BoundedQueue<int> q(capacity);
  std::vector<std::thread> threads;
  std::mutex seen_mu;
  std::vector<int> seen;

  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        ASSERT_TRUE(q.push(p * per_producer + i));
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        std::lock_guard lk(seen_mu);
        seen.push_back(*v);
      }
    });
  }
  for (int p = 0; p < producers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t t = static_cast<std::size_t>(producers); t < threads.size(); ++t) {
    threads[t].join();
  }

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(producers) * per_producer);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BoundedQueueConcurrencyTest,
    ::testing::Values(std::make_tuple(1, 1, std::size_t{2}),
                      std::make_tuple(1, 1, std::size_t{64}),
                      std::make_tuple(2, 2, std::size_t{4}),
                      std::make_tuple(4, 1, std::size_t{8}),
                      std::make_tuple(1, 4, std::size_t{8}),
                      std::make_tuple(4, 4, std::size_t{1})));

// Eventcount protocol: activity between prepare() and wait() must make the
// wait return immediately (no missed wakeup).
TEST(QueueWaiter, ActivityAfterPrepareIsNotMissed) {
  QueueWaiter w;
  const auto ticket = w.prepare();
  w.notify();
  w.wait(ticket);  // must not block
  // A fresh ticket sleeps until the next activity.
  const auto t2 = w.prepare();
  std::thread waker([&w] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    w.notify();
  });
  w.wait(t2);
  waker.join();
}

// A consumer multiplexing several queues through one waiter is woken by a
// push on any of them, and by close.
TEST(QueueWaiter, WakesMultiQueueConsumerOnPushAndClose) {
  QueueWaiter waiter;
  BoundedQueue<int> a(4), b(4);
  a.set_waiter(&waiter);
  b.set_waiter(&waiter);

  std::vector<int> got;
  std::thread consumer([&] {
    for (;;) {
      const auto ticket = waiter.prepare();
      bool work = false;
      for (BoundedQueue<int>* q : {&a, &b}) {
        while (auto v = q->try_pop()) {
          got.push_back(*v);
          work = true;
        }
      }
      if (a.closed() && b.closed() && a.depth() == 0 && b.depth() == 0) return;
      if (!work) waiter.wait(ticket);
    }
  });

  for (int i = 0; i < 50; ++i) {
    ((i % 2) ? a : b).push(i);
    if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  a.close();
  b.close();
  consumer.join();
  EXPECT_EQ(got.size(), 50u);
}

// Per-consumer FIFO: a single consumer observes producer order.
TEST(BoundedQueue, SingleProducerSingleConsumerOrder) {
  BoundedQueue<int> q(3);
  std::vector<int> got;
  std::thread consumer([&] {
    while (auto v = q.pop()) got.push_back(*v);
  });
  for (int i = 0; i < 200; ++i) q.push(i);
  q.close();
  consumer.join();
  ASSERT_EQ(got.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace ffsva::runtime
