// Bounded multi-producer / multi-consumer queue with close semantics.
//
// This is the backbone of the FFS-VA pipeline: every pair of consecutive
// stages (prefetch -> SDD -> SNM -> T-YOLO -> reference model) is decoupled
// by one of these queues, which is what lets the stages run as an
// asynchronous pipeline instead of in lock step (paper Section 3.1.2).
//
// Design notes:
//  * Blocking push/pop with condition variables, plus try_pop for a
//    consumer serving many queues (the GPU0 executor, the SDD pool) and
//    push_for for a live camera that drops a frame rather than block. Wait
//    conditions are explicit loops so the thread-safety analysis
//    (runtime/annotations.hpp) can check every guarded access.
//  * close() wakes all waiters; a closed queue drains remaining elements,
//    then pop() returns std::nullopt. This gives pipelines a clean
//    end-of-stream path with no sentinel values.
//  * depth() is an instantaneous snapshot used to size batches and by the
//    telemetry gauges. It is intentionally approximate under concurrency;
//    the feedback throttle itself is the blocking push.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "runtime/annotations.hpp"

namespace ffsva::runtime {

/// Eventcount for consumers that multiplex over *several* queues (the GPU0
/// executor drains every stream's SNM queue; an SDD worker serves every
/// stream's SDD queue). A consumer cannot block inside any single queue's
/// pop — that would deafen it to the others — so instead each queue is
/// wired to a shared QueueWaiter via BoundedQueue::set_waiter() and the
/// consumer runs the classic eventcount protocol:
///
///     const auto ticket = waiter.prepare();   // 1. arm
///     if (scan_all_queues_found_work()) ...   // 2. re-check
///     else waiter.wait(ticket);               // 3. sleep
///
/// Every push/close on a wired queue bumps the epoch, so activity between
/// (1) and (3) makes wait() return immediately — no missed wakeups, and no
/// polling loop (this replaces the executor's 200us sleep).
///
/// notify() is on every producer's hot path, so it must cost one atomic
/// increment when no consumer is parked (the steady state of a saturated
/// pipeline). Correctness of the fast path rests on seq_cst ordering:
/// the waiter publishes waiters_ before re-reading the epoch (both under
/// the mutex), the notifier bumps the epoch before reading waiters_, so in
/// the single total order either the waiter sees the new epoch and never
/// sleeps, or the notifier sees the waiter and takes the slow wake path.
class QueueWaiter {
 public:
  /// Arm: snapshot the epoch before scanning for work.
  std::uint64_t prepare() const { return epoch_.load(); }

  /// Sleep until any wired queue sees activity after `ticket` was taken.
  void wait(std::uint64_t ticket) const {
    UniqueLock lk(mu_);
    waiters_.fetch_add(1);
    while (epoch_.load() == ticket) cv_.wait(lk);
    waiters_.fetch_sub(1);
  }

  /// Record activity; wake armed waiters only if any are parked.
  void notify() const {
    epoch_.fetch_add(1);
    if (waiters_.load() != 0) {
      // The lock handshake closes the window where a waiter has re-checked
      // the epoch but not yet atomically released the mutex into the wait.
      { MutexLock lk(mu_); }
      cv_.notify_all();
    }
  }

 private:
  // Innermost rank in the tree: notify() runs under whatever lock the
  // producer already holds (queue mu_, engine streams_mu_ via close sweeps).
  mutable Mutex mu_{rank::kQueueWaiter, "QueueWaiter::mu_"};
  mutable CondVar cv_;
  mutable std::atomic<std::uint64_t> epoch_{0};
  mutable std::atomic<int> waiters_{0};
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Wire this queue to a shared QueueWaiter: every push and the close are
  /// reported to it, so a consumer multiplexing over many queues can sleep
  /// on one condition instead of polling. Must be called before the queue
  /// is shared between threads (the pointer itself is unsynchronized).
  void set_waiter(QueueWaiter* waiter) { waiter_ = waiter; }

  /// Re-bound the queue, for an owner that learns the size only after
  /// construction. Like set_waiter, must be called before the queue is
  /// shared between threads (the field itself is unsynchronized).
  void set_capacity(std::size_t capacity) { capacity_ = capacity == 0 ? 1 : capacity; }

  /// Blocks until space is available or the queue is closed.
  /// Returns false (and drops the value) if the queue was closed.
  bool push(T value) {
    UniqueLock lk(mu_);
    while (items_.size() >= capacity_ && !closed_) not_full_.wait(lk);
    if (closed_) return false;
    items_.push_back(std::move(value));
    lk.unlock();
    not_empty_.notify_one();
    if (waiter_) waiter_->notify();
    return true;
  }

  /// Push waiting at most `timeout`. Returns false on timeout or close.
  template <typename Rep, typename Period>
  bool push_for(T value, std::chrono::duration<Rep, Period> timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    UniqueLock lk(mu_);
    while (items_.size() >= capacity_ && !closed_) {
      if (not_full_.wait_until(lk, deadline) == std::cv_status::timeout) {
        if (items_.size() >= capacity_ && !closed_) return false;
        break;
      }
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    lk.unlock();
    not_empty_.notify_one();
    if (waiter_) waiter_->notify();
    return true;
  }

  /// Blocks until an element is available; returns nullopt once the queue
  /// is closed *and* drained.
  std::optional<T> pop() {
    UniqueLock lk(mu_);
    while (items_.empty() && !closed_) not_empty_.wait(lk);
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return v;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    UniqueLock lk(mu_);
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return v;
  }

  /// Close the queue: producers fail, consumers drain then see end-of-stream.
  void close() {
    {
      MutexLock lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    if (waiter_) waiter_->notify();
  }

  bool closed() const {
    MutexLock lk(mu_);
    return closed_;
  }

  /// Instantaneous queue depth (feedback-queue mechanism reads this).
  std::size_t depth() const {
    MutexLock lk(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  QueueWaiter* waiter_ = nullptr;  ///< Optional multi-queue wakeup target.
  // Queue-leaf rank: taken under the engine's streams_mu_ (stop/close
  // sweep) and before only the QueueWaiter handshake.
  mutable Mutex mu_{rank::kBoundedQueue, "BoundedQueue::mu_"};
  CondVar not_empty_;
  CondVar not_full_;
  // bounded-ok: capacity_ is enforced by every push path above; the deque
  // is the bounded queue's own storage, not an unbounded channel.
  std::deque<T> items_ FFSVA_GUARDED_BY(mu_);
  bool closed_ FFSVA_GUARDED_BY(mu_) = false;
};

}  // namespace ffsva::runtime
