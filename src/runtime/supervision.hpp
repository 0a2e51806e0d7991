// relaxed-ok: InflightCall slot fields (stream/start) ride the seq
// counter's acquire/release edges; the cancel flag itself is advisory (see
// runtime/cancel.hpp).
//
// Supervision primitives for the threaded pipeline engine: cooperative
// cancellation, one in-flight record per worker, and a watchdog thread.
//
// The engine's availability contract (DESIGN.md Section 9) is that a fault
// in one stream — a hung decoder, a throwing model — must stay a bounded,
// observable event instead of wedging the shared feedback queues. These
// three small pieces carry that contract:
//
//  * StopToken — a copyable handle on a shared stop flag. Copies alias the
//    same state, so a token handed to a worker thread outlives the object
//    that issued it (std::stop_token is not used because the engine needs
//    to pair the flag with queue closes, not with std::jthread).
//  * InflightCall / ModelCallGuard — a per-worker registration slot for the
//    call that may hang (a source decode, a model forward) currently in
//    flight. It is the worker's one supervision record: the watchdog reads
//    its busy age to detect a stall, attributes the stall to a specific
//    {worker, stream}, and cancels exactly that call. Blocking on a
//    bounded queue happens outside any call and reads as idle — that is
//    healthy backpressure, not a stall.
//  * Watchdog — one thread running a supplied check on a fixed tick. The
//    engine's check compares slot busy-ages against the configured
//    timeouts, cancels overdue calls and quarantines stalled streams.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "runtime/annotations.hpp"
#include "runtime/cancel.hpp"

namespace ffsva::runtime {

/// Milliseconds on the steady clock (monotonic; the supervision timebase).
inline std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Copyable handle on a shared cancellation flag. All copies observe the
/// same request; request_stop() is idempotent and thread-safe.
class StopToken {
 public:
  StopToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() const { state_->store(true, std::memory_order_release); }
  bool stop_requested() const { return state_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// One worker slot's cancellable in-flight model call. Single-writer for
/// begin()/end() (the stage thread owning the slot); the watchdog reads the
/// slot and may issue a cancel from its own thread. The sequence counter is
/// odd while a call is in flight; try_cancel() snapshots it before
/// cancelling so a cancel is only issued against the call it observed
/// running. A cancel can still land in the tiny window after that call
/// returns and the next one begins — the next call then unwinds and is
/// degraded like any cancelled call, so at most one extra frame is
/// affected; the escalation path tolerates that (documented in DESIGN.md
/// Section 14).
class InflightCall {
 public:
  /// Stage thread: register a call about to start. Resets the token.
  void begin(int stream) {
    token_.reset();
    stream_.store(stream, std::memory_order_relaxed);
    start_ms_.store(steady_now_ms(), std::memory_order_relaxed);
    seq_.fetch_add(1, std::memory_order_release);  // even -> odd: in flight
  }

  /// Stage thread: the call returned (normally or by unwinding).
  void end() {
    seq_.fetch_add(1, std::memory_order_release);  // odd -> even: idle
    start_ms_.store(-1, std::memory_order_relaxed);
  }

  /// The token a ModelCallGuard installs for the call's duration.
  const CancelToken& token() const { return token_; }

  /// Watchdog: cancel the in-flight call if it has been running for more
  /// than timeout_ms. Returns true when a cancel was issued.
  bool try_cancel(std::int64_t now_ms, std::int64_t timeout_ms) {
    const std::int64_t start = busy_since_ms();
    if (start < 0 || now_ms - start <= timeout_ms) return false;
    if (token_.cancelled()) return false;  // already cancelled; don't recount
    token_.cancel();
    return true;
  }

  /// Milliseconds the registered call has been in flight, or -1 when no
  /// call is registered (the worker is parked, blocked on backpressure, or
  /// finished).
  std::int64_t busy_age_ms() const {
    const std::int64_t start = busy_since_ms();
    return start < 0 ? -1 : steady_now_ms() - start;
  }

  /// Stream the cancelled/in-flight call was serving (-1 = none recorded).
  int stream() const { return stream_.load(std::memory_order_relaxed); }

 private:
  /// Start of the registered call (steady ms), or -1 when none is.
  std::int64_t busy_since_ms() const {
    if ((seq_.load(std::memory_order_acquire) & 1U) == 0) return -1;
    return start_ms_.load(std::memory_order_relaxed);
  }

  CancelToken token_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::int64_t> start_ms_{-1};
  std::atomic<int> stream_{-1};
};

/// RAII guard around one model call: registers it with the worker's
/// InflightCall slot and installs the slot's token on the current thread so
/// kernel-level check_cancel() observes a watchdog cancel.
class ModelCallGuard {
 public:
  ModelCallGuard(InflightCall& call, int stream)
      : call_(call), install_((call.begin(stream), call.token())) {}
  ~ModelCallGuard() { call_.end(); }

  ModelCallGuard(const ModelCallGuard&) = delete;
  ModelCallGuard& operator=(const ModelCallGuard&) = delete;

 private:
  InflightCall& call_;
  ScopedCancelToken install_;
};

/// A periodic check on its own thread. start() is restartable; stop() is
/// idempotent and joins. The check runs outside the watchdog's lock, so it
/// may itself call stop-adjacent machinery (close queues, notify waiters)
/// without deadlocking the watchdog.
class Watchdog {
 public:
  Watchdog() = default;
  ~Watchdog() { stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void start(std::chrono::milliseconds tick, std::function<void()> check)
      FFSVA_EXCLUDES(mu_);
  void stop() FFSVA_EXCLUDES(mu_);

  bool running() const { return thread_.joinable(); }

 private:
  std::thread thread_;  ///< Managed by start()/stop() on the owner's thread.
  Mutex mu_{rank::kWatchdog, "Watchdog::mu_"};
  CondVar cv_;
  bool stopping_ FFSVA_GUARDED_BY(mu_) = false;
};

}  // namespace ffsva::runtime
