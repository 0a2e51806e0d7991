// relaxed-ok: the cancel flag is an advisory single-bit signal polled on
// the kernel hot path; the unwind synchronizes via exception
// propagation and queue edges, never via this flag's ordering.
//
// Cooperative cancellation for the inference hot path.
//
// A wedged model call (a stuck forward, a pathological frame) would keep its
// thread stuck for the rest of the run. CancelToken makes such calls
// unwindable: the watchdog flips a shared flag, and the call notices at the
// next tile boundary — a GEMM row panel, a conv sample, a segmentation
// pass — and unwinds via CancelledError. The check is designed to be cheap
// enough for kernel inner loops: one thread-local load plus one relaxed
// atomic load.
//
// Propagation model: a stage thread installs its token with
// ScopedCancelToken for the duration of one model call; parallel_for
// captures the caller's current token and re-installs it on every pool
// worker running that loop's chunks, so `check_cancel()` observes the same
// request from every lane. Tokens are copyable handles on shared state
// (same idiom as StopToken) and a cancelled token stays cancelled until
// reset() — one token is reused across calls by resetting it between them.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>

namespace ffsva::runtime {

/// Thrown by check_cancel() when the installed token is cancelled. Derives
/// from std::runtime_error so generic catch sites still account the frame;
/// cancellation-aware sites catch this type first to trigger escalation.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("model call cancelled") {}
  explicit CancelledError(const std::string& what) : std::runtime_error(what) {}
};

/// Copyable handle on a shared cancellation flag. All copies observe the
/// same request. cancel() may race with cancelled() from any thread; the
/// flag is a relaxed load on the hot path (the unwind itself synchronizes
/// via the exception propagation and queue edges, not via this flag).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Request cancellation. Idempotent, thread-safe.
  void cancel() const { flag_->store(true, std::memory_order_relaxed); }

  /// Clear the flag so the token can guard the next call. Only the owning
  /// stage thread calls this, between calls.
  void reset() const { flag_->store(false, std::memory_order_relaxed); }

  /// True once cancel() was called (and not reset since).
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The token installed on the current thread, or nullptr. Kernel-level
/// checks go through check_cancel() instead; this accessor exists for
/// blocking work (a fault-injected stall, a sliced sleep) that must poll
/// without the exception cost.
const CancelToken* current_cancel_token();

/// True when a token is installed on this thread and it is cancelled.
inline bool cancel_requested() {
  const CancelToken* t = current_cancel_token();
  return t != nullptr && t->cancelled();
}

/// Throw CancelledError when the current thread's token is cancelled.
/// No-op (one thread-local load) when no token is installed.
void check_cancel();

/// RAII installer: makes `token` the current thread's cancel token for the
/// enclosing scope and restores the previous one on exit. Nests — an inner
/// scope (e.g. a pool worker running a chunk of an outer loop) shadows and
/// then restores the outer token.
class ScopedCancelToken {
 public:
  explicit ScopedCancelToken(const CancelToken& token);
  ~ScopedCancelToken();

  ScopedCancelToken(const ScopedCancelToken&) = delete;
  ScopedCancelToken& operator=(const ScopedCancelToken&) = delete;

 private:
  const CancelToken* prev_;
};

}  // namespace ffsva::runtime
