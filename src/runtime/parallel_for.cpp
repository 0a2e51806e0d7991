// relaxed-ok: the chunk cursor and failure flag are independent counters —
// the join's happens-before edge is the acq_rel `finished` counter plus the
// mutex around `error`; see LoopState below.
#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/annotations.hpp"
#include "runtime/cancel.hpp"

namespace ffsva::runtime {

namespace {

int parallelism_from_env() {
  if (const char* env = std::getenv("FFSVA_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(std::min<long>(v, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Shared state of one parallel loop. Heap-owned (shared_ptr) by the
/// caller and every queued helper entry: a helper may be scheduled only
/// after the join returned (or never, if every chunk was drained first), so
/// it must not touch the caller's stack. The join condition is "every
/// *chunk* finished", which the participating caller can always drive to
/// completion on its own — a queued helper that never runs claims no
/// chunks, so nested loops cannot deadlock even when all workers are
/// blocked in inner joins. `ctx` points into the caller's frame, but is
/// only dereferenced for a claimed chunk, and the join outlives every
/// claimed chunk by construction.
struct LoopState {
  LoopState(std::int64_t begin_, std::int64_t end_, std::int64_t grain_,
            std::int64_t chunks_, detail::ChunkFn invoke_, void* ctx_)
      : invoke(invoke_), ctx(ctx_), begin(begin_), end(end_), grain(grain_),
        chunks(chunks_) {
    // Capture the caller's cancel token (an aliasing copy — shared state,
    // so a late helper scheduled after the join can still install it
    // safely) and re-install it on every worker running this loop's
    // chunks: check_cancel() inside a chunk body then observes the same
    // cancellation request from every lane.
    if (const CancelToken* t = current_cancel_token()) token.emplace(*t);
  }

  const detail::ChunkFn invoke;
  void* const ctx;
  const std::int64_t begin, end, grain, chunks;
  std::optional<CancelToken> token;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> finished{0};
  std::atomic<bool> failed{false};
  Mutex mu{rank::kLoopJoin, "LoopState::mu"};
  CondVar cv;
  std::exception_ptr error FFSVA_GUARDED_BY(mu);

  void run_chunks() FFSVA_EXCLUDES(mu) {
    std::optional<ScopedCancelToken> scope;
    if (token) scope.emplace(*token);
    for (;;) {
      const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunks) break;
      // A claimed chunk must always be counted finished, even when it is
      // skipped after a failure, or the join would wait forever.
      if (!failed.load(std::memory_order_relaxed)) {
        const std::int64_t b = begin + i * grain;
        try {
          invoke(ctx, b, std::min(end, b + grain));
        } catch (...) {
          MutexLock lk(mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        MutexLock lk(mu);  // Pairs with the join's predicate check.
        cv.notify_all();
      }
    }
  }
};

/// The helper threads: each pops one queued loop and runs its chunks. The
/// destructor drops still-queued entries before joining — safe because a
/// helper that never runs claims no chunks, so no join waits on it.
class Workers {
 public:
  explicit Workers(int n) {
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) threads_.emplace_back([this] { run(); });
  }

  ~Workers() FFSVA_EXCLUDES(mu_) {
    {
      MutexLock lk(mu_);
      stopping_ = true;
      queue_.clear();
    }
    ready_.notify_all();
    for (auto& t : threads_) t.join();
  }

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Queue `helpers` entries for `st`, waking one worker per entry.
  void post(const std::shared_ptr<LoopState>& st, int helpers)
      FFSVA_EXCLUDES(mu_) {
    {
      MutexLock lk(mu_);
      for (int i = 0; i < helpers; ++i) queue_.push_back(st);
    }
    for (int i = 0; i < helpers; ++i) ready_.notify_one();
  }

 private:
  void run() FFSVA_EXCLUDES(mu_) {
    for (;;) {
      std::shared_ptr<LoopState> st;
      {
        UniqueLock lk(mu_);
        while (!stopping_ && queue_.empty()) ready_.wait(lk);
        if (stopping_) return;
        st = std::move(queue_.front());
        queue_.pop_front();
      }
      st->run_chunks();
    }
  }

  Mutex mu_{rank::kComputeQueue, "parallel_for::Workers::mu_"};
  CondVar ready_;
  // bounded-ok: at most workers-count entries per loop in flight, and the
  // loops in flight are bounded by the threads that can call parallel_for.
  std::deque<std::shared_ptr<LoopState>> queue_ FFSVA_GUARDED_BY(mu_);
  bool stopping_ FFSVA_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  ///< Written by the ctor only.
};

struct ComputePool {
  // Held across Workers construction/destruction, which takes the queue
  // lock (kComputeQueue) and joins the threads.
  Mutex mu{rank::kComputePool, "ComputePool::mu"};
  std::unique_ptr<Workers> workers FFSVA_GUARDED_BY(mu);
  int parallelism FFSVA_GUARDED_BY(mu) = 0;  // 0 = not yet resolved

  int ensure(int requested) FFSVA_EXCLUDES(mu) {
    MutexLock lk(mu);
    const int want = requested > 0 ? requested
                     : parallelism > 0 ? parallelism
                                       : parallelism_from_env();
    if (want == parallelism) return parallelism;
    workers.reset();
    // The caller is worker number `want`; the set supplies the rest.
    if (want > 1) workers = std::make_unique<Workers>(want - 1);
    parallelism = want;
    return parallelism;
  }

  Workers* get() FFSVA_EXCLUDES(mu) {
    ensure(0);
    MutexLock lk(mu);
    return workers.get();
  }
};

ComputePool& state() {
  static auto* s = new ComputePool();  // leaked: outlives any static user
  return *s;
}

}  // namespace

int compute_parallelism() { return state().ensure(0); }

void set_compute_parallelism(int n) { state().ensure(std::max(1, n)); }

namespace detail {

void parallel_for_impl(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       std::int64_t chunks, ChunkFn invoke, void* ctx) {
  Workers* workers = state().get();
  if (workers == nullptr) {
    invoke(ctx, begin, end);
    return;
  }

  auto st = std::make_shared<LoopState>(begin, end, grain, chunks, invoke, ctx);
  workers->post(st, static_cast<int>(std::min<std::int64_t>(workers->size(),
                                                            chunks - 1)));
  st->run_chunks();
  if (st->finished.load(std::memory_order_acquire) != chunks) {
    UniqueLock lk(st->mu);
    while (st->finished.load(std::memory_order_acquire) != chunks) st->cv.wait(lk);
  }
  std::exception_ptr error;
  {
    MutexLock lk(st->mu);
    error = st->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

}  // namespace ffsva::runtime
