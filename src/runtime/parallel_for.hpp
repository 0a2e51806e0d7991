// Data-parallel loops over a shared, process-wide set of compute workers.
//
// The inference hot path fans out only over independent items (conv batch
// samples, frames in batch preprocessing and detection, crop-pack units).
// That wants fork-join parallelism, not long-lived stage threads, so the
// workers are private to parallel_for: each one runs the chunks of one
// queued loop at a time. Chunk loops never block on queues, which keeps
// fork-join free of starvation no matter what the pipeline threads are doing.
//
// Sizing: FFSVA_THREADS in the environment, else std::hardware_concurrency.
// With parallelism 1 every parallel_for degrades to a plain serial loop
// (no worker is started at all). The caller always participates in the
// work, stealing chunks through a shared atomic cursor, so busy workers can
// delay but never deadlock a join — even for nested parallel_for calls.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace ffsva::runtime {

/// Current compute parallelism (>= 1): workers available to parallel_for
/// including the calling thread.
int compute_parallelism();

/// Override the compute parallelism (tests / benchmarks; also the hook the
/// FFSVA_THREADS knob resolves through). Restarts the workers; must not be
/// called while parallel loops are in flight.
void set_compute_parallelism(int n);

namespace detail {

/// Type-erased chunk body: invoke(ctx, chunk_begin, chunk_end).
using ChunkFn = void (*)(void*, std::int64_t, std::int64_t);

void parallel_for_impl(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       std::int64_t chunks, ChunkFn invoke, void* ctx);

}  // namespace detail

/// Split [begin, end) into chunks of ~`grain` iterations and run
/// fn(chunk_begin, chunk_end) across the compute workers. The calling thread
/// participates. Serial — and allocation-free, which the zero-alloc
/// inference contract relies on — when the range fits a single chunk or
/// parallelism is 1; the callable is passed by reference (no std::function
/// conversion) either way. Exceptions thrown by fn are rethrown on the
/// calling thread (first one wins); remaining chunks are abandoned.
/// The caller's CancelToken (runtime/cancel.hpp), if one is installed, is
/// re-installed on every worker running this loop's chunks, so a
/// check_cancel() in the body unwinds the whole loop via CancelledError.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const std::int64_t chunks = (n + grain - 1) / grain;
  if (chunks <= 1 || compute_parallelism() <= 1) {
    fn(begin, end);
    return;
  }
  detail::parallel_for_impl(
      begin, end, grain, chunks,
      [](void* ctx, std::int64_t b, std::int64_t e) {
        (*static_cast<std::remove_reference_t<Fn>*>(ctx))(b, e);
      },
      // Type-erasure const_cast, audited: the trampoline above casts back to
      // std::remove_reference_t<Fn>*, which re-applies const when Fn deduced
      // const — a const callable is never invoked through a non-const path.
      // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast)
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

}  // namespace ffsva::runtime
