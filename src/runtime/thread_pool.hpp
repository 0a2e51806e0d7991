// Fixed-size worker pool.
//
// FFS-VA runs the SDDs of all streams on the CPU (paper Section 3.1.2); the
// threaded engine multiplexes them over this pool instead of spawning one
// OS thread per stream when stream counts are large. Tasks are type-erased
// std::function<void()>; submit() returns a future-like completion via
// wait_idle() because pipeline stages track their own results through
// queues, not return values.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/annotations.hpp"

namespace ffsva::runtime {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Returns false if the pool is shutting down.
  bool submit(std::function<void()> task) FFSVA_EXCLUDES(mu_);

  /// Block until every submitted task has finished and the queue is empty.
  void wait_idle() FFSVA_EXCLUDES(mu_);

  /// Stop accepting tasks, finish queued work, join workers. Idempotent.
  void shutdown() FFSVA_EXCLUDES(mu_);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() FFSVA_EXCLUDES(mu_);

  mutable Mutex mu_{rank::kThreadPool, "ThreadPool::mu_"};
  CondVar work_available_;
  CondVar idle_;
  // bounded-ok: the pool's own task queue; producers are the engine's
  // bounded stages and fork-join loops, whose outstanding submits are
  // bounded by chunk counts, not an inter-thread frame channel.
  std::deque<std::function<void()>> tasks_ FFSVA_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  ///< Written by ctor/shutdown only.
  std::size_t active_ FFSVA_GUARDED_BY(mu_) = 0;
  bool stopping_ FFSVA_GUARDED_BY(mu_) = false;
};

// --- CPU-affinity helpers ----------------------------------------------------
// Used by the engine to pin ingest (prefetch/decode) threads so they stop
// migrating across — and fighting with — the compute pool's cores
// (DESIGN.md §13). Affinity is a hint: on platforms without an affinity
// API, or when the requested CPU is outside the process mask, pinning
// degrades to a no-op and the engine runs exactly as before.

/// CPUs available to this process (the affinity mask's population when the
/// platform exposes one, hardware_concurrency otherwise; always >= 1).
int cpu_count();

/// Pin the calling thread to the (cpu mod cpu_count())-th CPU of the
/// process's affinity mask. Returns true if the pin took effect.
bool pin_current_thread(int cpu);

/// The ingest-affinity base CPU from the FFSVA_AFFINITY environment
/// variable: stream i's prefetch thread pins to CPU (base + i) mod
/// cpu_count. Unset, empty, "off" or unparseable means no pinning (-1).
int resolve_ingest_affinity();

}  // namespace ffsva::runtime
