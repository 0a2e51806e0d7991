// Runtime lock-rank verification (DESIGN.md Section 16).
//
// The static layer — tools/ffsva_lockgraph.py over the thread-safety
// annotations — proves the *program text* acquires locks in one global
// order. This header is the dynamic witness of the same order: every
// long-lived Mutex in the tree carries a rank from the table below, and in
// sanitizer/debug builds a thread-local stack of held ranks aborts the
// process (printing both lock names) the first time any thread acquires a
// lock whose rank is not strictly greater than the one on top of its
// stack. TSan runs, the ASan fault matrix, and the cluster smoke test
// therefore execute the statically proven order on real schedules.
//
// Cost model:
//  * Release builds (NDEBUG, no FFSVA_LOCK_RANK_CHECKS): the check hooks
//    are empty inlines — the locking fast path compiles to exactly the
//    pre-rank code. Only the two POD members on Mutex remain.
//  * Checked builds: unranked mutexes (rank 0 — locals, fixtures, tests)
//    pay one predictable branch and touch no thread-local state.
//
// The rank table is the acquisition order, coarse-to-fine: control-plane
// locks first, engine state next, runtime leaf primitives last. A new
// mutex slots in wherever its acquisition edges demand; leave gaps. The
// same order is written into the annotations via FFSVA_ACQUIRED_BEFORE /
// _AFTER where the related locks are nameable, and cross-checked against
// the measured edge set by `tools/ffsva_lockgraph.py` (rule rank-order).
#pragma once

#include <cstdint>

// Checks are on whenever asserts are (Debug) or when the build opts in
// (the CMake presets define FFSVA_LOCK_RANK_CHECKS for every sanitizer
// build; -DFFSVA_LOCK_RANKS=ON forces it for any build type).
#if !defined(NDEBUG) || defined(FFSVA_LOCK_RANK_CHECKS)
#define FFSVA_LOCK_RANK_CHECKS_ENABLED 1
#else
#define FFSVA_LOCK_RANK_CHECKS_ENABLED 0
#endif

namespace ffsva::runtime {

namespace rank {

/// Rank 0 = unranked: never pushed on the held stack, never checked.
inline constexpr std::uint32_t kNone = 0;

// --- Control plane (outermost) ---------------------------------------------
/// node::NodeServer::mu_ — stream-ownership maps around one engine.
inline constexpr std::uint32_t kNodeControl = 100;
/// core::FfsVaInstance::streams_mu_ — add/end/stop serialization; held
/// across the stop() close sweep and the dynamic-attach publication.
inline constexpr std::uint32_t kEngineStreams = 200;
/// core::ClusterManager::mu_ — placement/admission state.
inline constexpr std::uint32_t kClusterManager = 250;
/// core::FfsVaInstance::outputs_mu_ — sink-less output collection.
inline constexpr std::uint32_t kEngineOutputs = 300;

// --- Telemetry / supervision ------------------------------------------------
/// telemetry::Registry::mu_ — metric maps; gauge callbacks run under it,
/// so anything a callback locks must rank higher.
inline constexpr std::uint32_t kTelemetryRegistry = 400;
/// telemetry::TraceBuffer::mu_ — span-ring registration.
inline constexpr std::uint32_t kTraceBuffer = 420;
/// runtime::Watchdog::mu_ — tick/stop handshake (check() runs unlocked).
inline constexpr std::uint32_t kWatchdog = 450;

// --- Compute runtime --------------------------------------------------------
/// parallel_for's ComputePool::mu — held across the worker set's
/// construction and teardown (which takes the queue lock and joins).
inline constexpr std::uint32_t kComputePool = 600;
/// parallel_for's Workers::mu_ — the queue of loops awaiting a helper.
inline constexpr std::uint32_t kComputeQueue = 610;
/// parallel_for LoopState::mu — per-loop join/error handshake.
inline constexpr std::uint32_t kLoopJoin = 620;

// --- Queue leaves (innermost) -----------------------------------------------
/// runtime::BoundedQueue::mu_ — per-queue state; closed under
/// kEngineStreams by the stop sweep.
inline constexpr std::uint32_t kBoundedQueue = 700;
/// runtime::QueueWaiter::mu_ — eventcount park/notify handshake; notified
/// while kEngineStreams (and conceptually any queue) is held.
inline constexpr std::uint32_t kQueueWaiter = 800;

}  // namespace rank

/// True when this build validates lock ranks at runtime.
constexpr bool lock_rank_checks_enabled() {
  return FFSVA_LOCK_RANK_CHECKS_ENABLED != 0;
}

namespace lockrank_detail {

#if FFSVA_LOCK_RANK_CHECKS_ENABLED
/// Validate `r` against the calling thread's held-rank stack (abort with
/// both lock names on inversion), then push. rank 0 is a no-op.
void acquire(std::uint32_t r, const char* name);
/// Pop `r` from the held stack (tolerates out-of-LIFO release — a
/// UniqueLock::unlock under a later MutexLock). rank 0 is a no-op.
void release(std::uint32_t r, const char* name) noexcept;
/// Ranked locks currently held by the calling thread (test hook).
int held_depth() noexcept;
#else
inline void acquire(std::uint32_t, const char*) {}
inline void release(std::uint32_t, const char*) noexcept {}
inline int held_depth() noexcept { return 0; }
#endif

}  // namespace lockrank_detail

/// Ranked locks currently held by the calling thread. Always 0 when checks
/// are compiled out.
inline int lock_rank_held_depth() { return lockrank_detail::held_depth(); }

}  // namespace ffsva::runtime
