// Deterministic fault injection for frame sources — the test and bench
// harness for the engine's supervision layer (DESIGN.md Section 9).
//
// Wraps any FrameSource and perturbs its output with the failure modes a
// real camera fleet exhibits: transient decode errors, fatal session
// drops, hard stalls inside next(), latency spikes, premature end of
// stream, and corrupt frames (full-size noise or zero-size truncation).
// Every stochastic decision draws from a seeded xoshiro256**, so a given
// (plan, seed) pair replays the identical fault sequence — fault runs are
// as reproducible as clean ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "runtime/rng.hpp"
#include "video/source.hpp"

namespace ffsva::video {

/// What to inject and when. Index-pinned faults (`*_at`) count next()
/// invocations on this wrapper (not inner frame indices), so a fault fires
/// at a reproducible point regardless of earlier stochastic faults.
struct FaultPlan {
  // Stochastic, per-call probabilities.
  double p_transient = 0.0;      ///< Throw a transient SourceError (decode error).
  double p_latency_spike = 0.0;  ///< Sleep latency_spike_ms before decoding.
  double p_corrupt = 0.0;        ///< Replace the frame's pixels with noise.
  double p_truncated = 0.0;      ///< Emit a zero-size frame (truncated decode).
  int latency_spike_ms = 5;

  // Index-pinned, one-shot faults (-1 = never).
  std::int64_t transient_at = -1;      ///< One transient error at this call.
  std::int64_t fatal_at = -1;          ///< Fatal SourceError at this call.
  std::int64_t stall_at = -1;          ///< Hard stall (sleep stall_ms) at this call.
  std::int64_t premature_eos_at = -1;  ///< End of stream at this call.
  int stall_ms = 0;

  /// Whether restart() revives the source after a fatal error. A revived
  /// source resumes at its pre-fault position (no frame loss).
  bool restartable = true;

  /// Optional completion latch for the stall: set to true once the stall
  /// ends — either the full sleep elapsed or a watchdog cancel unwound it
  /// early (the stall polls the thread's CancelToken and throws
  /// CancelledError when cancelled). Tests that injected a stall wait on
  /// this instead of guessing at sleep durations.
  std::shared_ptr<std::atomic<bool>> stall_done;
};

/// Counts of the faults actually injected (for assertions and bench rows).
struct FaultLog {
  std::uint64_t transient_errors = 0;
  std::uint64_t fatal_errors = 0;
  std::uint64_t stalls = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t corrupted_frames = 0;
  std::uint64_t truncated_frames = 0;
  std::uint64_t premature_eos = 0;
};

class FaultInjectingSource final : public FrameSource {
 public:
  FaultInjectingSource(std::unique_ptr<FrameSource> inner, FaultPlan plan,
                       std::uint64_t seed);

  std::optional<Frame> next() override;
  std::int64_t total_frames() const override { return inner_->total_frames(); }
  bool restart() override;

  const FaultLog& log() const { return log_; }

 private:
  std::unique_ptr<FrameSource> inner_;
  FaultPlan plan_;
  runtime::Xoshiro256 rng_;
  FaultLog log_;
  std::int64_t calls_ = 0;       ///< next() invocations (fault-index timebase).
  bool fatal_latched_ = false;   ///< Fatal fired; next() keeps throwing
                                 ///< until restart().
  bool eos_latched_ = false;     ///< Premature EOS fired; stream stays ended.
};

}  // namespace ffsva::video
