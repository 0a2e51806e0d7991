// Simulated FFS-VA instance and YOLOv2-only baseline.
//
// The full four-stage pipeline — prefetch/decode, SDD (CPU pool), SNM
// (GPU0, batched, per-stream weights), global T-YOLO (GPU0, round-robin,
// per-stream cap), reference model (GPU1) — executed under virtual time
// with the calibrated cost models of detect/cost_model.hpp. The policy
// objects (DynamicBatcher, TYoloScheduler) are the production classes from
// core/policies.hpp; the feedback-queue thresholds are the bounds of the
// SimQueues.
//
// Per-frame filter outcomes come from an OutcomeSource: either a replayed
// real trace or a calibrated Markov generator (sim/outcome.hpp).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "detect/cost_model.hpp"
#include "runtime/stats.hpp"
#include "sim/outcome.hpp"

namespace ffsva::telemetry {
class TraceBuffer;
}

namespace ffsva::sim {

struct SimCosts {
  detect::ModelCost sdd = detect::calibrated::sdd();
  detect::ModelCost snm = detect::calibrated::snm();
  detect::ModelCost tyolo = detect::calibrated::tyolo();
  detect::ModelCost ref = detect::calibrated::yolov2();
  double decode_us = detect::calibrated::decode_us_per_frame();
  int cpu_cores = 28;  ///< Dual Xeon E5-2683v3 (Section 5.1).
};

struct SimSetup {
  core::FfsVaConfig config;
  SimCosts costs;
  int num_streams = 1;
  bool online = true;
  /// Online: simulate this much stream time. Offline: ignored.
  double duration_sec = 120.0;
  /// Frames each stream supplies (offline length; online cap).
  std::int64_t frames_per_stream = 5000;
  /// Factory for each stream's per-frame outcomes.
  std::function<std::unique_ptr<OutcomeSource>(int stream)> make_outcomes;

  // --- telemetry (virtual-time) --------------------------------------------
  /// When set, stage completions are recorded as spans with *virtual*
  /// timestamps (lanes: tid 1 = GPU0, 2 = GPU1, 3 = CPU pool). The caller
  /// owns the buffer and must enable() it; export with write_chrome_trace.
  telemetry::TraceBuffer* trace = nullptr;
  /// When set, one metrics JSONL row (same schema as the engine's live
  /// exporter) is appended per metrics_interval_ms of *virtual* time, plus
  /// a final row when the run drains.
  std::ostream* metrics_sink = nullptr;
  int metrics_interval_ms = 100;
  std::string metrics_label;
};

/// One simulated stream: the engine's per-stream counters, plus when its
/// last frame terminated.
struct SimStreamStats : core::StreamCounters {
  double finish_time_sec = 0.0;
};

struct SimResult {
  std::vector<SimStreamStats> streams;
  core::StreamCounters total;  ///< Every stream's counters, summed.
  double sim_time_sec = 0.0;

  /// Frames fully processed per second of virtual time (offline throughput).
  double throughput_fps = 0.0;
  /// Fraction of arrived frames dropped at ingest (online overload signal).
  double drop_rate = 0.0;
  /// A stream is "supported in real time" when (almost) nothing is dropped.
  bool realtime = false;

  runtime::Histogram output_latency_ms;    ///< Arrival -> reference output.
  runtime::Histogram terminal_latency_ms;  ///< Arrival -> filtered or output.

  double gpu0_utilization = 0.0;
  double gpu1_utilization = 0.0;
  double cpu_utilization = 0.0;
  double tyolo_service_fps = 0.0;   ///< Mean frames/sec through T-YOLO.
  std::int64_t gpu0_model_switches = 0;
  double mean_snm_batch = 0.0;      ///< Realized average SNM batch size.
};

/// Simulate one FFS-VA instance.
SimResult simulate_ffsva(const SimSetup& setup);

/// Simulate the paper's baseline: every frame of every stream through
/// YOLOv2 on both GPUs (no filtering).
SimResult simulate_baseline(const SimSetup& setup);

/// Binary-search the maximum stream count a configuration sustains in real
/// time (drop rate <= `max_drop_rate`). Figure 3/4/6a's headline metric.
int max_realtime_streams(const SimSetup& base, int lo, int hi,
                         double max_drop_rate = 0.005,
                         bool baseline = false);

}  // namespace ffsva::sim
