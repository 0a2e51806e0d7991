// FFS-VA system configuration (paper Sections 3-4).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ffsva::core {

/// SNM batching policy (Section 4.3.2 / Figures 9-10):
///  * kStatic   — always wait for a full BatchSize of frames (queues are
///                effectively unbounded; no feedback).
///  * kFeedback — feedback-queue mechanism alone: bounded queues throttle
///                upstream stages; SNM waits for min(BatchSize, queue
///                threshold) frames.
///  * kDynamic  — feedback plus dynamic batch: SNM takes whatever is
///                waiting, up to BatchSize, and never waits for more.
enum class BatchPolicy : std::uint8_t { kStatic = 0, kFeedback = 1, kDynamic = 2 };

const char* to_string(BatchPolicy p);

/// What the engine does with a frame whose model call threw (a corrupt
/// frame a filter cannot evaluate, a failing model):
///  * kDrop   — the frame terminates at the throwing stage, counted in the
///              stream's degraded_frames (conservative: never emit an
///              unvetted frame).
///  * kBypass — the frame skips the throwing filter and rides to the next
///              stage, counted as degraded (recall-preserving: a broken
///              cheap filter must not silence a stream; the later stages —
///              ultimately the reference model — still vet the frame).
enum class DegradePolicy : std::uint8_t { kDrop = 0, kBypass = 1 };

const char* to_string(DegradePolicy p);

/// How the GPU1 reference stage consumes its queue:
///  * kBatch    — drain ref_q in cross-stream micro-batches of up to
///                ref_batch_size frames under the shared BatchPolicy and
///                evaluate them together (detect_batch), amortizing setup
///                and exploiting the device's internal parallelism.
///                ref_batch_size = 1 is the paper's deployment: one frame
///                per detect() call.
///  * kCropPack — object-level consolidation (Rivas et al.): pack padded
///                candidate crops (T-YOLO's boxes) from many streams into
///                mosaic canvases and run the reference model once per
///                mosaic, falling back to full-frame detection for frames
///                whose candidate area exceeds the packing coverage
///                threshold (detect::CropPackConfig).
enum class RefMode : std::uint8_t { kBatch = 1, kCropPack = 2 };

const char* to_string(RefMode m);

/// How the prefetch stage reconstructs frames from a stored bitstream:
///  * kFull   — decode every frame before SDD (default; bit-for-bit the
///              pre-hint engine behaviour).
///  * kHinted — consult the codec's per-frame residual summary first
///              (detect::CompressedSdd) and skip reconstruction entirely
///              for frames the hint proves SDD would drop, falling back to
///              full decode + pixel SDD for borderline frames
///              (DESIGN.md §13). Applies to offline streams whose source
///              carries hints; everything else decodes as kFull.
enum class DecodePolicy : std::uint8_t { kFull = 0, kHinted = 1 };

const char* to_string(DecodePolicy p);

struct FfsVaConfig {
  // --- user-facing event definition (Section 4.2) -------------------------
  // FilterDegree is a property of each stream's SNM
  // (detect::SnmFilter::set_filter_degree), not of the engine.
  int number_of_objects = 1;    ///< Minimum target count a frame must carry.

  // --- batching (Section 4.3.2) -------------------------------------------
  BatchPolicy batch_policy = BatchPolicy::kDynamic;
  int batch_size = 16;

  // --- feedback-queue thresholds (Section 4.3.1: "2, 10, and 2 as the
  // queue depth thresholds of the SDD queues, SNM queues, and T-YOLO
  // queues respectively") ---------------------------------------------------
  int sdd_queue_depth = 2;
  int snm_queue_depth = 10;
  int tyolo_queue_depth = 2;
  /// The reference model's input queue. The paper fixes only the three
  /// filter-queue thresholds above; this queue must be deep enough that a
  /// scene burst saturating the reference GPU does not block the single
  /// shared T-YOLO service (which would stall every stream at once).
  /// Depth 64 ≈ 1 s of reference-model work — the backlog that shows up
  /// as the multi-second latencies of Figure 3 near the stream limit.
  int ref_queue_depth = 64;

  /// Max frames T-YOLO extracts from one stream's queue per service cycle
  /// (inter-stream load balancing, Section 3.2.3 / 4.3.1).
  int num_tyolo = 4;

  // --- GPU1 reference stage: micro-batching + crop consolidation -----------
  /// How the reference loop consumes ref_q (see RefMode). kBatch emits the
  /// same outputs at every ref_batch_size (same per-frame model, same
  /// per-stream FIFO order, same drop-on-error contract); kCropPack trades a
  /// bounded detection delta for running the expensive model on candidate
  /// pixels only.
  RefMode ref_mode = RefMode::kBatch;
  /// Micro-batch cap for the reference stage (mirrors batch_size for SNM);
  /// 1 = one frame per reference-model call. Its DynamicBatcher takes
  /// ref_queue_depth as the queue threshold, as the SNM batcher takes
  /// snm_queue_depth. Crop packing uses detect::CropPackConfig's defaults.
  int ref_batch_size = 8;

  // --- engine sizing --------------------------------------------------------
  /// SDD worker-pool size. The engine runs a fixed pool of CPU workers over
  /// all streams' SDD queues (total thread count O(workers), not
  /// O(streams)); 0 = auto, which resolves to the FFSVA_THREADS compute
  /// parallelism capped by the stream count.
  int sdd_workers = 0;
  /// Frames one SDD worker processes from a claimed stream before
  /// rescanning: bounds how long a busy stream can monopolize a worker when
  /// streams outnumber workers.
  int sdd_run_length = 32;

  // --- ingest: codec-aware decode (DESIGN.md §13) --------------------------
  /// Compressed-domain fast path through prefetch (see DecodePolicy). The
  /// hint band is detect::kHintRelax.
  DecodePolicy decode_policy = DecodePolicy::kFull;

  // --- online mode ----------------------------------------------------------
  double online_fps = 30.0;

  // --- supervision (fault tolerance; DESIGN.md Section 9) ------------------
  /// A stream's prefetch call (a source decode, a fused stream's pixel SDD)
  /// in flight for longer than this quarantines the stream: the stream's
  /// queues are closed and drained, its counters freeze, and the other
  /// streams keep running. 0 disables stall detection (a hung source then
  /// blocks its stream forever — the pre-supervision behavior).
  int stall_timeout_ms = 0;
  /// Wall-clock budget for run(); past it the watchdog invokes stop() and
  /// the run winds down gracefully. 0 = no deadline.
  int run_deadline_ms = 0;
  /// Per-frame behavior when a model call throws.
  DegradePolicy degrade_policy = DegradePolicy::kDrop;
  /// Consecutive transient SourceErrors retried (with exponential backoff)
  /// before the prefetch loop escalates to a source restart. The restart
  /// and backoff budgets are constants in pipeline.cpp.
  int source_max_retries = 3;
  /// A model call (SDD distance, SNM/T-YOLO forward, reference
  /// segmentation, source decode) in flight for longer than this is
  /// cancelled by the watchdog: the call unwinds via CancelledError at its
  /// next tile boundary, the frame follows degrade_policy (a frame's second
  /// wedge poisons it), and the stage keeps serving (DESIGN.md Section 14).
  /// 0 disables cancellation — a wedged call is then only observed via
  /// health.stage_stall_ticks.
  int model_call_timeout_ms = 0;

  // --- dynamic streams / cluster serving (DESIGN.md §15) -------------------
  /// Serve mode when > 0. 0 (default) keeps the classic contract: every
  /// stream is registered before run(), the set is fixed, and run() returns
  /// once the last stream drains. > 0 reserves that many stream slots so a
  /// control plane (an ffsva_node serving hand-offs) can attach streams to
  /// a live engine with add_stream(), and keeps the stage workers alive
  /// when every stream has ended, until stop() is called. add_stream()
  /// fails once the reservation is exhausted.
  int max_streams = 0;

  // --- telemetry -----------------------------------------------------------
  /// Sampling period of the live metrics exporter (JSONL rows): queue
  /// depths, per-stage FPS, drop rates, supervision counters. Used when
  /// metrics export is enabled via FfsVaInstance::enable_metrics_export.
  int metrics_interval_ms = 100;

  /// Serve mode (see max_streams).
  bool serving() const { return max_streams > 0; }
};

/// Every stage queue's capacity in frames: per stream SDD, SNM and T-YOLO,
/// and the shared reference queue.
struct QueuePlan {
  std::size_t sdd = 0;
  std::size_t snm = 0;
  std::size_t tyolo = 0;
  std::size_t ref = 0;
};

/// The one rule for stage queue capacities, read by the engine, the
/// simulator and the cluster manager. Static batching runs without
/// feedback, so its queues are effectively unbounded; otherwise each queue
/// is bounded at its threshold. Online, the SDD queue is the live-capture
/// ring instead: a camera cannot block, so bursts ride out there (~4 s at
/// 30 FPS) and a frame is lost only once it overflows. Only `sdd` depends
/// on `online`.
inline QueuePlan queue_plan(const FfsVaConfig& cfg, bool online) {
  constexpr std::size_t kUnbounded = 4096;
  constexpr std::size_t kLiveRing = 128;
  const auto cap = [&cfg](int threshold) {
    return cfg.batch_policy == BatchPolicy::kStatic
               ? kUnbounded
               : static_cast<std::size_t>(threshold);
  };
  return {online ? kLiveRing : cap(cfg.sdd_queue_depth), cap(cfg.snm_queue_depth),
          cap(cfg.tyolo_queue_depth), cap(cfg.ref_queue_depth)};
}

}  // namespace ffsva::core
