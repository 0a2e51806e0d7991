// The FFS-VA threaded pipeline engine (paper Sections 3.1.2 and 4.3).
//
// Stages are decoupled by bounded queues whose capacities are the paper's
// feedback-queue thresholds ({2, 10, 2}); a blocking push *is* the feedback
// throttle. The thread model scales with the host, not the stream count:
//
//  * one prefetch thread per stream (a camera / decoder is inherently
//    per-stream),
//  * a fixed-size SDD worker pool (config.sdd_workers, default the
//    FFSVA_THREADS compute parallelism) multiplexing every stream's SDD
//    queue on the CPU — per-stream FIFO order is preserved by a per-stream
//    claim token, so at most one worker serves a given stream at a time,
//  * ONE GPU0 executor thread that owns the device outright: it drains all
//    streams' SNM queues into cross-stream batches under the BatchPolicy
//    (the shared DynamicBatcher), routes each sub-batch to its stream's
//    SNM, and interleaves T-YOLO micro-batches under the round-robin
//    TYoloScheduler with the per-stream `num_tyolo` cap. Device
//    exclusivity holds by construction — no GPU0 mutex, no contention,
//  * one reference-model thread (GPU1) draining the survivors. Under
//    RefMode::kBatch it consumes ref_q in cross-stream micro-batches
//    (a DynamicBatcher + detect_batch, work spread over the compute pool;
//    ref_batch_size = 1 is the paper's one-frame loop); under
//    RefMode::kCropPack it consolidates T-YOLO's candidate boxes from many
//    streams into mosaic canvases first (detect/crop_pack.hpp). Both keep
//    GPU1 single-owner and preserve per-stream FIFO order and the per-frame
//    drop-on-error contract.
//
// Every stage applies one per-frame contract, written once in pipeline.cpp:
// a model call (model_call()) ends with a verdict, a wedge or a failure;
// a call without a verdict goes through one failure rule (Stream::failed);
// and every frame ends exactly once, through one terminal routine
// (Stream::end) that does the counting. The per-stream atomics are the only
// store of the counts, and StreamCounters (core/counters.hpp) is their one
// schema — snapshot(), run()'s InstanceStats, the snapshot wire payload and
// the registry's per-stream metrics all read them through it.
//
// Stage workers sleep on QueueWaiter eventcounts wired to their input
// queues (runtime/bounded_queue.hpp) and are woken by queue activity — the
// engine has no polling loops.
//
// This engine is the *correctness* vehicle (end-to-end behaviour, ordering,
// no-loss, backpressure, accuracy); calibrated performance numbers come
// from the discrete-event simulator in src/sim, which runs the same policy
// objects (src/core/policies.hpp) under virtual time.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/counters.hpp"
#include "core/policies.hpp"
#include "detect/specialize.hpp"
#include "runtime/annotations.hpp"
#include "runtime/bounded_queue.hpp"
#include "runtime/stats.hpp"
#include "runtime/supervision.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "video/source.hpp"

namespace ffsva::core {

/// A frame that survived the whole cascade, plus its reference-model result.
struct OutputEvent {
  video::Frame frame;
  detect::DetectionResult result;
  double latency_ms = 0.0;  ///< Ingest-to-output time.
};

/// One stream after run(): its counters plus what only a finished run
/// reports — latency distributions and the realized ingest rate.
struct StreamStats : StreamCounters {
  /// Ingest-to-end latency of every emitted or dropped frame (not of frames
  /// discarded by stop/quarantine or lost at ingest).
  runtime::Histogram latency_ms;
  double ingest_fps = 0.0;        ///< Realized ingest rate.
  runtime::Histogram decode_ms;   ///< Decode-stage latency (per frame).
};

/// Instance-level health rollup: how many streams finished clean, how many
/// saw (survivable) faults, how many the watchdog had to quarantine.
struct HealthSummary {
  int healthy_streams = 0;      ///< No fault counter ticked.
  int degraded_streams = 0;     ///< Faults observed, stream completed.
  int quarantined_streams = 0;  ///< Quarantined by the watchdog.
  /// Every stream's faults, summed; `fault.cancelled_calls` counts the
  /// calls the watchdog cancelled (DESIGN.md Section 14).
  FaultStats fault;
  /// Watchdog ticks on which a *shared* stage (an SDD worker, the GPU0
  /// executor, the reference thread) was busy past the stall timeout.
  /// Shared stages cannot be quarantined per stream; with
  /// model_call_timeout_ms armed the wedged call is cancelled, otherwise the
  /// stall is only surfaced here.
  std::uint64_t stage_stall_ticks = 0;
  bool stopped = false;       ///< stop() was requested (by a caller or the deadline).
  bool deadline_hit = false;  ///< run_deadline_ms expired.
  bool operator==(const HealthSummary&) const = default;
};

struct InstanceStats {
  std::vector<StreamStats> streams;
  double wall_sec = 0.0;
  double total_throughput_fps = 0.0;  ///< Ingested frames / wall seconds.
  HealthSummary health;

  StreamStats aggregate() const;
};

/// Point-in-time view of one stream, safe to take while the run is live.
/// Every field is read from a relaxed atomic (or a mutex-guarded queue
/// depth), so a mid-run snapshot is internally *approximate* — counters may
/// be skewed by in-flight frames — and exact once run() has returned.
struct StreamSnapshot : StreamCounters {
  int id = 0;
  /// Frames that reached a terminal outcome (emitted, dropped by a filter,
  /// dropped at ingest, discarded, or poisoned). Every ingested frame
  /// terminates exactly once, so `ingest_done && terminated == prefetch.in`
  /// is the stream-quiescent predicate a hand-off waits on (DESIGN.md §15).
  std::uint64_t terminated = 0;
  /// The stream's prefetch thread has exited (source ended, end_stream()
  /// cut, or fault escalation) — no further frames will be ingested.
  bool ingest_done = false;
  std::size_t sdd_queue_depth = 0;
  std::size_t snm_queue_depth = 0;
  std::size_t tyolo_queue_depth = 0;
  bool operator==(const StreamSnapshot&) const = default;
};

/// Instance-wide live snapshot: the observable state a control plane (the
/// metrics exporter, ClusterManager re-forwarding) polls during a run.
struct InstanceSnapshot {
  bool running = false;  ///< A run() is currently in flight.
  double t_sec = 0.0;    ///< Seconds since run() started (0 before).
  std::vector<StreamSnapshot> streams;
  std::size_t ref_queue_depth = 0;
  std::uint64_t outputs = 0;          ///< Frames emitted by the reference stage.
  HealthSummary health;               ///< Mid-run rollup (same caveats as above).

  /// Total frames served by the T-YOLO stage across streams (the cluster
  /// admission signal: its rate of change is the T-YOLO service speed).
  std::uint64_t tyolo_served() const {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s.tyolo.in;
    return n;
  }
};

class FfsVaInstance {
 public:
  explicit FfsVaInstance(FfsVaConfig config);
  ~FfsVaInstance();

  FfsVaInstance(const FfsVaInstance&) = delete;
  FfsVaInstance& operator=(const FfsVaInstance&) = delete;

  /// Register a stream. Before run() this is always legal (the classic
  /// contract). DURING run() it requires serve mode (config.max_streams > 0)
  /// with a free slot in that reservation: the stream is attached
  /// to the live engine — its prefetch thread starts immediately and the
  /// stage workers pick it up — which is how a node accepts a hand-off
  /// (DESIGN.md §15). Throws std::logic_error when the engine cannot accept
  /// the stream (run finished, stopping, or slots exhausted).
  /// Returns the engine-local stream id.
  int add_stream(std::unique_ptr<video::FrameSource> source,
                 detect::StreamModels models);

  /// Cut one stream's ingest: its prefetch loop winds down as if the source
  /// had ended, in-flight frames drain through the cascade normally, and the
  /// stream quiesces without disturbing any other stream or the run. The
  /// first half of a hand-off — poll stream_quiesced() for the second.
  /// Idempotent; safe on an ended stream. Throws std::out_of_range on an
  /// unknown id.
  void end_stream(int stream_id);

  /// True once the stream has fully quiesced: its prefetch thread exited
  /// and every ingested frame reached a terminal outcome (emitted or
  /// dropped — nothing in flight). Exact, not approximate: the terminal
  /// counter is ticked after the frame's outcome is durable, so a true
  /// return means the stream's results are complete and stable.
  bool stream_quiesced(int stream_id) const;

  /// Optional sink invoked (from the reference-model thread) for every
  /// surviving frame. When unset, outputs are collected in outputs().
  void set_output_sink(std::function<void(const OutputEvent&)> sink);

  /// Process every stream to completion.
  /// online=true paces each stream's ingest at config.online_fps and drops
  /// frames when the SDD queue stays full (overload); online=false runs
  /// flat out (offline analysis of stored video).
  ///
  /// Single-shot: a second invocation throws std::logic_error (the engine's
  /// queues and counters are consumed by a run). An instance with no
  /// registered streams throws std::invalid_argument — unless the engine is
  /// in serve mode (config.max_streams > 0), in which case an empty engine
  /// starts, waits for add_stream(), and serves until stop().
  InstanceStats run(bool online);

  /// Request a graceful shutdown of an in-flight run() from any thread:
  /// ingest stops, in-flight frames drain, run() returns with the stats
  /// accumulated so far. Idempotent; safe before, during, or after run().
  /// With supervision armed, run() returns in bounded time even when a
  /// source or model call is hung: a wedged call is cancelled by the
  /// watchdog (config.model_call_timeout_ms) or its stream quarantined
  /// (config.stall_timeout_ms) — quarantine cancels the in-flight decode,
  /// so every prefetch thread is joined, never detached.
  void stop();

  /// Collected outputs (when no sink is set). Valid after run() returns —
  /// the reference thread appending to the vector is joined by then, which
  /// is the edge the analysis cannot see (hence the opt-out).
  const std::vector<OutputEvent>& outputs() const FFSVA_NO_TSA {
    return outputs_;
  }

  const FfsVaConfig& config() const { return config_; }
  /// Streams registered so far (monotonic; grows under dynamic add). The
  /// acquire load pairs with add_stream's release publish, so any index
  /// below the returned count reads a fully constructed stream.
  int num_streams() const {
    return nstreams_.load(std::memory_order_acquire);
  }

  // --- live telemetry ------------------------------------------------------

  /// Thread-safe live snapshot: callable from any thread before, during, or
  /// after run(). Mid-run values are relaxed-atomic reads (see
  /// StreamSnapshot); after run() returns they match the InstanceStats.
  InstanceSnapshot snapshot() const;

  /// The instance's metrics registry (counters/gauges/histograms the stage
  /// threads record into). Snapshot it directly, or let the exporter below
  /// sample it.
  telemetry::Registry& metrics() { return metrics_; }

  /// Sample the registry every config.metrics_interval_ms during run() and
  /// write JSONL rows to `sink`, a caller-owned stream that must outlive
  /// run() (open a file in append mode to keep several runs in one archive).
  /// Call before run().
  void enable_metrics_export(std::ostream* sink, std::string label = {});

  /// Stamp exported metrics rows with a cluster node id (DESIGN.md §15).
  /// Call before run(); negative (the default) omits the field.
  void set_metrics_node_id(int id) { exporter_.set_node_id(id); }

  /// Arm per-stage trace spans for the next run() (recorded into
  /// telemetry::TraceBuffer::global(); enabling resets that buffer). Export
  /// with export_trace() after run() returns.
  void enable_tracing(bool on = true) { tracing_requested_ = on; }

  /// Write the spans recorded by the last traced run() as chrome://tracing
  /// JSON. Call after run() returns (spans are exact once stages quiesce).
  bool export_trace(const std::string& path) const;

 private:
  struct Stream;
  struct RefEntry;

  /// Static + shared_ptr: the prefetch loop touches only the Stream it
  /// co-owns, never `this`, so the instance registry stays single-schema
  /// (prefetch state surfaces as gauges over Stream atomics). The thread is
  /// always joined before run() returns — a wedged decode is un-wedged by
  /// cancellation (quarantine cancels the stream's in-flight call).
  static void prefetch_loop(std::shared_ptr<Stream> s, bool online);

  /// Stage loops, one per stage thread; each returns when its work is
  /// finished. A cancelled call is one more failed frame (Stream::failed),
  /// and the loop keeps serving. The GPU0 loop closes ref_q on exit.
  void sdd_worker_loop(int worker);
  void gpu0_loop();
  void reference_loop();

  /// The watchdog tick: run deadline, wedged-call cancellation
  /// (model_call_timeout_ms), per-stream stall quarantine, shared-stage
  /// stall observation. Runs on the watchdog thread.
  void supervise(std::chrono::steady_clock::time_point t0);
  void quarantine(Stream& s);
  /// Cancel `call` if it has been in flight for more than `timeout_ms`, and
  /// count the cancel against the stream the call was serving.
  void cancel_overdue(runtime::InflightCall& call, std::int64_t now_ms,
                      std::int64_t timeout_ms);

  /// Resolved SDD pool size: config.sdd_workers, or the FFSVA_THREADS
  /// compute parallelism, capped by `eligible_streams` (the streams the
  /// pool actually serves — fused hinted-ingest streams run their SDD on
  /// their own prefetch thread and never touch the pool).
  int sdd_pool_size(int eligible_streams) const;

  /// The setup every stream gets before any stage worker can see it,
  /// whether registered before run() or attached to a live engine: wire
  /// its queues to the stage wakeups and resolve the fused hinted-ingest
  /// path (DESIGN.md §13). Returns true when the SDD pool serves the stream.
  bool attach(Stream& s) FFSVA_REQUIRES(streams_mu_);

  /// Register the run's gauges (queue depths, fault counters, supervision
  /// state) and funnel counters (read from the Stream atomics), and cache
  /// the hot-path counter/histogram handles.
  void wire_metrics();
  /// The instance-level part of the health rollup (supervision counters,
  /// stop/deadline state); callers fold in each stream's faults.
  HealthSummary health() const;

  FfsVaConfig config_;
  /// Stream slots. Append-only; capacity is reserved up front in run() when
  /// dynamic add is configured (config.max_streams), so a mid-run push_back
  /// never reallocates and never invalidates the pointers stage threads
  /// hold. Readers never consult the vector's size — they bound every scan
  /// by num_streams() (the release/acquire-published count), which is what
  /// makes a concurrent append invisible until fully constructed. Writes
  /// are serialized on streams_mu_.
  std::vector<std::shared_ptr<Stream>> streams_;
  std::atomic<int> nstreams_{0};
  /// Serializes add_stream/end_stream/stop against each other and guards
  /// the dynamic-add state below. Ordered before outputs_mu_ and the queue
  /// leaves: stop()'s close sweep and add_stream's waiter notifies run
  /// under it.
  mutable runtime::Mutex streams_mu_ FFSVA_ACQUIRED_BEFORE(outputs_mu_){
      runtime::rank::kEngineStreams, "core::Engine::streams_mu_"};
  /// True from just before the stage threads start until they are joined:
  /// the window in which add_stream attaches to the live engine.
  bool engine_live_ FFSVA_GUARDED_BY(streams_mu_) = false;
  bool run_online_ FFSVA_GUARDED_BY(streams_mu_) = false;
  bool run_hinted_ FFSVA_GUARDED_BY(streams_mu_) = false;
  /// Prefetch threads of streams added during run(); joined by run() after
  /// the stage threads exit (every one has wound down by then — stop()
  /// closed the ingest queues).
  // thread-ok: per-stream prefetch threads attached mid-run; always joined
  // by run() before it returns (see above).
  std::vector<std::thread> late_prefetch_ FFSVA_GUARDED_BY(streams_mu_);
  std::function<void(const OutputEvent&)> sink_;
  runtime::Mutex outputs_mu_{runtime::rank::kEngineOutputs,
                             "core::Engine::outputs_mu_"};
  std::vector<OutputEvent> outputs_ FFSVA_GUARDED_BY(outputs_mu_);

  // Multi-queue wakeups: SDD workers sleep here when every SDD queue is
  // empty or claimed; the GPU0 executor sleeps here when no SNM batch is
  // ready and no T-YOLO work is queued. GPU0 needs no mutex — the executor
  // thread owns it; the reference model (GPU1) is owned by its one thread.
  // Plain members: every thread that notifies them (including each
  // prefetch thread) is joined before the instance is destroyed.
  runtime::QueueWaiter sdd_work_;
  runtime::QueueWaiter gpu0_work_;

  // Supervision state.
  runtime::StopToken stop_;
  std::atomic<bool> run_called_{false};
  std::atomic<bool> deadline_hit_{false};
  std::atomic<std::uint64_t> stage_stall_ticks_{0};
  /// In-flight model-call registration slots, one per worker thread that
  /// runs model calls (SDD pool workers, the GPU0 executor, the reference
  /// thread; each Stream holds its prefetch slot). They are the one
  /// supervision record: the watchdog reads their busy ages to detect
  /// stalls, attributes a stall to a specific {worker, stream} and
  /// cancels exactly that call. Cancels are counted per stream only.
  std::vector<runtime::InflightCall> sdd_call_;
  runtime::InflightCall gpu0_call_;
  runtime::InflightCall ref_call_;

  /// T-YOLO survivors bound for the reference thread. Behind a pointer
  /// because RefEntry is defined in pipeline.cpp.
  std::unique_ptr<runtime::BoundedQueue<RefEntry>> ref_q_;

  // Telemetry. The registry lives in the instance; every stage thread —
  // prefetch included — joins before run() returns, so instance lifetime
  // covers every recorder. Prefetch state still reports through its
  // Stream's atomics (surfaced here as gauges) to keep the loop free of
  // instance coupling.
  telemetry::Registry metrics_;
  telemetry::MetricsExporter exporter_{metrics_};
  std::ostream* metrics_sink_ = nullptr;
  std::string metrics_label_;
  bool tracing_requested_ = false;
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> run_t0_ns_{0};

  /// Hot-path handles, resolved once in wire_metrics() so stage loops never
  /// touch the registry map.
  /// Per-frame funnel counts are not here: they live in the Stream atomics
  /// only, and the registry reads them when sampled (wire_metrics()).
  struct Hot {
    telemetry::AtomicHistogram* batch_size = nullptr;
    telemetry::AtomicHistogram* tyolo_take = nullptr;
    telemetry::AtomicHistogram* output_latency_ms = nullptr;
    // GPU1 reference-stage batching/consolidation (one schema, same
    // registry: these are just more handles resolved in wire_metrics()).
    telemetry::AtomicHistogram* ref_batch_size = nullptr;  ///< Occupancy.
    telemetry::AtomicHistogram* crops_per_mosaic = nullptr;
    telemetry::AtomicHistogram* mosaic_fill = nullptr;
    telemetry::Counter* ref_full_frame = nullptr;
    telemetry::Counter* ref_seam_suppressed = nullptr;
    /// Ingest-to-drop latency of frames the reference stage dropped or
    /// quarantine-discarded — kept OUT of latency.output_ms so the output
    /// distribution describes only emitted frames.
    telemetry::AtomicHistogram* drop_latency_ms = nullptr;
  };
  Hot hot_;
};

}  // namespace ffsva::core
