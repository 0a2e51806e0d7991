// relaxed-ok: per-stream frame/fault counters — including the codec-aware
// ingest counters of the hinted fast path (decode_full/decode_skipped/
// hint_passes/hint_fallbacks) — are single-logical-writer cells snapshotted
// mid-run (approximate by contract) and frozen after the stage joins; the
// claim/quarantine edges that need ordering use acq_rel — see the Stream
// struct comments below.
#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "detect/crop_pack.hpp"
#include "detect/sdd.hpp"
#include "runtime/bounded_queue.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rate_limiter.hpp"
#include "runtime/stopwatch.hpp"
#include "telemetry/spans.hpp"

namespace ffsva::core {

namespace {
using Clock = std::chrono::steady_clock;

/// Source restart budget (DESIGN.md Section 9): a source that keeps
/// failing past kSourceMaxRestarts ends its stream. Each backoff doubles per
/// consecutive attempt, capped at 100 ms (sliced_backoff).
constexpr int kSourceMaxRestarts = 2;
constexpr int kSourceBackoffMs = 1;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A frame in flight, stamped with its ingest time.
struct Item {
  video::Frame frame;
  Clock::time_point ingest;
  /// Stages this frame wedged (its model call was cancelled by the
  /// watchdog). A frame that wedges two stages is poisoned: it is dropped
  /// regardless of the degrade policy, so one pathological input cannot
  /// keep wedging stage after stage (DESIGN.md Section 14).
  int wedges = 0;
  /// The frame's GPU0 inputs (DESIGN.md Section 8), built by prepare_gpu0()
  /// on the thread that passed it through SDD: the SNM difference map,
  /// freed once scored, and the T-YOLO detector input, freed once detected.
  /// Empty until prepared.
  std::vector<float> snm_input{};
  image::Image tyolo_input{};
};

/// Builds a frame's GPU0 inputs, so the GPU0 executor runs models only.
/// Both preparations are const and per-thread staged, so SDD workers may
/// prepare frames of streams that share one model concurrently; neither
/// fires a fault hook.
void prepare_gpu0(const detect::StreamModels& m, Item& item) {
  m.snm->prepare(item.frame.image, item.snm_input);
  m.tyolo->prepare(item.frame.image, item.tyolo_input);
}

telemetry::TraceBuffer& trace() { return telemetry::TraceBuffer::global(); }

/// Exponential backoff: `base_ms` doubled per attempt, capped at 100 ms, and
/// slept in 1 ms slices so `aborted()` cuts it short.
template <typename Aborted>
void sliced_backoff(int base_ms, int attempt, Aborted&& aborted) {
  const auto ms = std::min<std::int64_t>(
      static_cast<std::int64_t>(std::max(0, base_ms)) << std::min(attempt, 20), 100);
  const auto until = Clock::now() + std::chrono::milliseconds(ms);
  while (Clock::now() < until && !aborted()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// How a model call ended: with a verdict, cancelled by the watchdog (the
/// call wedged), or with any other throw.
enum class CallOutcome : std::uint8_t { kOk, kWedged, kFailed };

/// Runs one model call the way every stage must (DESIGN.md Section 14): the
/// call is registered in the worker's in-flight slot, so the watchdog sees
/// how long it has been busy and can cancel exactly this call. Free so the
/// static prefetch loop can use it too.
template <typename Fn>
CallOutcome model_call(runtime::InflightCall& slot, int stream, Fn&& fn) {
  try {
    runtime::ModelCallGuard guard(slot, stream);
    fn();
  } catch (const runtime::CancelledError&) {
    return CallOutcome::kWedged;
  } catch (...) {
    return CallOutcome::kFailed;
  }
  return CallOutcome::kOk;
}

/// How a frame leaves the engine. Filter drops, degraded drops and poisoned
/// frames all end as kDropped: the failure verdict has already counted the
/// fault (Stream::failed).
enum class End : std::uint8_t { kEmitted, kDropped, kDiscarded, kLostAtIngest };

/// Folds one stream's faults into the health rollup.
void tally(HealthSummary& h, const FaultStats& f) {
  if (f.quarantined) {
    ++h.quarantined_streams;
  } else if (f.any()) {
    ++h.degraded_streams;
  } else {
    ++h.healthy_streams;
  }
  h.fault += f;
}
}  // namespace

/// A survivor bound for the reference stage: the frame plus the candidate
/// boxes T-YOLO detected in it (frame coordinates). The candidates are what
/// RefMode::kCropPack consolidates; an empty list (e.g. a kBypass-degraded
/// frame that was never actually detected) routes the frame to the
/// full-frame fallback, so it is still fully vetted.
struct FfsVaInstance::RefEntry {
  int stream = 0;
  Item item;
  std::vector<image::Box> candidates;
};

const char* to_string(BatchPolicy p) {
  switch (p) {
    case BatchPolicy::kStatic: return "static";
    case BatchPolicy::kFeedback: return "feedback";
    case BatchPolicy::kDynamic: return "dynamic";
  }
  return "?";
}

const char* to_string(DegradePolicy p) {
  switch (p) {
    case DegradePolicy::kDrop: return "drop";
    case DegradePolicy::kBypass: return "bypass";
  }
  return "?";
}

const char* to_string(RefMode m) {
  switch (m) {
    case RefMode::kBatch: return "batch";
    case RefMode::kCropPack: return "crop_pack";
  }
  return "?";
}

const char* to_string(DecodePolicy p) {
  switch (p) {
    case DecodePolicy::kFull: return "full";
    case DecodePolicy::kHinted: return "hinted";
  }
  return "?";
}

StreamStats InstanceStats::aggregate() const {
  StreamStats agg;
  for (const auto& s : streams) {
    agg += s;
    agg.latency_ms.merge(s.latency_ms);
    agg.ingest_fps += s.ingest_fps;
    agg.decode_ms.merge(s.decode_ms);
  }
  return agg;
}

struct FfsVaInstance::Stream {
  int id = 0;
  std::unique_ptr<video::FrameSource> source;
  detect::StreamModels models;
  FfsVaConfig cfg;  ///< Copy: the prefetch loop reads config without touching `this`.

  /// Sized by attach(): its capacity depends on the run's mode.
  runtime::BoundedQueue<Item> sdd_q{1};
  runtime::BoundedQueue<Item> snm_q;
  runtime::BoundedQueue<Item> tyolo_q;

  /// Everything the prefetch thread writes lives here as relaxed atomics:
  /// snapshot() reads them mid-run (approximate by contract) and run()
  /// freezes them once the thread is joined (both via counters()).
  std::atomic<std::uint64_t> prefetch_in{0};
  std::atomic<std::uint64_t> prefetch_passed{0};
  std::atomic<std::uint64_t> dropped_ingest{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<double> ingest_wall_sec{0.0};

  /// Codec-aware ingest (DecodePolicy::kHinted, DESIGN.md §13). When
  /// `fused_ingest` is set — decided in run() before any thread starts,
  /// read-only afterwards — this stream's prefetch thread owns the whole
  /// SDD stage: it consults the source's residual hints, decodes only the
  /// frames the hint could not decide, runs pixel SDD on the fallbacks,
  /// and feeds snm_q directly (closing it on exit). The SDD worker pool
  /// never serves a fused stream (sdd_done is pre-set), so the done/close
  /// handshake keeps exactly one closer. The counters below follow the
  /// prefetch-thread contract above: relaxed Stream atomics surfaced as
  /// gauges, keeping the loop free of instance coupling.
  /// decode_full/decode_ms also move on the kFull path, so the decode
  /// schema reads consistently across policies.
  bool fused_ingest = false;
  std::atomic<std::uint64_t> decode_full{0};
  std::atomic<std::uint64_t> decode_skipped{0};
  std::atomic<std::uint64_t> hint_passes{0};
  std::atomic<std::uint64_t> hint_fallbacks{0};
  /// Decode-stage latency. AtomicHistogram (not runtime::Histogram):
  /// snapshot gauges read it live while the prefetch thread records, so
  /// recording must be lock-free and thread-safe.
  telemetry::AtomicHistogram decode_ms;
  /// Ingest-to-end latency of every emitted or dropped frame, recorded by
  /// end(). Its writers are the stage threads a frame can end on (an SDD
  /// worker or a fused stream's prefetch thread, the GPU0 executor, the
  /// reference thread), hence the lock-free recorder.
  telemetry::AtomicHistogram latency_ms;

  /// Degrade / quarantine accounting, written by whichever stage thread
  /// observes the event (SDD worker, GPU0 executor, reference thread).
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> discarded{0};
  std::atomic<bool> quarantined{false};

  /// Hand-off support (DESIGN.md §15). `ingest_end` is the end_stream()
  /// cut: the prefetch loop treats it as end-of-source at its next
  /// iteration. `ingest_done` is set (once) when the prefetch loop exits.
  /// `terminated` ticks exactly once per ingested frame, at the site where
  /// the frame's outcome becomes durable (emitted / dropped / discarded /
  /// poisoned / lost at ingest) — `ingest_done && terminated == prefetch_in`
  /// is the quiescence predicate stream_quiesced() answers.
  std::atomic<bool> ingest_end{false};
  std::atomic<bool> ingest_done{false};
  std::atomic<std::uint64_t> terminated{0};

  /// Escalation accounting (DESIGN.md Section 14): model calls serving this
  /// stream that the watchdog cancelled (written by the watchdog thread)
  /// and frames of this stream dropped as poisoned after wedging two
  /// stages (written by the stage thread that observed the second wedge).
  std::atomic<std::uint64_t> cancels{0};
  std::atomic<std::uint64_t> poisoned{0};

  /// The call currently in flight on this stream's prefetch thread: a
  /// source decode or a fused stream's pixel SDD. Its busy age is the
  /// stream's liveness — blocking on a feedback queue is healthy
  /// backpressure and reads as idle — and past stall_timeout_ms the stream
  /// is quarantined. The watchdog cancels the call when it overruns
  /// model_call_timeout_ms, and quarantine cancels it unconditionally — that
  /// cancel is what makes the prefetch join bounded (the thread is joined,
  /// never detached).
  runtime::InflightCall prefetch_call;

  /// Per-stage frame counters: the one store of the cascade funnel. Each is
  /// written by one logical owner at a time (prefetch thread of a fused
  /// stream or SDD claim holder / GPU0 executor / reference thread); the
  /// atomics buy mid-run readability — snapshot() and the registry's
  /// funnel counters read them live — not write coordination.
  std::atomic<std::uint64_t> sdd_in{0}, sdd_passed{0};
  std::atomic<std::uint64_t> snm_in{0}, snm_passed{0};
  std::atomic<std::uint64_t> tyolo_in{0}, tyolo_passed{0};
  std::atomic<std::uint64_t> ref_in{0}, ref_passed{0};

  runtime::StopToken stop;  ///< Copy of the instance token.

  /// SDD worker-pool coordination: at most one worker serves this stream at
  /// a time (claim), which both preserves per-stream FIFO order into the
  /// SNM queue and serializes access to the SDD counters/histogram. The
  /// acq_rel claim handoff carries the happens-before edge between
  /// consecutive owners. `sdd_done` is set (exactly once, under the claim)
  /// when the SDD queue is closed and drained.
  std::atomic<bool> sdd_claimed{false};
  std::atomic<bool> sdd_done{false};

  Stream(int id_, std::unique_ptr<video::FrameSource> src, detect::StreamModels m,
         const FfsVaConfig& cfg_)
      : id(id_), source(std::move(src)), models(std::move(m)), cfg(cfg_),
        snm_q(queue_plan(cfg_, false).snm),
        tyolo_q(queue_plan(cfg_, false).tyolo) {}

  /// The failure verdict for a frame whose model call produced none
  /// (DESIGN.md Section 14): a second wedge poisons the frame; otherwise it
  /// is degraded and the degrade policy decides whether it rides on — except
  /// at the reference stage, the last vetting stage, which always drops.
  /// Counts the fault; true means the frame rides on to the next stage.
  bool failed(Item& item, CallOutcome how, bool last_stage) {
    if (how == CallOutcome::kWedged && ++item.wedges >= 2) {
      poisoned.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    degraded.fetch_add(1, std::memory_order_relaxed);
    return !last_stage && cfg.degrade_policy == DegradePolicy::kBypass;
  }

  /// The one place a frame ends. Counts the end, records an emitted or
  /// dropped frame's ingest-to-end `ms` into latency_ms, and ticks
  /// `terminated` last, once the outcome is durable (an emitted frame has
  /// been delivered).
  void end(End how, double ms = 0.0) {
    switch (how) {
      case End::kEmitted:
        ref_passed.fetch_add(1, std::memory_order_relaxed);
        latency_ms.record(ms);
        break;
      case End::kDropped: latency_ms.record(ms); break;
      case End::kDiscarded: discarded.fetch_add(1, std::memory_order_relaxed); break;
      case End::kLostAtIngest:
        dropped_ingest.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    terminated.fetch_add(1, std::memory_order_release);
  }

  /// Every counter of the stream, read from its atomics: the one reader
  /// behind both snapshot() (mid-run, approximate) and run()'s freeze.
  StreamCounters counters() const {
    const auto get = [](const std::atomic<std::uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    StreamCounters st;
    st.prefetch = {get(prefetch_in), get(prefetch_passed)};
    st.sdd = {get(sdd_in), get(sdd_passed)};
    st.snm = {get(snm_in), get(snm_passed)};
    st.tyolo = {get(tyolo_in), get(tyolo_passed)};
    st.ref = {get(ref_in), get(ref_passed)};
    st.dropped_at_ingest = get(dropped_ingest);
    st.ingest.decode_full = get(decode_full);
    st.ingest.decode_skipped = get(decode_skipped);
    st.ingest.hint_passes = get(hint_passes);
    st.ingest.hint_fallbacks = get(hint_fallbacks);
    if (const auto cs = source->codec_stats()) {
      st.ingest.compression_ratio = cs->compression_ratio();
    }
    st.fault.decode_errors = get(decode_errors);
    st.fault.retries = get(retries);
    st.fault.restarts = get(restarts);
    st.fault.degraded_frames = get(degraded);
    st.fault.discarded_frames = get(discarded);
    st.fault.cancelled_calls = get(cancels);
    st.fault.poisoned_frames = get(poisoned);
    st.fault.quarantined = quarantined.load(std::memory_order_acquire);
    return st;
  }
};

FfsVaInstance::FfsVaInstance(FfsVaConfig config)
    : config_(config),
      ref_q_(std::make_unique<runtime::BoundedQueue<RefEntry>>(
          queue_plan(config_, false).ref)) {}

FfsVaInstance::~FfsVaInstance() = default;

int FfsVaInstance::add_stream(std::unique_ptr<video::FrameSource> source,
                              detect::StreamModels models) {
  runtime::MutexLock lk(streams_mu_);
  const int id = nstreams_.load(std::memory_order_relaxed);
  auto s = std::make_shared<Stream>(id, std::move(source), std::move(models),
                                    config_);
  s->stop = stop_;
  if (!run_called_.load(std::memory_order_acquire)) {
    // Classic pre-run registration: single caller, no stage threads yet.
    streams_.push_back(std::move(s));
    nstreams_.store(id + 1, std::memory_order_release);
    return id;
  }
  // Dynamic attach to a live engine (DESIGN.md §15).
  if (!engine_live_ || stop_.stop_requested()) {
    throw std::logic_error(
        "FfsVaInstance::add_stream: engine is not accepting streams "
        "(run finished or stopping)");
  }
  if (!config_.serving()) {
    throw std::logic_error(
        "FfsVaInstance::add_stream: mid-run add requires serve mode "
        "(config.max_streams > 0)");
  }
  if (static_cast<std::size_t>(id) >= streams_.capacity()) {
    throw std::logic_error(
        "FfsVaInstance::add_stream: config.max_streams slots exhausted");
  }
  attach(*s);
  std::shared_ptr<Stream> sp = s;
  // Publish: capacity is reserved, so push_back cannot reallocate; the
  // release store pairs with num_streams()' acquire load, making the new
  // slot visible to stage scans only once fully constructed.
  streams_.push_back(std::move(s));
  nstreams_.store(id + 1, std::memory_order_release);
  late_prefetch_.emplace_back(&FfsVaInstance::prefetch_loop, std::move(sp),
                              run_online_);
  // Wake stage workers parked on "every stream done" in serve mode.
  sdd_work_.notify();
  gpu0_work_.notify();
  return id;
}

void FfsVaInstance::end_stream(int stream_id) {
  runtime::MutexLock lk(streams_mu_);
  if (stream_id < 0 || stream_id >= nstreams_.load(std::memory_order_acquire)) {
    throw std::out_of_range("FfsVaInstance::end_stream: unknown stream id");
  }
  Stream& s = *streams_[static_cast<std::size_t>(stream_id)];
  s.ingest_end.store(true, std::memory_order_release);
}

bool FfsVaInstance::stream_quiesced(int stream_id) const {
  if (stream_id < 0 || stream_id >= num_streams()) {
    throw std::out_of_range("FfsVaInstance::stream_quiesced: unknown stream id");
  }
  const Stream& s = *streams_[static_cast<std::size_t>(stream_id)];
  if (!s.ingest_done.load(std::memory_order_acquire)) return false;
  // ingest_done is set after the prefetch loop's last counter write, and
  // every terminal tick happens after the outcome it records — so once the
  // two counters agree the stream's results are complete and stable.
  return s.terminated.load(std::memory_order_acquire) >=
         s.prefetch_in.load(std::memory_order_acquire);
}

void FfsVaInstance::set_output_sink(std::function<void(const OutputEvent&)> sink) {
  sink_ = std::move(sink);
}

int FfsVaInstance::sdd_pool_size(int eligible_streams) const {
  if (eligible_streams <= 0) return 0;
  const int w = config_.sdd_workers > 0 ? config_.sdd_workers
                                        : runtime::compute_parallelism();
  return std::clamp(w, 1, eligible_streams);
}

bool FfsVaInstance::attach(Stream& s) {
  // Every write precedes any reader: set_waiter and set_capacity are
  // unsynchronized by contract, and the SDD pool, the prefetch loop and
  // stop() read the fused flag unsynchronized. A fused stream's prefetch
  // thread owns its SDD stage, so pre-retiring it from the pool (sdd_done)
  // keeps that thread the single closer of snm_q.
  s.sdd_q.set_capacity(queue_plan(config_, run_online_).sdd);
  s.sdd_q.set_waiter(&sdd_work_);
  s.snm_q.set_waiter(&gpu0_work_);
  s.fused_ingest = run_hinted_ && s.source->has_hints();
  if (s.fused_ingest) s.sdd_done.store(true, std::memory_order_release);
  return !s.fused_ingest;
}

void FfsVaInstance::enable_metrics_export(std::ostream* sink,
                                          std::string label) {
  metrics_sink_ = sink;
  metrics_label_ = std::move(label);
}

bool FfsVaInstance::export_trace(const std::string& path) const {
  return trace().write_chrome_trace(path);
}

void FfsVaInstance::wire_metrics() {
  hot_.batch_size = &metrics_.histogram("executor.batch_size");
  hot_.tyolo_take = &metrics_.histogram("executor.tyolo_take");
  hot_.output_latency_ms = &metrics_.histogram("latency.output_ms");
  hot_.ref_batch_size = &metrics_.histogram("executor.ref_batch_size");
  // Each model call records its size once, so a call count is the count of
  // its size histogram.
  const auto count_of = [](const telemetry::AtomicHistogram* h) {
    return [h] { return h->count(); };
  };
  metrics_.counter("executor.snm_batches", count_of(hot_.batch_size));
  metrics_.counter("executor.tyolo_picks", count_of(hot_.tyolo_take));
  metrics_.counter("executor.ref_batches", count_of(hot_.ref_batch_size));
  hot_.crops_per_mosaic = &metrics_.histogram("ref.crops_per_mosaic");
  hot_.mosaic_fill = &metrics_.histogram("ref.mosaic_fill");
  hot_.ref_full_frame = &metrics_.counter("ref.full_frame_fallbacks");
  hot_.ref_seam_suppressed = &metrics_.counter("ref.seam_suppressed");
  hot_.drop_latency_ms = &metrics_.histogram("latency.drop_ms");

  // Per-stream frame, ingest and fault counts live in Stream atomics only
  // (single-writer cells the stage threads — prefetch included — tick
  // without touching the registry); every metric of their schema
  // (core/counters.hpp) sums the streams' counters() when sampled. Every
  // reader below scans the stream slots bounded by num_streams(), not the
  // vector's size: the count is the release/acquire publication point for
  // dynamically added streams (see the streams_ member comment).
  for_each_metric([this](const char* name, Section section, auto read) {
    const auto total = [this, read] {
      std::uint64_t n = 0;
      const int count = num_streams();
      for (int i = 0; i < count; ++i) {
        n += read(streams_[static_cast<std::size_t>(i)]->counters());
      }
      return n;
    };
    if (section == Section::kCounter) {
      metrics_.counter(name, total);
    } else {
      metrics_.gauge(name, [total] { return static_cast<double>(total()); });
    }
  });
  const auto decode_quantile = [this](double q) {
    return [this, q]() {
      runtime::Histogram merged;
      const int n = num_streams();
      for (int i = 0; i < n; ++i) {
        merged.merge(streams_[static_cast<std::size_t>(i)]->decode_ms.snapshot());
      }
      return merged.quantile(q);
    };
  };
  metrics_.gauge("latency.decode_p50_ms", decode_quantile(0.5));
  metrics_.gauge("latency.decode_p99_ms", decode_quantile(0.99));
  metrics_.gauge("supervise.stall_ticks", [this] {
    return static_cast<double>(
        stage_stall_ticks_.load(std::memory_order_relaxed));
  });
  const auto depth_sum = [this](runtime::BoundedQueue<Item> Stream::* q) {
    return [this, q]() {
      std::size_t total = 0;
      const int n = num_streams();
      for (int i = 0; i < n; ++i) {
        total += ((*streams_[static_cast<std::size_t>(i)]).*q).depth();
      }
      return static_cast<double>(total);
    };
  };
  metrics_.gauge("queue.sdd", depth_sum(&Stream::sdd_q));
  metrics_.gauge("queue.snm", depth_sum(&Stream::snm_q));
  metrics_.gauge("queue.tyolo", depth_sum(&Stream::tyolo_q));
  metrics_.gauge("queue.ref",
                 [this] { return static_cast<double>(ref_q_->depth()); });
}

InstanceSnapshot FfsVaInstance::snapshot() const {
  InstanceSnapshot snap;
  snap.running = running_.load(std::memory_order_acquire);
  const std::int64_t t0 = run_t0_ns_.load(std::memory_order_relaxed);
  if (t0 > 0) {
    const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now().time_since_epoch())
                         .count();
    snap.t_sec = static_cast<double>(now - t0) * 1e-9;
  }
  snap.health = health();
  const int n = num_streams();
  snap.streams.reserve(static_cast<std::size_t>(n));
  StreamCounters total;
  for (int i = 0; i < n; ++i) {
    const Stream& s = *streams_[static_cast<std::size_t>(i)];
    StreamSnapshot ss;
    static_cast<StreamCounters&>(ss) = s.counters();
    ss.id = s.id;
    ss.terminated = s.terminated.load(std::memory_order_relaxed);
    ss.ingest_done = s.ingest_done.load(std::memory_order_acquire);
    ss.sdd_queue_depth = s.sdd_q.depth();
    ss.snm_queue_depth = s.snm_q.depth();
    ss.tyolo_queue_depth = s.tyolo_q.depth();
    tally(snap.health, ss.fault);
    total += ss;
    snap.streams.push_back(std::move(ss));
  }
  snap.outputs = total.ref.passed;
  snap.ref_queue_depth = ref_q_->depth();
  return snap;
}

HealthSummary FfsVaInstance::health() const {
  HealthSummary h;
  h.stage_stall_ticks = stage_stall_ticks_.load(std::memory_order_relaxed);
  h.stopped = stop_.stop_requested();
  h.deadline_hit = deadline_hit_.load(std::memory_order_relaxed);
  return h;
}

void FfsVaInstance::stop() {
  stop_.request_stop();
  // Closing the ingest queues unblocks every prefetch thread (a blocked
  // push fails fast on a closed queue); the close cascades down the stages
  // as each drains, so in-flight frames still complete. A fused stream's
  // prefetch thread pushes into snm_q instead, so that is the queue whose
  // close unblocks it (its sdd_q is unused but closed for uniformity).
  // Serialized on streams_mu_ against add_stream: a stream either publishes
  // before this close sweep (and is closed here) or its add observes
  // stop_requested and is rejected — no stream can miss the close.
  {
    runtime::MutexLock lk(streams_mu_);
    const int n = nstreams_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      Stream& s = *streams_[static_cast<std::size_t>(i)];
      s.sdd_q.close();
      if (s.fused_ingest) s.snm_q.close();
    }
  }
  // Wake stage workers parked on "every stream done" (serve mode) so they
  // observe the stop and wind down.
  sdd_work_.notify();
  gpu0_work_.notify();
}

void FfsVaInstance::prefetch_loop(std::shared_ptr<Stream> s, bool online) {
  const FfsVaConfig& cfg = s->cfg;
  runtime::RateLimiter limiter(cfg.online_fps, /*burst=*/2.0);
  runtime::Stopwatch watch;
  const auto frame_interval =
      std::chrono::duration<double>(1.0 / cfg.online_fps);

  // Compressed-domain fast path (fused ingest only): every piece of hint
  // state lives on this thread; pixel-SDD fallbacks re-anchor the chain.
  std::optional<detect::CompressedSdd> csdd;
  if (s->fused_ingest) {
    csdd.emplace(s->models.sdd->config().metric,
                 s->models.sdd->config().delta_diff, detect::kHintRelax);
  }

  const auto aborted = [&s] {
    // An end_stream() cut reads as end-of-source: the loop winds down
    // normally and the stream's in-flight frames drain through the cascade.
    return s->stop.stop_requested() ||
           s->quarantined.load(std::memory_order_acquire) ||
           s->ingest_end.load(std::memory_order_acquire);
  };
  // Stop/quarantine cuts a retry/restart backoff short.
  const auto backoff = [&](int attempt) {
    sliced_backoff(kSourceBackoffMs, attempt, aborted);
  };

  int consecutive_retries = 0;
  int restarts_used = 0;
  // Restart the source under the restart budget; false once the budget is
  // spent or the source cannot restart, which ends the stream.
  const auto try_restart = [&] {
    if (restarts_used >= kSourceMaxRestarts || !s->source->restart()) return false;
    s->restarts.fetch_add(1, std::memory_order_relaxed);
    backoff(restarts_used++);
    consecutive_retries = 0;
    return true;
  };
  while (!aborted()) {
    // Consult the hint *before* paying any decode: a frame the hint proves
    // SDD would drop is skipped outright — the reader only moves its
    // cursor; reconstruction re-syncs lazily at the next materialized
    // frame (video/codec.hpp). The skipped frame still terminates exactly
    // once, with the same conservation accounting as a pixel-SDD drop.
    auto hint_decision = detect::HintDecision::kFallback;
    if (csdd) {
      if (const video::FrameHint* hint = s->source->peek_hint()) {
        hint_decision = csdd->decide(*hint);
      }
      if (hint_decision == detect::HintDecision::kSkip) {
        const auto t0 = Clock::now();
        if (!s->source->skip_next()) break;  // end of stream
        s->decode_skipped.fetch_add(1, std::memory_order_relaxed);
        s->prefetch_in.fetch_add(1, std::memory_order_relaxed);
        s->prefetch_passed.fetch_add(1, std::memory_order_relaxed);
        s->sdd_in.fetch_add(1, std::memory_order_relaxed);
        const double ms = ms_since(t0);
        s->decode_ms.record(ms);
        s->end(End::kDropped, ms);
        continue;
      }
    }
    std::optional<video::Frame> f;
    const auto decode_t0 = Clock::now();
    try {
      // Spans go to the process-global buffer, never the instance: the
      // prefetch loop touches only its Stream (see prefetch_loop's decl).
      const auto index = static_cast<std::int64_t>(
          s->prefetch_in.load(std::memory_order_relaxed));
      telemetry::ScopedSpan sp(trace(), "decode", telemetry::Stage::kPrefetch,
                               s->id, index);
      // Register the decode as this stream's in-flight call: a hung decode
      // is what the watchdog must see, and cancel if it wedges
      // (model_call_timeout_ms, or unconditionally at quarantine to keep
      // the join bounded).
      runtime::ModelCallGuard guard(s->prefetch_call, s->id);
      f = s->source->next();
    } catch (const runtime::CancelledError&) {
      // The watchdog cancelled a wedged decode. Quarantine means the stream
      // is already being torn down — just exit. Otherwise escalate like a
      // non-transient decode fault: restart the source under the restart
      // budget, and past it end the stream. (The cancel itself was counted
      // by the watchdog that issued it.)
      if (aborted()) break;
      s->decode_errors.fetch_add(1, std::memory_order_relaxed);
      if (try_restart()) continue;
      break;
    } catch (const video::SourceError& e) {
      s->decode_errors.fetch_add(1, std::memory_order_relaxed);
      if (e.transient() && consecutive_retries < cfg.source_max_retries) {
        // Transient contract (video/source.hpp): the source position is
        // unchanged, so retrying resumes with zero frame loss.
        s->retries.fetch_add(1, std::memory_order_relaxed);
        backoff(consecutive_retries++);
        continue;
      }
      if (try_restart()) continue;
      break;  // unrecoverable: end this stream; downstream drains normally
    } catch (...) {
      s->decode_errors.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (!f) break;  // normal end of stream
    consecutive_retries = 0;
    s->decode_full.fetch_add(1, std::memory_order_relaxed);
    s->decode_ms.record(ms_since(decode_t0));
    s->prefetch_in.fetch_add(1, std::memory_order_relaxed);
    Item item{std::move(*f), Clock::now()};
    if (csdd) {
      // Fused SDD stage: the hint either decided kPass outright or fell
      // back to the pixel SDD, whose distance re-anchors the chain. The
      // frame was ingested either way; survivors go straight to snm_q.
      s->sdd_in.fetch_add(1, std::memory_order_relaxed);
      const bool hinted = hint_decision == detect::HintDecision::kPass;
      (hinted ? s->hint_passes : s->hint_fallbacks)
          .fetch_add(1, std::memory_order_relaxed);
      bool pass = true;
      bool measured = hinted;
      const CallOutcome oc = model_call(s->prefetch_call, s->id, [&] {
        telemetry::ScopedSpan sp(trace(), "sdd.filter", telemetry::Stage::kSdd,
                                 s->id, item.frame.index);
        if (!hinted) {
          const double dist = s->models.sdd->distance(item.frame.image);
          csdd->anchor(dist);
          measured = true;
          pass = dist > s->models.sdd->config().delta_diff;
        }
        if (pass) prepare_gpu0(s->models, item);
      });
      if (oc != CallOutcome::kOk) {
        // Same per-frame contract as the SDD worker pool; an unmeasured
        // frame leaves the chain unanchored.
        if (!measured) csdd->invalidate();
        pass = s->failed(item, oc, /*last_stage=*/false);
      }
      if (pass) {
        s->sdd_passed.fetch_add(1, std::memory_order_relaxed);
        // Blocking push: the SNM feedback-queue threshold throttles ingest
        // directly — with SDD fused into prefetch, this IS the feedback
        // edge the paper's bounded queues implement.
        if (!s->snm_q.push(std::move(item))) {
          s->end(End::kDiscarded);  // closed under us (stop/quarantine)
          break;
        }
      } else {
        s->end(End::kDropped, ms_since(item.ingest));
      }
      s->prefetch_passed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (online) {
      limiter.acquire();
      // Overload behaviour: a live camera cannot block — if the pipeline
      // cannot absorb the frame within one frame time, the frame is lost
      // and counted (the admission controller re-forwards such streams).
      if (!s->sdd_q.push_for(std::move(item), frame_interval)) {
        if (s->sdd_q.closed()) {
          // stop()/quarantine closed it under us; the ingested frame is lost.
          s->end(End::kDiscarded);
          break;
        }
        s->end(End::kLostAtIngest);
        continue;
      }
    } else {
      if (!s->sdd_q.push(std::move(item))) {
        // Queue closed underneath us (stop/quarantine): the frame was
        // already counted into prefetch_in, so it must terminate here.
        s->end(End::kDiscarded);
        break;
      }
    }
    s->prefetch_passed.fetch_add(1, std::memory_order_relaxed);
  }
  s->ingest_wall_sec.store(watch.elapsed_sec(), std::memory_order_relaxed);
  s->sdd_q.close();
  // A fused stream's SDD stage ends with its prefetch thread, so the
  // end-of-stream edge the executor waits for is snm_q's close — exactly
  // what the SDD pool would have published for a non-fused stream.
  if (s->fused_ingest) s->snm_q.close();
  // Ordered after the loop's last counter write: once a reader observes
  // ingest_done, prefetch_in is final (half of the quiescence predicate).
  s->ingest_done.store(true, std::memory_order_release);
}

void FfsVaInstance::sdd_worker_loop(int worker) {
  const int run_length = std::max(1, config_.sdd_run_length);
  runtime::InflightCall& call = sdd_call_[static_cast<std::size_t>(worker)];
  int cursor = worker;  // stagger workers across streams
  for (;;) {
    const auto ticket = sdd_work_.prepare();
    // Re-read the published stream count every cycle: add_stream() may have
    // appended slots since the last scan (serve mode), and the eventcount
    // notify it issues lands after the count's release store — so a worker
    // that misses the new stream here wakes and rescans.
    const int n = num_streams();
    bool all_done = true;
    bool did_work = false;
    for (int step = 0; step < n; ++step) {
      const int idx = (cursor + step) % n;
      Stream& s = *streams_[static_cast<std::size_t>(idx)];
      if (s.sdd_done.load(std::memory_order_acquire)) continue;
      all_done = false;
      if (s.sdd_claimed.exchange(true, std::memory_order_acq_rel)) {
        continue;  // another worker is serving this stream
      }
      int processed = 0;
      while (processed < run_length) {
        // Order matters: observe close *before* the failed pop, so an empty
        // pop on a closed queue really means end-of-stream (a push cannot
        // land after close).
        const bool closed = s.sdd_q.closed();
        auto item = s.sdd_q.try_pop();
        if (!item) {
          if (closed) {
            s.sdd_done.store(true, std::memory_order_release);
            s.snm_q.close();
            sdd_work_.notify();  // wake workers idling on this last stream
          }
          break;
        }
        ++processed;
        if (s.quarantined.load(std::memory_order_acquire)) {
          // Drain-and-discard: the watchdog closed this stream's queues;
          // its in-flight frames are dumped, not processed.
          s.end(End::kDiscarded);
          continue;
        }
        s.sdd_in.fetch_add(1, std::memory_order_relaxed);
        bool pass = false;
        const CallOutcome oc = model_call(call, s.id, [&] {
          telemetry::ScopedSpan sp(trace(), "sdd.filter", telemetry::Stage::kSdd,
                                   s.id, item->frame.index);
          pass = s.models.sdd->pass(item->frame.image);
          if (pass) prepare_gpu0(s.models, *item);
        });
        // Degrade per frame, never per stream.
        if (oc != CallOutcome::kOk) pass = s.failed(*item, oc, /*last_stage=*/false);
        if (pass) {
          s.sdd_passed.fetch_add(1, std::memory_order_relaxed);
          // Blocking push: the SNM feedback-queue threshold throttles this
          // worker (other workers keep serving other streams meanwhile).
          if (!s.snm_q.push(std::move(*item))) {
            s.end(End::kDiscarded);
            break;  // closed by quarantine
          }
        } else {
          s.end(End::kDropped, ms_since(item->ingest));
        }
      }
      s.sdd_claimed.store(false, std::memory_order_release);
      if (processed > 0) {
        did_work = true;
        cursor = idx;  // keep draining near the stream we just served
      }
    }
    if (all_done) {
      // Every registered stream's SDD stage has ended. In serve mode the
      // pool parks here waiting for the next add_stream() (whose notify
      // races safely against this wait via the prepared ticket); otherwise
      // — or once stop is requested — the run is over.
      if (!config_.serving() || stop_.stop_requested()) return;
      sdd_work_.wait(ticket);
      continue;
    }
    if (!did_work) sdd_work_.wait(ticket);
  }
}

void FfsVaInstance::gpu0_loop() {
  TYoloScheduler scheduler(config_.num_tyolo);
  const DynamicBatcher batcher(config_.batch_policy, config_.batch_size,
                               config_.snm_queue_depth);
  // The stream set can grow mid-run (serve mode): both per-stream scratch
  // vectors are re-sized to the published count at each use, so a stream
  // added between cycles simply appears as a fresh not-done slot.
  std::vector<char> snm_done;
  std::vector<int> tyolo_depths;
  std::vector<Item> items;
  std::vector<const float*> snm_inputs;
  std::vector<double> scores;
  items.reserve(static_cast<std::size_t>(std::max(1, config_.batch_size)));
  bool running = true;

  // One T-YOLO service pick: up to num_tyolo frames from the next non-empty
  // stream in round-robin order (Section 3.2.3). Executed directly — this
  // thread owns GPU0. Clears `running` if the reference queue was closed
  // underneath us (shutdown).
  const auto serve_tyolo = [&]() -> bool {
    const auto n = static_cast<std::size_t>(num_streams());
    tyolo_depths.resize(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      tyolo_depths[i] = static_cast<int>(streams_[i]->tyolo_q.depth());
    }
    const auto pick = scheduler.next(tyolo_depths);
    if (pick.stream < 0) return false;
    Stream& s = *streams_[static_cast<std::size_t>(pick.stream)];
    int served = 0;
    bool progressed = false;
    telemetry::ScopedSpan span(trace(), "tyolo.batch", telemetry::Stage::kTyolo,
                               s.id);
    for (int k = 0; k < pick.take && running; ++k) {
      auto item = s.tyolo_q.try_pop();
      if (!item) break;
      progressed = true;
      if (s.quarantined.load(std::memory_order_acquire)) {
        s.end(End::kDiscarded);
        continue;  // drain, but don't run the model
      }
      s.tyolo_in.fetch_add(1, std::memory_order_relaxed);
      // Keep the detections, not just the verdict: the boxes are the
      // candidate regions the reference stage consolidates under
      // RefMode::kCropPack. pass() is detect() + this count, so the
      // predicate is unchanged. A degraded frame that rides on carries no
      // candidates, which routes it to the full-frame fallback.
      bool pass = false;
      detect::DetectionResult det;
      const CallOutcome oc = model_call(gpu0_call_, s.id, [&] {
        const detect::TYoloDetector& tyolo = *s.models.tyolo;
        // A frame arrives without its input only if the SNM call failed
        // before preparing it.
        if (item->tyolo_input.empty()) {
          tyolo.prepare(item->frame.image, item->tyolo_input);
        }
        det = tyolo.detect_prepared(item->tyolo_input);
        pass = det.count_target(s.models.target,
                                tyolo.config().confidence_threshold) >=
               config_.number_of_objects;
      });
      item->tyolo_input = image::Image{};
      if (oc != CallOutcome::kOk) pass = s.failed(*item, oc, /*last_stage=*/false);
      ++served;
      if (pass) {
        s.tyolo_passed.fetch_add(1, std::memory_order_relaxed);
        auto candidates =
            oc == CallOutcome::kOk ? det.boxes() : std::vector<image::Box>{};
        if (!ref_q_->push({s.id, std::move(*item), std::move(candidates)})) {
          // ref_q closed underneath us (shutdown): the popped frame cannot
          // reach the reference stage, so it terminates here.
          s.end(End::kDiscarded);
          running = false;
        }
      } else {
        s.end(End::kDropped, ms_since(item->ingest));
      }
    }
    span.set_batch(served);
    if (served > 0) {
      hot_.tyolo_take->record(static_cast<double>(served));
    }
    return progressed;
  };

  while (running) {
    const auto ticket = gpu0_work_.prepare();
    const auto n = static_cast<std::size_t>(num_streams());
    snm_done.resize(n, 0);  // new slots start not-done
    bool did_work = false;
    bool all_snm_done = true;

    // SNM pass: drain every stream's queue under the batch policy into
    // cross-stream work for this cycle, one sub-batch per stream routed to
    // that stream's SNM. The executor is the only SNM-queue consumer, so an
    // observed depth can only grow before the pops below.
    for (std::size_t i = 0; i < n && running; ++i) {
      if (snm_done[i]) continue;
      Stream& s = *streams_[i];
      if (s.quarantined.load(std::memory_order_acquire)) {
        // Drain-and-discard both device queues of a quarantined stream.
        // The watchdog closed them, so once empty they stay empty.
        while (s.snm_q.try_pop() || s.tyolo_q.try_pop()) {
          s.end(End::kDiscarded);
          did_work = true;
        }
        if (s.snm_q.closed() && s.snm_q.depth() == 0) {
          snm_done[i] = 1;
        } else {
          all_snm_done = false;
        }
        continue;
      }
      const bool ended = s.snm_q.closed();  // read before depth (see sdd_worker_loop)
      const int avail = static_cast<int>(s.snm_q.depth());
      if (ended && avail == 0) {
        snm_done[i] = 1;
        continue;
      }
      all_snm_done = false;
      const auto d = batcher.next_batch(avail, ended);
      if (d.take <= 0) continue;
      items.clear();
      for (int k = 0; k < d.take; ++k) {
        auto item = s.snm_q.try_pop();
        if (!item) break;
        items.push_back(std::move(*item));
      }
      if (items.empty()) continue;
      did_work = true;
      hot_.batch_size->record(static_cast<double>(items.size()));
      const CallOutcome oc = model_call(gpu0_call_, s.id, [&] {
        telemetry::ScopedSpan sp(trace(), "snm.batch", telemetry::Stage::kSnm, s.id,
                                 -1, static_cast<int>(items.size()));
        snm_inputs.clear();
        for (Item& it : items) {
          // A frame degraded at SDD under kBypass arrives unprepared.
          if (it.snm_input.empty()) prepare_gpu0(s.models, it);
          snm_inputs.push_back(it.snm_input.data());
        }
        s.models.snm->score(snm_inputs, scores);
      });
      const double t_pre = s.models.snm->t_pre();
      // Every popped frame is accounted, even when `running` flips false
      // mid-batch (ref_q closed at shutdown): a frame that can no longer be
      // routed terminates as discarded rather than vanishing. The device
      // call is batched, so a failed call fails every frame in it.
      for (std::size_t j = 0; j < items.size(); ++j) {
        std::vector<float>().swap(items[j].snm_input);
        s.snm_in.fetch_add(1, std::memory_order_relaxed);
        const bool pass = oc == CallOutcome::kOk
                              ? scores[j] >= t_pre
                              : s.failed(items[j], oc, /*last_stage=*/false);
        if (pass) {
          s.snm_passed.fetch_add(1, std::memory_order_relaxed);
          // The executor is also the T-YOLO service, so it must never block
          // on a full T-YOLO queue (it would deadlock against itself): a
          // full queue flips GPU0 over to T-YOLO work until space opens —
          // the feedback-queue throttle expressed as device interleaving.
          // The executor is the only thread touching T-YOLO queues, so the
          // depth check is exact and the push below fails only when
          // quarantine closed the queue mid-batch.
          while (running && s.tyolo_q.depth() >= s.tyolo_q.capacity() &&
                 !s.tyolo_q.closed()) {
            serve_tyolo();
          }
          if (!running || !s.tyolo_q.push(std::move(items[j]))) {
            s.end(End::kDiscarded);
          }
        } else {
          s.end(End::kDropped, ms_since(items[j].ingest));
        }
      }
    }

    // T-YOLO pass: one micro-batch per cycle keeps detection tightly
    // interleaved with SNM batching on the device.
    if (running && serve_tyolo()) did_work = true;

    if (!running) break;
    if (all_snm_done) {
      bool drained = true;
      for (std::size_t i = 0; i < n; ++i) {
        drained = drained && streams_[i]->tyolo_q.depth() == 0;
      }
      if (drained) {
        // Nothing left anywhere. In serve mode the executor parks here
        // waiting for the next add_stream() (its notify pairs with the
        // prepared ticket); otherwise — or once stop is requested — the
        // run is over.
        if (!config_.serving() || stop_.stop_requested()) break;
        if (!did_work) gpu0_work_.wait(ticket);
        continue;
      }
      continue;  // only T-YOLO work remains; keep serving micro-batches
    }
    if (!did_work) gpu0_work_.wait(ticket);
  }
  // Single exit: the reference stage always sees end-of-stream, whatever
  // path brought the executor down.
  ref_q_->close();
}

void FfsVaInstance::reference_loop() {
  auto& ref_q = *ref_q_;

  // The ways a frame leaves the reference stage. Emission order is pop
  // order, so per-stream FIFO holds batched or not. Drops and quarantine
  // discards feed the drop-latency histogram, kept apart from
  // latency.output_ms so the output distribution describes emitted frames
  // only; the stream's latency_ms records emitted and dropped frames alike.
  const auto discard = [&](Stream& s, const Item& item) {
    hot_.drop_latency_ms->record(ms_since(item.ingest));
    s.end(End::kDiscarded);
  };
  const auto drop = [&](Stream& s, const Item& item) {
    const double ms = ms_since(item.ingest);
    hot_.drop_latency_ms->record(ms);
    s.end(End::kDropped, ms);
  };
  const auto emit = [&](Stream& s, Item&& item,
                        detect::DetectionResult&& result) {
    const double latency = ms_since(item.ingest);
    hot_.output_latency_ms->record(latency);
    OutputEvent ev{std::move(item.frame), std::move(result), latency};
    if (sink_) {
      sink_(ev);
    } else {
      runtime::MutexLock lk(outputs_mu_);
      outputs_.push_back(std::move(ev));
    }
    // Ended after the sink call: stream_quiesced() implying "all outputs
    // delivered" is what lets a hand-off serialize a complete result set.
    s.end(End::kEmitted, latency);
  };

  // Drain ref_q under a second DynamicBatcher (the run's BatchPolicy, with
  // ref_queue_depth as its threshold) into cross-stream batches, then
  // evaluate each batch in one go — detect_batch under kBatch
  // (ref_batch_size = 1 is the paper's one-frame loop), crop-consolidated
  // mosaics under kCropPack. Per-frame outcomes are applied in batch order
  // = pop order (per-stream FIFO preserved), and a frame whose evaluation
  // throws is dropped alone (RefBatchItem::ok) — batch-mates are unaffected.
  const DynamicBatcher batcher(config_.batch_policy, config_.ref_batch_size,
                               config_.ref_queue_depth);
  // bounded-ok: pending never exceeds ref_batch_size entries — the top-up
  // loop stops at the batch cap and the blocking pop adds one only when the
  // policy is still waiting below the cap.
  std::vector<RefEntry> pending;
  pending.reserve(static_cast<std::size_t>(batcher.batch_size()));
  std::vector<RefEntry*> batch;  // eligible entries, in batch order
  std::vector<const detect::ReferenceDetector*> detectors;
  std::vector<const image::Image*> imgs;
  std::vector<detect::CropRequest> requests;
  bool ended = false;

  for (;;) {
    // Non-blocking top-up to the batch cap. Observe close *before* the
    // failed pop so an empty pop on a closed queue means end-of-stream.
    while (static_cast<int>(pending.size()) < batcher.batch_size() && !ended) {
      const bool closed = ref_q.closed();
      auto e = ref_q.try_pop();
      if (!e) {
        if (closed) ended = true;
        break;
      }
      pending.push_back(std::move(*e));
    }
    const auto step = batcher.next_batch(static_cast<int>(pending.size()), ended);
    if (step.wait) {
      // The policy wants a fuller batch: sleep on the queue, never poll.
      auto e = ref_q.pop();
      if (!e) {
        ended = true;
        continue;
      }
      pending.push_back(std::move(*e));
      continue;
    }
    if (step.take <= 0) break;  // closed, drained, nothing pending: done

    // Quarantine drain-and-discard per entry; the rest form the batch.
    batch.clear();
    for (int i = 0; i < step.take; ++i) {
      RefEntry& e = pending[static_cast<std::size_t>(i)];
      Stream& s = *streams_[static_cast<std::size_t>(e.stream)];
      if (s.quarantined.load(std::memory_order_acquire)) {
        discard(s, e.item);
        continue;
      }
      s.ref_in.fetch_add(1, std::memory_order_relaxed);
      batch.push_back(&e);
    }

    if (!batch.empty()) {
      hot_.ref_batch_size->record(static_cast<double>(batch.size()));
      std::vector<detect::RefBatchItem> results;
      // The batch spans streams; attribute the in-flight call to the first
      // entry (the watchdog only needs *a* stream to charge the cancel to).
      // detect_batch / consolidate_detect isolate per-frame errors and
      // re-raise a cancel after all their chunks join, so a whole-batch
      // failure is a cancel or a batch-setup error (e.g. allocation).
      const CallOutcome oc = model_call(
          ref_call_, batch.front()->stream, [&] {
            telemetry::ScopedSpan sp(trace(), "ref.batch", telemetry::Stage::kRef,
                                     /*stream=*/-1, /*index=*/-1,
                                     static_cast<int>(batch.size()));
            if (config_.ref_mode == RefMode::kCropPack) {
              requests.clear();
              requests.reserve(batch.size());
              for (const RefEntry* e : batch) {
                const auto& ref =
                    *streams_[static_cast<std::size_t>(e->stream)]->models.reference;
                requests.push_back(detect::CropRequest{
                    &e->item.frame.image, &ref.background(), e->candidates});
              }
              // Reference-model parameters are deployment-wide; the
              // per-stream state (the background) travels in each request.
              auto consolidated = detect::consolidate_detect(
                  requests,
                  streams_[static_cast<std::size_t>(batch.front()->stream)]
                      ->models.reference->config(),
                  detect::CropPackConfig{});
              results = std::move(consolidated.items);
              const auto& cs = consolidated.stats;
              for (const double f : cs.fill_ratio) hot_.mosaic_fill->record(f);
              for (const int c : cs.crops_per_mosaic) {
                hot_.crops_per_mosaic->record(static_cast<double>(c));
              }
              hot_.ref_full_frame->add(
                  static_cast<std::uint64_t>(cs.full_frame_fallbacks));
              hot_.ref_seam_suppressed->add(
                  static_cast<std::uint64_t>(cs.seam_suppressed));
            } else {  // RefMode::kBatch
              detectors.clear();
              imgs.clear();
              for (const RefEntry* e : batch) {
                detectors.push_back(streams_[static_cast<std::size_t>(e->stream)]
                                        ->models.reference.get());
                imgs.push_back(&e->item.frame.image);
              }
              results = detect::detect_batch(detectors, imgs);
            }
          });

      for (std::size_t i = 0; i < batch.size(); ++i) {
        RefEntry& e = *batch[i];
        Stream& s = *streams_[static_cast<std::size_t>(e.stream)];
        if (oc == CallOutcome::kOk && results[i].ok) {
          emit(s, std::move(e.item), std::move(results[i].result));
        } else {
          s.failed(e.item, oc == CallOutcome::kOk ? CallOutcome::kFailed : oc,
                   /*last_stage=*/true);
          drop(s, e.item);
        }
      }
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(step.take));
  }
}

void FfsVaInstance::quarantine(Stream& s) {
  if (s.quarantined.exchange(true, std::memory_order_acq_rel)) return;
  // Close the stream's queues: its producers fail fast, its consumers
  // drain-and-discard. Every other stream keeps running untouched.
  s.sdd_q.close();
  s.snm_q.close();
  s.tyolo_q.close();
  gpu0_work_.notify();  // run the executor's drain branch promptly
  // The prefetch thread is joined, never detached — so a decode wedged
  // inside source->next() must be made to return. Cancel the in-flight
  // call: the source unwinds via CancelledError at its next cancellation
  // check, the loop observes the quarantine and exits, and run()'s join is
  // bounded. (timeout -1: cancel whatever is in flight, however young.)
  cancel_overdue(s.prefetch_call, runtime::steady_now_ms(), -1);
}

void FfsVaInstance::cancel_overdue(runtime::InflightCall& call,
                                   std::int64_t now_ms, std::int64_t timeout_ms) {
  if (!call.try_cancel(now_ms, timeout_ms)) return;
  const int st = call.stream();
  if (st >= 0 && st < num_streams()) {
    streams_[static_cast<std::size_t>(st)]->cancels.fetch_add(
        1, std::memory_order_relaxed);
  }
}

void FfsVaInstance::supervise(Clock::time_point t0) {
  telemetry::ScopedSpan sp(trace(), "supervise.tick",
                           telemetry::Stage::kSupervise);
  if (config_.run_deadline_ms > 0 && !deadline_hit_.load(std::memory_order_relaxed) &&
      ms_since(t0) > static_cast<double>(config_.run_deadline_ms)) {
    deadline_hit_.store(true, std::memory_order_relaxed);
    stop();
  }
  const std::int64_t now = runtime::steady_now_ms();
  // Escalation step one (DESIGN.md Section 14): a model call in flight past
  // model_call_timeout_ms is cancelled. The call unwinds via CancelledError
  // at its next tile boundary, the owning stage degrades (or poisons) the
  // frame and keeps serving.
  if (config_.model_call_timeout_ms > 0) {
    const auto call_timeout =
        static_cast<std::int64_t>(config_.model_call_timeout_ms);
    for (auto& c : sdd_call_) cancel_overdue(c, now, call_timeout);
    cancel_overdue(gpu0_call_, now, call_timeout);
    cancel_overdue(ref_call_, now, call_timeout);
    const int np = num_streams();
    for (int i = 0; i < np; ++i) {
      cancel_overdue(streams_[static_cast<std::size_t>(i)]->prefetch_call, now,
                     call_timeout);
    }
  }
  if (config_.stall_timeout_ms <= 0) return;
  const auto timeout = static_cast<std::int64_t>(config_.stall_timeout_ms);
  const int nq = num_streams();
  for (int i = 0; i < nq; ++i) {
    auto& s = streams_[static_cast<std::size_t>(i)];
    if (!s->quarantined.load(std::memory_order_acquire)) {
      if (s->prefetch_call.busy_age_ms() > timeout) quarantine(*s);
    } else {
      // A quarantined stream's prefetch thread is joined, not detached:
      // keep cancelling any decode still wedged (e.g. a fresh call that
      // raced the quarantine cancel) so the join stays bounded.
      cancel_overdue(s->prefetch_call, now, timeout);
    }
  }
  // Shared stages (SDD pool, GPU0 executor, reference thread) serve every
  // stream, so they cannot be quarantined per stream — a stall there is
  // surfaced in the health summary (and, with model_call_timeout_ms armed,
  // already being acted on by the cancellation scan above).
  bool stalled =
      gpu0_call_.busy_age_ms() > timeout || ref_call_.busy_age_ms() > timeout;
  for (const auto& c : sdd_call_) stalled = stalled || c.busy_age_ms() > timeout;
  if (stalled) stage_stall_ticks_.fetch_add(1, std::memory_order_relaxed);
}

InstanceStats FfsVaInstance::run(bool online) {
  const bool serve = config_.serving();
  if (streams_.empty() && !serve) {
    throw std::invalid_argument("FfsVaInstance::run: no streams registered");
  }
  if (run_called_.exchange(true)) {
    throw std::logic_error(
        "FfsVaInstance::run: run() already invoked on this instance");
  }
  runtime::Stopwatch wall;
  const auto t0 = Clock::now();
  run_t0_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t0.time_since_epoch())
                       .count(),
                   std::memory_order_relaxed);
  // All registry handles and gauges exist before any stage thread starts —
  // from here the hot path never touches the registry map.
  wire_metrics();
  if (tracing_requested_) trace().enable();
  if (metrics_sink_ != nullptr) {
    exporter_.start_stream(metrics_sink_, config_.metrics_interval_ms,
                           metrics_label_);
  }
  // Resolve the run-wide ingest parameters once; add_stream() replays them
  // for dynamically attached streams (DESIGN.md §15).
  const bool hinted = config_.decode_policy == DecodePolicy::kHinted && !online;
  int n0 = 0;
  int unfused = 0;
  {
    runtime::MutexLock lk(streams_mu_);
    n0 = nstreams_.load(std::memory_order_relaxed);
    // Reserve every slot a mid-run add_stream() may fill: a push_back
    // within this capacity never reallocates, so the raw Stream pointers
    // stage threads hold across their scans stay valid for the whole run.
    streams_.reserve(std::max(
        streams_.size(),
        static_cast<std::size_t>(std::max(0, config_.max_streams))));
    run_online_ = online;
    run_hinted_ = hinted;
    // The SDD pool only needs to cover the streams not fused into ingest.
    for (int i = 0; i < n0; ++i) {
      if (attach(*streams_[static_cast<std::size_t>(i)])) ++unfused;
    }
    engine_live_ = true;
  }
  running_.store(true, std::memory_order_release);
  // A serving engine cannot size its pool by the (changing, possibly zero)
  // stream count — it keeps a full pool parked on the eventcount instead.
  const int workers =
      sdd_pool_size(serve ? std::numeric_limits<int>::max() : unfused);
  sdd_call_ = std::vector<runtime::InflightCall>(static_cast<std::size_t>(workers));

  // thread-ok: per-stream prefetch threads — a camera/decoder is inherently
  // per-stream; all joined below (quarantine cancels a wedged decode, so
  // the join is bounded).
  std::vector<std::thread> prefetch_threads;
  prefetch_threads.reserve(static_cast<std::size_t>(n0));
  for (int i = 0; i < n0; ++i) {
    prefetch_threads.emplace_back(&FfsVaInstance::prefetch_loop,
                                  streams_[static_cast<std::size_t>(i)], online);
  }
  // thread-ok: the fixed stage set (SDD pool, GPU0 executor, reference
  // thread) — O(workers), not O(streams); all joined below.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers) + 2);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([this, w] { sdd_worker_loop(w); });
  }
  threads.emplace_back([this] { gpu0_loop(); });
  threads.emplace_back([this] { reference_loop(); });

  runtime::Watchdog watchdog;
  if (config_.stall_timeout_ms > 0 || config_.run_deadline_ms > 0 ||
      config_.model_call_timeout_ms > 0) {
    int tick = 50;
    if (config_.stall_timeout_ms > 0) {
      tick = std::min(tick, std::max(1, config_.stall_timeout_ms / 4));
    }
    if (config_.run_deadline_ms > 0) {
      tick = std::min(tick, std::max(1, config_.run_deadline_ms / 4));
    }
    if (config_.model_call_timeout_ms > 0) {
      tick = std::min(tick, std::max(1, config_.model_call_timeout_ms / 4));
    }
    watchdog.start(std::chrono::milliseconds(tick), [this, t0] { supervise(t0); });
  }

  // Joined, never detached: a prefetch thread wedged inside its source is
  // un-wedged by cancellation — quarantine cancels its in-flight decode,
  // and supervise() keeps re-cancelling a call that stays wedged — so each
  // join completes in bounded time. The watchdog stays alive until these
  // joins are done (it stops below).
  for (auto& t : prefetch_threads) t.join();
  for (auto& t : threads) t.join();
  {
    // The stage threads are gone, so no new stream can be served: close the
    // engine to further adds, then join the prefetch threads add_stream()
    // spawned mid-run (stop()'s close sweep unblocked them; a wedged decode
    // is still cancellable — the watchdog stops only after these joins).
    runtime::MutexLock lk(streams_mu_);
    engine_live_ = false;
    // blocking-ok: joins under streams_mu_ are bounded — the ingest queues
    // are closed, so each prefetch thread is on its way out, and holding
    // the lock here is what makes add_stream's attach/engine-down check
    // atomic against this teardown.
    for (auto& t : late_prefetch_) t.join();
    late_prefetch_.clear();
  }
  watchdog.stop();
  // Every stage thread has quiesced: the exporter's final row and the trace
  // rings now hold the run's exact closing state.
  exporter_.stop();
  if (tracing_requested_) trace().disable();
  running_.store(false, std::memory_order_release);

  InstanceStats out;
  out.wall_sec = wall.elapsed_sec();
  out.health = health();
  std::uint64_t ingested = 0;
  for (auto& sp : streams_) {
    Stream& s = *sp;
    // Freeze the stream's atomics into the plain report. For a quarantined
    // stream the prefetch thread may still be alive — this read is the
    // freeze point of its counters.
    StreamStats st;
    static_cast<StreamCounters&>(st) = s.counters();
    st.decode_ms = s.decode_ms.snapshot();
    st.latency_ms = s.latency_ms.snapshot();
    const double iw = s.ingest_wall_sec.load(std::memory_order_relaxed);
    if (iw > 0.0) st.ingest_fps = static_cast<double>(st.prefetch.passed) / iw;
    ingested += st.prefetch.passed;
    tally(out.health, st.fault);
    out.streams.push_back(std::move(st));
  }
  out.total_throughput_fps =
      out.wall_sec > 0.0 ? static_cast<double>(ingested) / out.wall_sec : 0.0;
  return out;
}

}  // namespace ffsva::core
