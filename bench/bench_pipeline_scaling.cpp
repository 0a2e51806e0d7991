// Offline multi-stream scaling of the *threaded* pipeline engine.
//
// Unlike the figure benches (which drive the discrete-event simulator),
// this one runs the real FfsVaInstance — threads, bounded queues, the GPU0
// executor — over pre-rendered frames, so what is measured is the engine
// itself: thread-model overhead, queue wakeups, and cross-stream batching,
// not decode or simulation cost. Throughput is reported for 1/4/16/64
// identical streams replaying the same window.
//
// Online mode (30 FPS ingest pacing) is measured alongside: its headline
// number is the *drop rate* vs stream count — a paced camera cannot block,
// so overload shows up as frames dropped at ingest, not as lower FPS. A
// third series repeats the online run with injected source faults
// (transient decode errors, truncated frames, latency spikes) and reports
// the supervision counters, so the overhead and accounting of the fault
// path are archived next to the clean runs.
//
// A GPU1 series compares the reference-stage modes head-to-head on a
// reference-heavy deployment (16 streams of 256x192 frames at high target
// occupancy, so the expensive full-resolution segmentation dominates):
// ref_single (the pre-batching loop), ref_batch (micro-batched
// ReferenceDetector::detect_batch), and ref_crop_pack (cross-stream mosaic
// consolidation). Each batched row carries its per-frame pass/fail
// agreement with the ref_single oracle, so the throughput gain is archived
// next to the accuracy it costs.
//
// A final pair of 16-stream offline rows measures the telemetry subsystem
// itself: three interleaved off/on pairs (sampler at --metrics-interval-ms
// in the on runs), archived best-of-3 as offline_metrics_{off,on} with the
// relative overhead_pct — the budget DESIGN.md Section 10 commits to. When
// --trace-out is given, one extra unmeasured run records spans and writes
// the chrome://tracing timeline.
//
// A decode-policy series (--decode-policy) measures the codec-aware ingest
// path (DESIGN.md §13) head-to-head: 16 StoredSource streams decoding a
// static-heavy recording (192x144, low TOR, deadzoned delta-RLE), run
// interleaved best-of-3 under DecodePolicy::kFull vs kHinted. The hinted
// row archives the decode_skipped/hint_fallbacks counters, the stream's
// compression ratio, the offline pixel-SDD agreement of the hint chain
// (compressed_sdd_agreement), and the fps speedup over the kFull best.
//
// A model-fault series (--model-faults) measures the escalation layer
// (DESIGN.md Section 14) end-to-end: a 16-stream offline run with the
// per-call watchdog armed, clean vs with deterministic in-model wedges
// (FaultHook kStall) seeded at all four stages. The wedged row archives the
// supervision counters (cancels, stage restarts, poisoned frames, recovery
// p99) and its throughput ratio against the clean best — the "survives
// wedges at >=0.8x fault-free throughput" budget the layer commits to.
//
// Usage: bench_pipeline_scaling [--json out.json] [--label prefix]
//                               [--frames N] [--online-frames N]
//                               [--streams a,b,c]
//                               [--decode-policy full|hinted|both|off]
//                               [--model-faults on|off]
//                               [--metrics-out m.jsonl] [--trace-out t.json]
//                               [--metrics-interval-ms N]
// `--label` prefixes every series name, which is how pre/post engine runs
// are distinguished inside one archived BENCH_pipeline_scaling.json.
// --metrics-out captures the JSONL of the metrics-on overhead runs (without
// it they sample into a discarded buffer, so the overhead row is measured
// either way); --trace-out adds the unmeasured traced run.
#include "common.hpp"

#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include "core/pipeline.hpp"
#include "detect/fault_hook.hpp"
#include "detect/sdd.hpp"
#include "detect/snm.hpp"
#include "node/cluster_scheduler.hpp"
#include "node/node_server.hpp"
#include "runtime/stopwatch.hpp"
#include "video/fault_injection.hpp"
#include "video/source.hpp"

using namespace ffsva;

namespace {

/// Replays a pre-rendered frame window as one stream (zero decode cost).
class ReplaySource final : public video::FrameSource {
 public:
  ReplaySource(const std::vector<video::Frame>* window, int stream_id)
      : window_(window), stream_id_(stream_id) {}

  std::optional<video::Frame> next() override {
    if (next_ >= window_->size()) return std::nullopt;
    video::Frame f = (*window_)[next_++];
    f.stream_id = stream_id_;
    return f;
  }
  std::int64_t total_frames() const override {
    return static_cast<std::int64_t>(window_->size());
  }

 private:
  const std::vector<video::Frame>* window_;
  int stream_id_;
  std::size_t next_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string label;
  std::int64_t frames_per_stream = 192;
  // Online rows are wall-clock bound by the 30 FPS pacing (wall ~ frames/30
  // whatever the stream count). The window must outrun the 128-frame ingest
  // buffer, or overload never surfaces as drops.
  std::int64_t online_frames = 192;
  std::vector<int> stream_counts = {1, 4, 16, 64};
  std::string metrics_out, trace_out;
  std::string decode_policy = "both";
  std::string model_faults = "on";
  int metrics_interval_ms = 100;
  bool cluster = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster") == 0) cluster = true;
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0) label = std::string(argv[i + 1]) + "/";
    if (std::strcmp(argv[i], "--frames") == 0) frames_per_stream = std::atol(argv[i + 1]);
    if (std::strcmp(argv[i], "--online-frames") == 0) online_frames = std::atol(argv[i + 1]);
    if (std::strcmp(argv[i], "--decode-policy") == 0) decode_policy = argv[i + 1];
    if (std::strcmp(argv[i], "--model-faults") == 0) model_faults = argv[i + 1];
    if (std::strcmp(argv[i], "--metrics-out") == 0) metrics_out = argv[i + 1];
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[i + 1];
    if (std::strcmp(argv[i], "--metrics-interval-ms") == 0) {
      metrics_interval_ms = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--streams") == 0) {
      stream_counts.clear();
      for (const char* p = argv[i + 1]; *p;) {
        stream_counts.push_back(std::atoi(p));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    }
  }
  bench::JsonReport report(argc, argv);

  bench::print_header("PIPELINE SCALING -- offline engine throughput vs stream count");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  // One specialized stream, shared by every replica: the paper's deployment
  // has per-stream models, but for an engine benchmark identical models keep
  // specialization cost out of the loop. SDD/T-YOLO are const-safe; SNM and
  // the reference model are serialized by the engine's device ownership.
  std::printf("Specializing models and pre-rendering %lld frames...\n",
              static_cast<long long>(frames_per_stream));
  auto cfg_scene = video::jackson_profile();
  cfg_scene.width = 128;
  cfg_scene.height = 96;
  cfg_scene.tor = 0.25;
  const std::int64_t calib = 600;
  video::SceneSimulator sim(cfg_scene, 1234,
                            calib + frames_per_stream);
  std::vector<video::Frame> calib_frames;
  for (std::int64_t i = 0; i < calib; ++i) calib_frames.push_back(sim.render(i));
  detect::SpecializeConfig sc;
  sc.target = cfg_scene.target;
  sc.snm.epochs = 4;
  const auto models = detect::specialize_stream(calib_frames, sc, 1234);

  std::vector<video::Frame> window;
  window.reserve(static_cast<std::size_t>(frames_per_stream));
  for (std::int64_t i = 0; i < frames_per_stream; ++i) {
    window.push_back(sim.render(calib + i));
  }

  std::printf("\n%-10s %12s %12s %12s %12s\n", "streams", "total FPS", "FPS/stream",
              "p50 lat(ms)", "p99 lat(ms)");
  bench::print_rule();
  for (const int n : stream_counts) {
    core::FfsVaConfig cfg;
    core::FfsVaInstance instance(cfg);
    instance.set_output_sink([](const core::OutputEvent&) {});
    for (int s = 0; s < n; ++s) {
      instance.add_stream(std::make_unique<ReplaySource>(&window, s), models);
    }
    const auto stats = instance.run(/*online=*/false);
    const auto agg = stats.aggregate();
    std::printf("%-10d %12.1f %12.1f %12.1f %12.1f\n", n,
                stats.total_throughput_fps, stats.total_throughput_fps / n,
                agg.latency_ms.p50(), agg.latency_ms.p99());
    char name[64];
    std::snprintf(name, sizeof(name), "%soffline/streams=%d", label.c_str(), n);
    report.add(name, stats.total_throughput_fps, agg.latency_ms.p50(),
               agg.latency_ms.p99());
  }

  // --- codec-aware ingest: DecodePolicy kFull vs kHinted -------------------
  // The scaling window above replays pre-rendered frames (zero decode
  // cost), which is the right regime for measuring the engine — and the
  // wrong one for measuring ingest. This series stores a static-heavy
  // recording in the real delta-RLE codec and decodes it through
  // StoredSource, so prefetch pays the per-pixel reconstruction cost the
  // paper's offline mode is bounded by; kHinted then skips that cost for
  // every frame the compressed-domain SDD can prove droppable.
  if (decode_policy != "off") {
    const int n = 16;
    std::printf("\nSpecializing ingest-bound models (192x144, tor 0.15)...\n");
    auto dec_scene = video::jackson_profile();
    dec_scene.width = 192;
    dec_scene.height = 144;
    dec_scene.tor = 0.15;  // mostly background: decode dominates kFull
    const std::int64_t dec_calib = 600;
    video::SceneSimulator dec_sim(dec_scene, 7777, dec_calib + frames_per_stream);
    std::vector<video::Frame> dec_calib_frames;
    for (std::int64_t i = 0; i < dec_calib; ++i) {
      dec_calib_frames.push_back(dec_sim.render(i));
    }
    detect::SpecializeConfig dsc;
    dsc.target = dec_scene.target;
    dsc.snm.epochs = 4;
    const auto dec_models = detect::specialize_stream(dec_calib_frames, dsc, 7777);
    std::vector<video::Frame> dec_window;
    dec_window.reserve(static_cast<std::size_t>(frames_per_stream));
    for (std::int64_t i = 0; i < frames_per_stream; ++i) {
      dec_window.push_back(dec_sim.render(dec_calib + i));
    }
    const auto stored = std::make_shared<const video::StoredVideo>(
        video::StoredVideo::encode(dec_window, /*keyframe_interval=*/32,
                                   /*deadzone=*/4));

    struct PolicyRun {
      double fps = 0.0, p50 = 0.0, p99 = 0.0;
      std::uint64_t decode_full = 0, decode_skipped = 0;
      std::uint64_t hint_passes = 0, hint_fallbacks = 0;
      double compression_ratio = 0.0;
    };
    const auto run_policy = [&](core::DecodePolicy p) {
      core::FfsVaConfig cfg;
      cfg.decode_policy = p;
      core::FfsVaInstance instance(cfg);
      instance.set_output_sink([](const core::OutputEvent&) {});
      for (int s = 0; s < n; ++s) {
        instance.add_stream(std::make_unique<video::StoredSource>(stored, s),
                            dec_models);
      }
      const auto stats = instance.run(/*online=*/false);
      const auto agg = stats.aggregate();
      PolicyRun r;
      r.fps = stats.total_throughput_fps;
      r.p50 = agg.latency_ms.p50();
      r.p99 = agg.latency_ms.p99();
      r.decode_full = agg.ingest.decode_full;
      r.decode_skipped = agg.ingest.decode_skipped;
      r.hint_passes = agg.ingest.hint_passes;
      r.hint_fallbacks = agg.ingest.hint_fallbacks;
      r.compression_ratio = agg.ingest.compression_ratio;
      return r;
    };
    // The hint chain's pixel-SDD agreement is deterministic (a pure replay
    // of hints against decoded distances), so it is computed once offline
    // rather than per measured run, with the engine's conservative band.
    const auto agreement_report = detect::compressed_sdd_agreement(
        *stored, *dec_models.sdd, detect::kHintRelax);

    const struct {
      core::DecodePolicy policy;
      const char* name;
    } kPolicies[] = {{core::DecodePolicy::kFull, "decode_full"},
                     {core::DecodePolicy::kHinted, "decode_hinted"}};
    const bool run_pol[2] = {decode_policy != "hinted", decode_policy != "full"};
    // Same methodology as the other head-to-head blocks: one discarded
    // warmup, then interleaved reps, best-of per policy.
    const int reps = 3;
    std::printf("\ndecode policy (%d streams, offline, 192x144 stored, "
                "compression %.1fx, best of %d)\n", n,
                stored->stats().compression_ratio(), reps);
    std::printf("%-16s %12s %12s %12s\n", "policy", "total FPS", "p50 lat(ms)",
                "p99 lat(ms)");
    bench::print_rule();
    (void)run_policy(core::DecodePolicy::kFull);  // warmup, discarded
    PolicyRun best[2];
    for (int rep = 0; rep < reps; ++rep) {
      for (int m = 0; m < 2; ++m) {
        if (!run_pol[m]) continue;
        PolicyRun r = run_policy(kPolicies[m].policy);
        std::printf("%-16s %12.1f %12.1f %12.1f\n", kPolicies[m].name, r.fps,
                    r.p50, r.p99);
        if (r.fps > best[m].fps) best[m] = r;
      }
    }
    bench::print_rule();
    for (int m = 0; m < 2; ++m) {
      if (!run_pol[m]) continue;
      const PolicyRun& r = best[m];
      const bool hinted = kPolicies[m].policy == core::DecodePolicy::kHinted;
      bench::JsonReport::Extras extras{
          {"compression_ratio", r.compression_ratio}};
      std::printf("%-16s %12.1f %12.1f %12.1f", kPolicies[m].name, r.fps,
                  r.p50, r.p99);
      if (hinted) {
        extras.emplace_back("sdd_agreement", agreement_report.agreement());
        extras.emplace_back("decode_skipped",
                            static_cast<double>(r.decode_skipped));
        extras.emplace_back("hint_fallbacks",
                            static_cast<double>(r.hint_fallbacks));
        std::printf(" skipped=%llu fallbacks=%llu agreement=%.4f",
                    static_cast<unsigned long long>(r.decode_skipped),
                    static_cast<unsigned long long>(r.hint_fallbacks),
                    agreement_report.agreement());
        if (run_pol[0] && best[0].fps > 0.0) {
          const double speedup = r.fps / best[0].fps;
          extras.emplace_back("speedup_vs_full", speedup);
          std::printf(" speedup=%.2fx", speedup);
        }
      }
      std::printf("\n");
      char name[64];
      std::snprintf(name, sizeof(name), "%s%s/streams=%d", label.c_str(),
                    kPolicies[m].name, n);
      report.add(name, r.fps, r.p50, r.p99, std::move(extras));
    }
  }

  // --- GPU1 reference-stage modes: single vs batch vs crop_pack -----------
  // The scaling window above is cheap-filter bound (tiny frames, low target
  // occupancy), which is the right regime for the cascade — but it hides
  // GPU1. This series re-specializes on a reference-heavy deployment so the
  // full-resolution segmentation is the bottleneck the modes compete on.
  {
    const int n = 16;
    std::printf("\nSpecializing reference-heavy models (256x192, tor 0.7)...\n");
    auto ref_scene = video::jackson_profile();
    ref_scene.width = 256;
    ref_scene.height = 192;
    ref_scene.tor = 0.7;
    const std::int64_t ref_calib = 600;
    video::SceneSimulator ref_sim(ref_scene, 4321, ref_calib + frames_per_stream);
    std::vector<video::Frame> ref_calib_frames;
    for (std::int64_t i = 0; i < ref_calib; ++i) {
      ref_calib_frames.push_back(ref_sim.render(i));
    }
    detect::SpecializeConfig rsc;
    rsc.target = ref_scene.target;
    rsc.snm.epochs = 4;
    const auto ref_models = detect::specialize_stream(ref_calib_frames, rsc, 4321);
    std::vector<video::Frame> ref_window;
    ref_window.reserve(static_cast<std::size_t>(frames_per_stream));
    for (std::int64_t i = 0; i < frames_per_stream; ++i) {
      ref_window.push_back(ref_sim.render(ref_calib + i));
    }

    struct ModeRun {
      double fps = 0.0, p50 = 0.0, p99 = 0.0;
      std::map<std::pair<int, std::int64_t>, bool> pass;  ///< Frame verdicts.
      std::uint64_t batches = 0, fallbacks = 0, seam = 0;
    };
    const double conf = ref_models.reference->config().confidence_threshold;
    const struct Mode {
      core::RefMode mode;
      int ref_batch_size;  ///< 0 = the config default.
      const char* name;
    } kModes[] = {{core::RefMode::kBatch, 1, "ref_single"},  // one-frame loop
                  {core::RefMode::kBatch, 0, "ref_batch"},
                  {core::RefMode::kCropPack, 0, "ref_crop_pack"}};
    const auto run_mode = [&](const Mode& mode) {
      core::FfsVaConfig cfg;
      cfg.ref_mode = mode.mode;
      if (mode.ref_batch_size > 0) cfg.ref_batch_size = mode.ref_batch_size;
      core::FfsVaInstance instance(cfg);
      instance.set_output_sink([](const core::OutputEvent&) {});
      for (int s = 0; s < n; ++s) {
        instance.add_stream(std::make_unique<ReplaySource>(&ref_window, s),
                            ref_models);
      }
      const auto stats = instance.run(/*online=*/false);
      const auto agg = stats.aggregate();
      ModeRun r;
      r.fps = stats.total_throughput_fps;
      r.p50 = agg.latency_ms.p50();
      r.p99 = agg.latency_ms.p99();
      for (const auto& ev : instance.outputs()) {
        r.pass[{ev.frame.stream_id, ev.frame.index}] =
            ev.result.count_target(ref_models.target, conf) >= 1;
      }
      r.batches = instance.metrics().counter("executor.ref_batches").value();
      r.fallbacks = instance.metrics().counter("ref.full_frame_fallbacks").value();
      r.seam = instance.metrics().counter("ref.seam_suppressed").value();
      return r;
    };
    // Frames are keyed (stream, index): 16-stream emission interleave is
    // scheduling-dependent, so agreement is computed over the union of
    // emitted frames — a frame one mode emitted and the other did not is a
    // disagreement, not a skip.
    const auto agreement = [](const ModeRun& oracle, const ModeRun& other) {
      std::size_t agree = 0, total = 0;
      for (const auto& [key, pass] : oracle.pass) {
        ++total;
        const auto it = other.pass.find(key);
        if (it != other.pass.end() && it->second == pass) ++agree;
      }
      for (const auto& [key, pass] : other.pass) {
        if (!oracle.pass.count(key)) ++total;
      }
      return total > 0 ? static_cast<double>(agree) / static_cast<double>(total)
                       : 1.0;
    };

    // Single-run noise on a shared host is several percent — larger than
    // the single-vs-batch delta on a low-core machine — so the methodology
    // matches the telemetry-overhead block: one discarded warmup (page
    // cache, pool spin-up), then interleaved reps, best-of per mode.
    // Verdict maps are deterministic per mode, so agreement is computed
    // from the best runs.
    const int reps = 3;
    std::printf("\nreference-stage mode (%d streams, offline, 256x192, "
                "best of %d)\n", n, reps);
    std::printf("%-16s %12s %12s %12s\n", "mode", "total FPS", "p50 lat(ms)",
                "p99 lat(ms)");
    bench::print_rule();
    (void)run_mode(kModes[0]);  // warmup, discarded
    ModeRun best[3];
    for (int rep = 0; rep < reps; ++rep) {
      for (int m = 0; m < 3; ++m) {
        ModeRun r = run_mode(kModes[m]);
        std::printf("%-16s %12.1f %12.1f %12.1f\n", kModes[m].name, r.fps,
                    r.p50, r.p99);
        if (r.fps > best[m].fps) best[m] = std::move(r);
      }
    }
    bench::print_rule();
    for (int m = 0; m < 3; ++m) {
      const ModeRun& r = best[m];
      const bool is_oracle = m == 0;
      const double agree = is_oracle ? 1.0 : agreement(best[0], r);
      std::printf("%-16s %12.1f %12.1f %12.1f agreement=%.4f\n", kModes[m].name,
                  r.fps, r.p50, r.p99, agree);
      char name[64];
      std::snprintf(name, sizeof(name), "%s%s/streams=%d", label.c_str(),
                    kModes[m].name, n);
      bench::JsonReport::Extras extras{{"oracle_agreement", agree}};
      if (!is_oracle) extras.emplace_back("ref_batches",
                                          static_cast<double>(r.batches));
      if (kModes[m].mode == core::RefMode::kCropPack) {
        extras.emplace_back("full_frame_fallbacks",
                            static_cast<double>(r.fallbacks));
        extras.emplace_back("seam_suppressed", static_cast<double>(r.seam));
      }
      report.add(name, r.fps, r.p50, r.p99, std::move(extras));
    }
  }

  // --- telemetry overhead: 16-stream offline, metrics off vs on -----------
  // The per-run noise of a 16-stream threaded run is several percent, so a
  // single off/on pair cannot resolve a <=2% budget. We alternate off/on
  // over three pairs and compare best-of-3 — interleaving cancels drift
  // (thermal, page cache, sibling load) and best-of suppresses outliers.
  // The measured "on" runs carry the live sampler at --metrics-interval-ms;
  // span tracing is a separate opt-in diagnostic and is exercised by one
  // extra unmeasured run only when --trace-out asks for a timeline.
  {
    const int n = 16;
    const int reps = 3;
    std::printf("\ntelemetry overhead (%d streams, offline, sampler %d ms, "
                "best of %d)\n", n, metrics_interval_ms, reps);
    std::printf("%-22s %12s %12s %12s\n", "variant", "total FPS", "p50 lat(ms)",
                "p99 lat(ms)");
    bench::print_rule();
    struct Best {
      double fps = 0.0, p50 = 0.0, p99 = 0.0;
    };
    Best best[2];  // [0] = metrics off, [1] = metrics on.
    const auto run_variant = [&](bool metrics_on) {
      core::FfsVaConfig cfg;
      cfg.metrics_interval_ms = std::max(1, metrics_interval_ms);
      core::FfsVaInstance instance(cfg);
      instance.set_output_sink([](const core::OutputEvent&) {});
      std::ostringstream discard;
      if (metrics_on) {
        if (!metrics_out.empty()) {
          instance.enable_metrics_export(metrics_out, label + "bench16");
        } else {
          instance.enable_metrics_export(&discard, label + "bench16");
        }
      }
      for (int s = 0; s < n; ++s) {
        instance.add_stream(std::make_unique<ReplaySource>(&window, s), models);
      }
      const auto stats = instance.run(/*online=*/false);
      const auto agg = stats.aggregate();
      Best& b = best[metrics_on ? 1 : 0];
      if (stats.total_throughput_fps > b.fps) {
        b = {stats.total_throughput_fps, agg.latency_ms.p50(),
             agg.latency_ms.p99()};
      }
      std::printf("%-22s %12.1f %12.1f %12.1f\n",
                  metrics_on ? "metrics_on" : "metrics_off",
                  stats.total_throughput_fps, agg.latency_ms.p50(),
                  agg.latency_ms.p99());
    };
    for (int rep = 0; rep < reps; ++rep) {
      run_variant(false);
      run_variant(true);
    }
    const double overhead_pct =
        best[0].fps > 0.0
            ? (best[0].fps - best[1].fps) / best[0].fps * 100.0
            : 0.0;
    std::printf("%-22s %12.2f%%\n", "overhead (best-of)", overhead_pct);
    for (const bool metrics_on : {false, true}) {
      char name[64];
      std::snprintf(name, sizeof(name), "%soffline_metrics_%s/streams=%d",
                    label.c_str(), metrics_on ? "on" : "off", n);
      bench::JsonReport::Extras extras;
      if (metrics_on) extras.emplace_back("overhead_pct", overhead_pct);
      const Best& b = best[metrics_on ? 1 : 0];
      report.add(name, b.fps, b.p50, b.p99, std::move(extras));
    }
    if (!trace_out.empty()) {
      // One extra run with spans armed, outside the measured pairs.
      core::FfsVaConfig cfg;
      cfg.metrics_interval_ms = std::max(1, metrics_interval_ms);
      core::FfsVaInstance instance(cfg);
      instance.set_output_sink([](const core::OutputEvent&) {});
      instance.enable_tracing();
      for (int s = 0; s < n; ++s) {
        instance.add_stream(std::make_unique<ReplaySource>(&window, s), models);
      }
      instance.run(/*online=*/false);
      if (instance.export_trace(trace_out)) {
        std::printf("trace written to %s\n", trace_out.c_str());
      }
    }
  }

  // --- online mode: drop rate vs stream count -----------------------------
  // Each online run paces every stream at 30 FPS over a shorter window; the
  // clean series measures overload (ingest drops), the fault series adds
  // survivable source faults and reports the supervision counters.
  const std::int64_t of = std::min(online_frames, frames_per_stream);
  const auto online_window =
      std::vector<video::Frame>(window.begin(), window.begin() + of);

  for (const bool with_faults : {false, true}) {
    std::printf("\nonline %s(30 FPS pacing, %lld frames/stream)\n",
                with_faults ? "with injected faults " : "",
                static_cast<long long>(of));
    std::printf("%-10s %12s %12s %12s %12s\n", "streams", "total FPS",
                "drop rate", "p50 lat(ms)", "p99 lat(ms)");
    bench::print_rule();
    for (const int n : stream_counts) {
      core::FfsVaConfig cfg;
      cfg.stall_timeout_ms = 250;  // supervision armed, as deployed
      cfg.source_max_retries = 6;
      core::FfsVaInstance instance(cfg);
      instance.set_output_sink([](const core::OutputEvent&) {});
      for (int s = 0; s < n; ++s) {
        auto src = std::make_unique<ReplaySource>(&online_window, s);
        if (with_faults) {
          video::FaultPlan plan;
          plan.p_transient = 0.05;
          plan.p_truncated = 0.05;
          plan.p_latency_spike = 0.1;
          instance.add_stream(
              std::make_unique<video::FaultInjectingSource>(
                  std::move(src), plan, 0x5eedu + static_cast<unsigned>(s)),
              models);
        } else {
          instance.add_stream(std::move(src), models);
        }
      }
      const auto stats = instance.run(/*online=*/true);
      const auto agg = stats.aggregate();
      const double ingress =
          static_cast<double>(agg.prefetch.passed + agg.dropped_at_ingest);
      const double drop_rate =
          ingress > 0.0 ? static_cast<double>(agg.dropped_at_ingest) / ingress : 0.0;
      std::printf("%-10d %12.1f %12.4f %12.1f %12.1f\n", n,
                  stats.total_throughput_fps, drop_rate, agg.latency_ms.p50(),
                  agg.latency_ms.p99());
      const core::FaultStats& faults = stats.health.fault;
      if (with_faults) {
        std::printf("%10s decode_errors=%llu retries=%llu degraded=%llu\n", "",
                    static_cast<unsigned long long>(faults.decode_errors),
                    static_cast<unsigned long long>(faults.retries),
                    static_cast<unsigned long long>(faults.degraded_frames));
      }
      char name[64];
      std::snprintf(name, sizeof(name), "%sonline%s/streams=%d", label.c_str(),
                    with_faults ? "_faults" : "", n);
      bench::JsonReport::Extras extras{{"drop_rate", drop_rate}};
      if (with_faults) {
        extras.emplace_back("decode_errors", static_cast<double>(faults.decode_errors));
        extras.emplace_back("retries", static_cast<double>(faults.retries));
        extras.emplace_back("degraded_frames",
                            static_cast<double>(faults.degraded_frames));
      }
      report.add(name, stats.total_throughput_fps, agg.latency_ms.p50(),
                 agg.latency_ms.p99(), std::move(extras));
    }
  }

  // --- model-fault recovery: wedged model calls vs clean ------------------
  // Escalation end-to-end (DESIGN.md Section 14): the same 16-stream
  // offline workload, run clean and with deterministic kStall wedges seeded
  // at every stage, both with the per-call watchdog armed so the engine is
  // identical and only the faults differ. This is the last series in the
  // run, so the cheap filters can be relaxed in place: SDD passes every
  // frame, SNM's t_pre drops to 0 and T-YOLO forwards unconditionally
  // (number_of_objects = 0), which keeps the deep stages under real load so
  // wedges at SNM / T-YOLO / reference actually land on traffic.
  if (model_faults != "off") {
    const int n = 16;
    const int reps = 2;
    models.sdd->set_delta(-1.0);
    models.snm->set_thresholds(0.0, 0.0);
    // Wedges are rare events amortized over a long run, so the series
    // replays the scaling window three times per stream: the wedge burst
    // (12 stalls, each ~model_call_timeout_ms to cancel) is measured
    // against a deployment-scale window, not a 2-second sprint.
    std::vector<video::Frame> rec_window;
    rec_window.reserve(window.size() * 3);
    for (int pass = 0; pass < 3; ++pass) {
      rec_window.insert(rec_window.end(), window.begin(), window.end());
    }

    struct RecoveryRun {
      double fps = 0.0, p50 = 0.0, p99 = 0.0;
      std::uint64_t cancels = 0, stage_restarts = 0, poisoned = 0, degraded = 0;
      double recovery_p99_ms = 0.0;
      int wedges = 0;
      std::int64_t cancelled_stalls = 0;
    };
    const auto run_recovery = [&](bool wedged) {
      std::unique_ptr<detect::FaultHook> hook;
      if (wedged) {
        // Three sparse periodic wedges per stage. duration_ms is only the
        // fallback cap for a run without escalation; with the watchdog
        // armed each stall is cancelled at ~model_call_timeout_ms.
        hook = std::make_unique<detect::FaultHook>(
            std::vector<detect::ModelFaultSpec>{
                {detect::FaultStage::kSdd, detect::ModelFaultSpec::Kind::kStall,
                 /*offset=*/100, /*period=*/700, /*max_triggers=*/3,
                 /*duration_ms=*/10'000},
                {detect::FaultStage::kSnm, detect::ModelFaultSpec::Kind::kStall,
                 5, 40, 3, 10'000},
                {detect::FaultStage::kTyolo,
                 detect::ModelFaultSpec::Kind::kStall, 9, 150, 3, 10'000},
                {detect::FaultStage::kRef, detect::ModelFaultSpec::Kind::kStall,
                 7, 120, 3, 10'000},
            });
        hook->install();
      }
      core::FfsVaConfig cfg;
      cfg.model_call_timeout_ms = 150;
      cfg.number_of_objects = 0;
      core::FfsVaInstance instance(cfg);
      instance.set_output_sink([](const core::OutputEvent&) {});
      for (int s = 0; s < n; ++s) {
        instance.add_stream(std::make_unique<ReplaySource>(&rec_window, s),
                            models);
      }
      const auto stats = instance.run(/*online=*/false);
      if (hook) detect::FaultHook::uninstall();
      const auto agg = stats.aggregate();
      RecoveryRun r;
      r.fps = stats.total_throughput_fps;
      r.p50 = agg.latency_ms.p50();
      r.p99 = agg.latency_ms.p99();
      r.cancels = stats.health.cancels;
      r.stage_restarts = stats.health.stage_restarts;
      r.poisoned = stats.health.fault.poisoned_frames;
      r.degraded = stats.health.fault.degraded_frames;
      r.recovery_p99_ms =
          instance.metrics().histogram("latency.recovery_ms").snapshot().quantile(
              0.99);
      if (hook) {
        for (std::size_t i = 0; i < 4; ++i) r.wedges += hook->triggered(i);
        r.cancelled_stalls = hook->cancelled_stalls();
      }
      return r;
    };

    // Interleaved reps, best-of per variant (the process is warm from the
    // preceding series, so no separate warmup run).
    std::printf("\nmodel-fault recovery (%d streams, offline, full-cascade "
                "traffic, watchdog 150 ms, best of %d)\n", n, reps);
    std::printf("%-10s %12s %12s %12s %8s %8s %8s\n", "variant", "total FPS",
                "p50 lat(ms)", "p99 lat(ms)", "cancels", "restarts", "poisoned");
    bench::print_rule();
    RecoveryRun best[2];
    for (int rep = 0; rep < reps; ++rep) {
      for (int v = 0; v < 2; ++v) {
        const RecoveryRun r = run_recovery(v == 1);
        if (r.fps > best[v].fps) best[v] = r;
      }
    }
    for (int v = 0; v < 2; ++v) {
      std::printf("%-10s %12.1f %12.1f %12.1f %8llu %8llu %8llu\n",
                  v == 1 ? "wedged" : "clean", best[v].fps, best[v].p50,
                  best[v].p99, static_cast<unsigned long long>(best[v].cancels),
                  static_cast<unsigned long long>(best[v].stage_restarts),
                  static_cast<unsigned long long>(best[v].poisoned));
    }
    const double ratio = best[0].fps > 0.0 ? best[1].fps / best[0].fps : 0.0;
    std::printf("%10s wedges=%d cancelled_stalls=%lld recovery_p99=%.1fms "
                "throughput ratio %.2fx (budget >=0.80x)\n", "",
                best[1].wedges,
                static_cast<long long>(best[1].cancelled_stalls),
                best[1].recovery_p99_ms, ratio);

    char cname[64], wname[64];
    std::snprintf(cname, sizeof(cname), "%soffline_model_faults_off/streams=%d",
                  label.c_str(), n);
    std::snprintf(wname, sizeof(wname), "%soffline_model_faults_on/streams=%d",
                  label.c_str(), n);
    report.add(cname, best[0].fps, best[0].p50, best[0].p99);
    bench::JsonReport::Extras extras{
        {"fps_vs_clean", ratio},
        {"wedges_fired", static_cast<double>(best[1].wedges)},
        {"cancelled_stalls", static_cast<double>(best[1].cancelled_stalls)},
        {"cancels", static_cast<double>(best[1].cancels)},
        {"stage_restarts", static_cast<double>(best[1].stage_restarts)},
        {"poisoned_frames", static_cast<double>(best[1].poisoned)},
        {"degraded_frames", static_cast<double>(best[1].degraded)},
        {"recovery_p99_ms", best[1].recovery_p99_ms},
    };
    report.add(wname, best[1].fps, best[1].p50, best[1].p99, std::move(extras));
  }

  // --- cluster scale-out: 1-node vs 2-node distributed serving -------------
  // The real multi-process path (DESIGN.md §15) measured end-to-end:
  // in-process NodeServers (each a full serve-mode engine behind the socket
  // protocol) driven by the ClusterScheduler over loopback TCP. Aggregate
  // FPS counts frames ingested across all nodes over the scheduler's wall
  // clock — protocol, snapshot polling, and hand-off costs included. The
  // 2-node row carries a forced live migration so its hand-off latency p99
  // is a measured number, and a tight-vs-off snapshot-interval pair bounds
  // the snapshot-exchange overhead (budget <= 2%).
  if (cluster) {
    const auto run_cluster = [&](int nodes, std::uint64_t cframes,
                                 int snapshot_ms, double migrate_at) {
      std::vector<std::unique_ptr<node::NodeServer>> servers;
      std::vector<std::thread> loops;
      std::vector<net::Endpoint> eps;
      for (int i = 0; i < nodes; ++i) {
        node::NodeOptions opts;
        opts.node_id = static_cast<std::uint32_t>(i);
        servers.push_back(std::make_unique<node::NodeServer>(std::move(opts)));
        if (!servers.back()->start()) {
          std::fprintf(stderr, "cluster bench: cannot start node %d\n", i);
          std::exit(1);
        }
        loops.emplace_back([srv = servers.back().get()] { srv->serve(); });
        eps.push_back(net::Endpoint::tcp("127.0.0.1", servers.back()->port()));
      }
      const auto specs = node::make_specs(/*count=*/8, cframes, /*calib=*/12,
                                          /*w=*/96, /*h=*/72);
      node::SchedOptions sopts;
      sopts.snapshot_interval_ms = snapshot_ms;
      sopts.force_migration_at_sec = migrate_at;
      sopts.deadline_sec = 600.0;
      node::ClusterScheduler sched(eps, core::FfsVaConfig{}, sopts);
      node::ClusterReport rep = sched.run(specs);
      for (auto& t : loops) t.join();
      std::uint64_t ingested = 0;
      for (const auto& s : rep.streams) ingested += s.ingested;
      const double fps = rep.wall_sec > 0.0
                             ? static_cast<double>(ingested) / rep.wall_sec
                             : 0.0;
      return std::make_pair(std::move(rep), fps);
    };

    std::printf("\ncluster scale-out (8 streams, offline, loopback TCP)\n");
    std::printf("%-24s %12s %10s %16s\n", "variant", "agg FPS", "handoffs",
                "handoff p99(ms)");
    bench::print_rule();
    const auto [rep1, fps1] = run_cluster(1, 1200, 100, -1.0);
    std::printf("%-24s %12.1f %10d %16s\n", "nodes=1", fps1, rep1.handoffs,
                "-");
    const auto [rep2, fps2] = run_cluster(2, 1200, 100, 1.0);
    std::printf("%-24s %12.1f %10d %16.1f\n", "nodes=2 (live handoff)", fps2,
                rep2.handoffs, rep2.handoff_p99_ms());
    if (!rep1.ok || !rep2.ok || rep2.handoffs < 1) {
      std::fprintf(stderr, "cluster bench: run incomplete (ok=%d/%d "
                   "handoffs=%d)\n", rep1.ok, rep2.ok, rep2.handoffs);
      return 1;
    }
    report.add(label + "cluster/nodes=1", fps1, 0.0, 0.0,
               {{"streams", 8.0},
                {"snapshot_polls", static_cast<double>(rep1.snapshot_frames)}});
    report.add(label + "cluster/nodes=2", fps2, 0.0, 0.0,
               {{"streams", 8.0},
                {"handoffs", static_cast<double>(rep2.handoffs)},
                {"handoff_p99_ms", rep2.handoff_p99_ms()},
                {"speedup_vs_1node", fps1 > 0.0 ? fps2 / fps1 : 0.0},
                {"snapshot_polls", static_cast<double>(rep2.snapshot_frames)}});

    // Snapshot-exchange overhead: the same 2-node fleet with the poller at
    // 20 ms vs effectively off, interleaved best-of pairs (same noise logic
    // as the telemetry-overhead block).
    double best_tight = 0.0, best_off = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      best_off = std::max(best_off, run_cluster(2, 600, 1 << 20, -1.0).second);
      best_tight = std::max(best_tight, run_cluster(2, 600, 20, -1.0).second);
    }
    const double snap_overhead_pct =
        best_off > 0.0 ? (best_off - best_tight) / best_off * 100.0 : 0.0;
    std::printf("%-24s %12.1f vs %8.1f -> overhead %.2f%% (budget <= 2%%)\n",
                "snapshot 20ms vs off", best_tight, best_off,
                snap_overhead_pct);
    report.add(label + "cluster/snapshot_overhead", best_tight, 0.0, 0.0,
               {{"baseline_fps", best_off},
                {"overhead_pct", snap_overhead_pct}});
  }
  return 0;
}
