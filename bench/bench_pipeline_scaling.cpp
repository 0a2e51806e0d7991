// Offline multi-stream scaling of the *threaded* pipeline engine, and the
// engine's mechanisms measured head-to-head.
//
// Unlike the figure benches (which drive the discrete-event simulator),
// this one runs the real FfsVaInstance — threads, bounded queues, the GPU0
// executor — mostly over pre-rendered frames, so what is measured is the
// engine itself: thread-model overhead, queue wakeups, cross-stream
// batching. Every row is a bench::measure() series (bench/common.hpp):
// kReps interleaved runs after one discarded warm-up, archived as the
// median with its noise band and the wall and process CPU time per run. A
// row compared against a budget is marked unresolved when either side's
// noise band is wider than the budget.
//
// Series, in order:
//   offline/streams=N       N identical streams replaying one 128x96 window.
//   decode_{full,hinted}    codec-aware ingest (DESIGN.md §13): 16
//                           StoredSource streams decoding a static-heavy
//                           192x144 recording under kFull vs kHinted.
//   ref_batch1, ref_batch, ref_crop_pack
//                           the reference stage (DESIGN.md §12) on a
//                           reference-heavy deployment (16 streams, 256x192,
//                           TOR 0.7): kBatch at ref_batch_size 1 (the
//                           one-frame loop and the verdict oracle), kBatch
//                           at the default size, and crop packing.
//   offline_metrics_{off,on}  telemetry overhead (DESIGN.md §10, <= 2%).
//   online[_faults]/streams=N  30 FPS pacing: the drop rate vs stream count,
//                           clean and with injected source faults.
//   offline_model_faults_{off,on}  escalation (DESIGN.md §14): wedged model
//                           calls at all four stages vs clean, with the cheap
//                           filters passing every frame so the wedges land
//                           on traffic (budget >= 0.80x clean fps).
//   cluster/...             (--cluster) 1- vs 2-node serving over loopback
//                           TCP and the snapshot-exchange overhead
//                           (DESIGN.md §15, <= 2%).
//
// Usage: bench_pipeline_scaling [--json out.json] [--frames N]
//                               [--streams a,b,c] [--metrics-out m.jsonl]
//                               [--trace-out t.json] [--cluster]
// --metrics-out captures the JSONL of the metrics-on runs (without it they
// sample into a discarded buffer, so the overhead row is measured either
// way); --trace-out adds one unmeasured traced run and writes its timeline.
#include "common.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/pipeline.hpp"
#include "detect/fault_hook.hpp"
#include "detect/sdd.hpp"
#include "detect/snm.hpp"
#include "node/cluster_scheduler.hpp"
#include "node/node_server.hpp"
#include "video/fault_injection.hpp"
#include "video/source.hpp"

using namespace ffsva;

namespace {

/// The budgets comparison rows are judged against, as fractions of fps.
constexpr double kTelemetryBudget = 0.02;
constexpr double kWedgeBudget = 0.20;  // wedged runs keep >= 0.80x clean fps
constexpr double kSnapshotBudget = 0.02;

/// A specialized scene and the pre-rendered window every stream replays.
struct Workload {
  detect::StreamModels models;
  video::ReplaySource::Window window;
};

/// Specializes a jackson-profile scene on its first 600 frames and renders
/// the next `frames`. Every stream of a series shares these models:
/// identical models keep specialization cost out of the loop (SDD/T-YOLO
/// are const-safe; the engine's device ownership serializes SNM and the
/// reference model).
Workload build_workload(int width, int height, double tor, std::uint64_t seed,
                        std::int64_t frames) {
  constexpr std::int64_t kCalib = 600;
  std::printf("\nSpecializing %dx%d models (tor %.2f), rendering %lld frames...\n",
              width, height, tor, static_cast<long long>(frames));
  video::SceneConfig scene = video::jackson_profile();
  scene.width = width;
  scene.height = height;
  scene.tor = tor;
  const video::SceneSimulator sim(scene, seed, kCalib + frames);
  std::vector<video::Frame> calib, window;
  for (std::int64_t i = 0; i < kCalib; ++i) calib.push_back(sim.render(i));
  for (std::int64_t i = 0; i < frames; ++i) window.push_back(sim.render(kCalib + i));
  detect::SpecializeConfig sc;
  sc.target = scene.target;
  sc.snm.epochs = 4;
  return {detect::specialize_stream(calib, sc, seed),
          std::make_shared<const std::vector<video::Frame>>(std::move(window))};
}

/// A copy of `m` whose cheap filters pass every frame (SDD threshold below
/// any distance, SNM t_pre = 0). It shares no mutable model with `m`.
detect::StreamModels pass_all(const detect::StreamModels& m) {
  detect::StreamModels out = m;
  out.sdd = std::make_shared<detect::SddFilter>(*m.sdd);
  out.sdd->set_delta(-1.0);
  std::stringstream blob;
  m.snm->save(blob);
  out.snm = std::make_shared<detect::SnmFilter>(m.snm->config(), m.background, 0);
  out.snm->load(blob);
  out.snm->set_thresholds(0.0, 0.0);
  return out;
}

/// A counter as a row figure.
double num(std::uint64_t count) { return static_cast<double>(count); }

using Sources = std::function<std::unique_ptr<video::FrameSource>(int stream)>;

Sources replay(const video::ReplaySource::Window& window) {
  return [window](int s) { return std::make_unique<video::ReplaySource>(window, s); };
}

/// Hooks into one engine run: `arm` runs before run() (exporters, tracing, a
/// verdict sink); `read` runs after it and adds the run's counters to its row.
struct Hooks {
  std::function<void(core::FfsVaInstance&)> arm;
  std::function<void(core::FfsVaInstance&, const core::InstanceStats&,
                     const core::StreamStats& agg, bench::Run&)>
      read;
};

/// Runs one instance over `streams` sources, all on `models`; the row
/// carries the engine's throughput and its p50/p99 frame latency.
bench::Run run_engine(const core::FfsVaConfig& cfg, int streams,
                      const detect::StreamModels& models, const Sources& source,
                      bool online = false, const Hooks& hooks = {}) {
  core::FfsVaInstance instance(cfg);
  instance.set_output_sink([](const core::OutputEvent&) {});
  if (hooks.arm) hooks.arm(instance);
  for (int s = 0; s < streams; ++s) instance.add_stream(source(s), models);
  const auto stats = instance.run(online);
  const auto agg = stats.aggregate();
  bench::Run row{stats.total_throughput_fps, agg.latency_ms.p50(),
                 agg.latency_ms.p99(), {}};
  if (hooks.read) hooks.read(instance, stats, agg, row);
  return row;
}

std::string row_name(const std::string& series, int streams) {
  return series + "/streams=" + std::to_string(streams);
}

void print_title(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  bench::print_series_header("series");
}

/// Prints and archives a budget row's verdict: met, missed, or unresolved
/// when the noise of `a` or `b` is wider than the budget.
bench::Extras budget_verdict(const char* what, double value, const char* unit,
                             const bench::Series& a, const bench::Series& b,
                             double budget, bool met) {
  const bool resolved = bench::resolves(a, b, budget);
  std::printf("%-40s %.2f%s, %s (noise %.2f%% / %.2f%%, budget %.0f%%)\n", what, value,
              unit, !resolved ? "UNRESOLVED" : met ? "within budget" : "OVER BUDGET",
              100.0 * a.fps.iqr_rel(), 100.0 * b.fps.iqr_rel(), 100.0 * budget);
  return {{"budget", budget}, {"resolved", resolved ? 1.0 : 0.0}};
}

/// One cluster run: in-process NodeServers (each a full serve-mode engine
/// behind the socket protocol) driven by the ClusterScheduler over loopback
/// TCP. FPS counts frames ingested on all nodes over the scheduler's wall
/// clock, so protocol, snapshot polling and hand-off costs are included.
bench::Run run_cluster(int nodes, std::uint64_t frames, int snapshot_ms,
                       double migrate_at_fraction) {
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
  const auto specs = node::make_specs(/*count=*/8, frames, /*calib=*/12,
                                      /*w=*/96, /*h=*/72);
  node::SchedOptions sopts;
  sopts.snapshot_interval_ms = snapshot_ms;
  sopts.force_migration_at_fraction = migrate_at_fraction;
  sopts.deadline_sec = 600.0;
  node::ClusterScheduler sched(eps, core::FfsVaConfig{}, sopts);
  const node::ClusterReport rep = sched.run(specs);
  for (auto& t : loops) t.join();
  if (!rep.ok || (migrate_at_fraction >= 0.0 && rep.handoffs < 1)) {
    throw std::runtime_error("cluster run incomplete (ok=" + std::to_string(rep.ok) +
                             " handoffs=" + std::to_string(rep.handoffs) + ")");
  }
  std::uint64_t ingested = 0;
  for (const auto& s : rep.streams) ingested += s.ingested;
  const double fps = rep.wall_sec > 0.0 ? num(ingested) / rep.wall_sec : 0.0;
  bench::Run row{fps, 0.0, 0.0,
                 {{"handoffs", rep.handoffs},
                  {"snapshot_polls", num(rep.snapshot_frames)}}};
  if (migrate_at_fraction >= 0.0) {
    row.extras.emplace_back("handoff_p99_ms", rep.handoff_p99_ms());
  }
  return row;
}

int run_all(int argc, char** argv) {
  std::int64_t frames_per_stream = 192;
  std::vector<int> stream_counts = {1, 4, 16, 64};
  std::string metrics_out, trace_out;
  bool cluster = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster") == 0) cluster = true;
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0) {
      frames_per_stream = std::atol(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0) metrics_out = argv[i + 1];
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[i + 1];
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

  bench::print_header("PIPELINE SCALING -- threaded engine, repeated interleaved runs");
  std::printf("hardware threads: %u, %d runs per series after one warm-up\n",
              std::thread::hardware_concurrency(), bench::kReps);
  const int n16 = 16;  // stream count of every fixed-size series

  // --- offline scaling ------------------------------------------------------
  const Workload base = build_workload(128, 96, 0.25, 1234, frames_per_stream);
  print_title("offline scaling (replayed 128x96 window)");
  const auto scaling =
      bench::measure(static_cast<int>(stream_counts.size()), [&](int v) {
        return run_engine({}, stream_counts[static_cast<std::size_t>(v)], base.models,
                          replay(base.window));
      });
  for (std::size_t v = 0; v < scaling.size(); ++v) {
    const std::string name = row_name("offline", stream_counts[v]);
    bench::print_series(name, scaling[v]);
    report.add(name, scaling[v]);
  }

  // --- codec-aware ingest: DecodePolicy kFull vs kHinted --------------------
  // The scaling window replays pre-rendered frames (zero decode cost): the
  // right regime for the engine, the wrong one for ingest. This series
  // decodes a static-heavy recording through StoredSource, so prefetch pays
  // the per-pixel reconstruction cost; kHinted skips it for every frame the
  // compressed-domain SDD proves droppable.
  {
    const Workload dec = build_workload(192, 144, 0.15, 7777, frames_per_stream);
    const auto stored = std::make_shared<const video::StoredVideo>(
        video::StoredVideo::encode(*dec.window, /*keyframe_interval=*/32,
                                   /*deadzone=*/4));
    // The hint chain's pixel-SDD agreement is a deterministic replay of hints
    // against decoded distances, so it is computed once, not per run.
    const double agreement =
        detect::compressed_sdd_agreement(*stored, *dec.models.sdd, detect::kHintRelax)
            .agreement();
    const core::DecodePolicy policies[] = {core::DecodePolicy::kFull,
                                           core::DecodePolicy::kHinted};
    Hooks hooks;
    hooks.read = [](auto&, const auto&, const core::StreamStats& agg, bench::Run& row) {
      row.extras = {{"compression_ratio", agg.ingest.compression_ratio},
                    {"decode_skipped", num(agg.ingest.decode_skipped)},
                    {"hint_fallbacks", num(agg.ingest.hint_fallbacks)}};
    };
    const Sources stored_sources = [&](int s) {
      return std::make_unique<video::StoredSource>(stored, s);
    };
    char title[96];
    std::snprintf(title, sizeof(title),
                  "decode policy (16 stored 192x144 streams, compression %.1fx)",
                  stored->stats().compression_ratio());
    print_title(title);
    const auto series = bench::measure(2, [&](int v) {
      core::FfsVaConfig cfg;
      cfg.decode_policy = policies[v];
      return run_engine(cfg, n16, dec.models, stored_sources, false, hooks);
    });
    const double speedup = series[1].fps.median / series[0].fps.median;
    bench::print_series(row_name("decode_full", n16), series[0]);
    bench::print_series(row_name("decode_hinted", n16), series[1]);
    std::printf("%-40s speedup %.2fx, sdd_agreement %.4f\n", "", speedup, agreement);
    report.add(row_name("decode_full", n16), series[0]);
    report.add(row_name("decode_hinted", n16), series[1],
               {{"sdd_agreement", agreement}, {"speedup_vs_full", speedup}});
  }

  // --- reference stage: one-frame loop vs micro-batch vs crop packing -------
  // The scaling window is cheap-filter bound, which hides the reference
  // stage; this deployment makes the full-resolution segmentation the
  // bottleneck the modes compete on. Each mode's verdicts are compared with
  // the one-frame loop's, keyed (stream, index) over the union of emitted
  // frames: one mode emitting a frame the other did not is a disagreement.
  {
    const Workload ref = build_workload(256, 192, 0.7, 4321, frames_per_stream);
    const double conf = ref.models.reference->config().confidence_threshold;
    const struct {
      const char* name;
      core::RefMode mode;
      int ref_batch_size;  ///< 0 = the config default.
    } modes[] = {{"ref_batch1", core::RefMode::kBatch, 1},
                 {"ref_batch", core::RefMode::kBatch, 0},
                 {"ref_crop_pack", core::RefMode::kCropPack, 0}};
    using Verdicts = std::map<std::pair<int, std::int64_t>, bool>;
    Verdicts verdicts[3];  // of each mode's latest run (deterministic per mode)
    std::mutex verdicts_mu;
    print_title("reference-stage mode (16 streams, 256x192, tor 0.7)");
    const auto series = bench::measure(3, [&](int v) {
      core::FfsVaConfig cfg;
      cfg.ref_mode = modes[v].mode;
      if (modes[v].ref_batch_size > 0) cfg.ref_batch_size = modes[v].ref_batch_size;
      Verdicts& mine = verdicts[v];
      mine.clear();
      Hooks hooks;
      hooks.arm = [&](core::FfsVaInstance& instance) {
        instance.set_output_sink([&](const core::OutputEvent& ev) {
          const std::lock_guard<std::mutex> lock(verdicts_mu);
          mine[{ev.frame.stream_id, ev.frame.index}] =
              ev.result.count_target(ref.models.target, conf) >= 1;
        });
      };
      hooks.read = [](core::FfsVaInstance& instance, const auto&, const auto&,
                      bench::Run& row) {
        const auto count = [&](const char* name) {
          return num(instance.metrics().counter(name).value());
        };
        row.extras = {{"ref_batches", count("executor.ref_batches")},
                      {"full_frame_fallbacks", count("ref.full_frame_fallbacks")},
                      {"seam_suppressed", count("ref.seam_suppressed")}};
      };
      return run_engine(cfg, n16, ref.models, replay(ref.window), false, hooks);
    });
    for (int v = 0; v < 3; ++v) {
      std::size_t agree = 0, total = 0;
      for (const auto& [key, pass] : verdicts[0]) {
        ++total;
        const auto it = verdicts[v].find(key);
        if (it != verdicts[v].end() && it->second == pass) ++agree;
      }
      for (const auto& entry : verdicts[v]) {
        if (!verdicts[0].count(entry.first)) ++total;
      }
      const double agreement = total > 0 ? num(agree) / num(total) : 1.0;
      const std::string name = row_name(modes[v].name, n16);
      bench::print_series(name, series[v]);
      std::printf("%-40s oracle_agreement %.4f over %zu frames\n", "", agreement,
                  total);
      report.add(name, series[v], {{"oracle_agreement", agreement}});
    }
  }

  // --- telemetry overhead: metrics off vs on --------------------------------
  // The "on" runs carry the live sampler at the config's default interval;
  // span tracing is a separate opt-in diagnostic, exercised by one extra
  // unmeasured run only when --trace-out asks for a timeline.
  {
    print_title("telemetry overhead (16 streams, offline)");
    const auto series = bench::measure(2, [&](int v) {
      std::ostringstream discard;
      std::ofstream archive;
      Hooks hooks;
      if (v == 1) {
        std::ostream* sink = &discard;
        if (!metrics_out.empty()) {
          archive.open(metrics_out, std::ios::app);
          if (!archive) {
            throw std::runtime_error("cannot write --metrics-out " + metrics_out);
          }
          sink = &archive;
        }
        hooks.arm = [sink](core::FfsVaInstance& instance) {
          instance.enable_metrics_export(sink, "bench16");
        };
      }
      return run_engine({}, n16, base.models, replay(base.window), false, hooks);
    });
    const double overhead_pct =
        100.0 * (series[0].fps.median - series[1].fps.median) / series[0].fps.median;
    bench::print_series(row_name("offline_metrics_off", n16), series[0]);
    bench::print_series(row_name("offline_metrics_on", n16), series[1]);
    bench::Extras extras =
        budget_verdict("metrics overhead", overhead_pct, "%", series[0], series[1],
                       kTelemetryBudget, overhead_pct <= 100.0 * kTelemetryBudget);
    extras.insert(extras.begin(), {"overhead_pct", overhead_pct});
    report.add(row_name("offline_metrics_off", n16), series[0]);
    report.add(row_name("offline_metrics_on", n16), series[1], std::move(extras));
    if (!trace_out.empty()) {
      Hooks traced;
      traced.arm = [](core::FfsVaInstance& instance) { instance.enable_tracing(); };
      traced.read = [&](core::FfsVaInstance& instance, const auto&, const auto&,
                        bench::Run&) {
        if (instance.export_trace(trace_out)) {
          std::printf("trace written to %s\n", trace_out.c_str());
        }
      };
      run_engine({}, n16, base.models, replay(base.window), false, traced);
    }
  }

  // --- online mode: drop rate vs stream count -------------------------------
  // A paced camera cannot block, so overload shows up as frames dropped at
  // ingest, not as lower FPS. The fault variants add survivable source
  // faults and archive the supervision counters.
  {
    const int counts = static_cast<int>(stream_counts.size());
    Hooks hooks;
    hooks.read = [](auto&, const core::InstanceStats& stats,
                    const core::StreamStats& agg, bench::Run& row) {
      const double ingress = num(agg.prefetch.passed + agg.dropped_at_ingest);
      const core::FaultStats& faults = stats.health.fault;
      row.extras = {
          {"drop_rate", ingress > 0.0 ? num(agg.dropped_at_ingest) / ingress : 0.0},
          {"decode_errors", num(faults.decode_errors)},
          {"retries", num(faults.retries)},
          {"degraded_frames", num(faults.degraded_frames)}};
    };
    print_title("online (30 FPS pacing, clean then with injected source faults)");
    const auto series = bench::measure(2 * counts, [&](int v) {
      const bool with_faults = v >= counts;
      core::FfsVaConfig cfg;
      cfg.stall_timeout_ms = 250;  // supervision armed, as deployed
      cfg.source_max_retries = 6;
      const Sources source = [&](int s) -> std::unique_ptr<video::FrameSource> {
        auto src = std::make_unique<video::ReplaySource>(base.window, s);
        if (!with_faults) return src;
        video::FaultPlan plan;
        plan.p_transient = 0.05;
        plan.p_truncated = 0.05;
        plan.p_latency_spike = 0.1;
        return std::make_unique<video::FaultInjectingSource>(
            std::move(src), plan, 0x5eedu + static_cast<unsigned>(s));
      };
      return run_engine(cfg, stream_counts[static_cast<std::size_t>(v % counts)],
                        base.models, source, /*online=*/true, hooks);
    });
    for (int v = 0; v < 2 * counts; ++v) {
      const std::string name =
          row_name(v < counts ? "online" : "online_faults",
                   stream_counts[static_cast<std::size_t>(v % counts)]);
      bench::print_series(name, series[v]);
      report.add(name, series[v]);
    }
  }

  // --- model-fault recovery: wedged model calls vs clean --------------------
  // Both variants arm the per-call watchdog, so only the faults differ. The
  // cheap filters of a private model copy pass every frame and T-YOLO
  // forwards unconditionally (number_of_objects = 0), so wedges at SNM,
  // T-YOLO and the reference model land on traffic. Wedges are rare events
  // amortized over a long run, so each stream replays the window three times.
  {
    const detect::StreamModels models = pass_all(base.models);
    std::vector<video::Frame> frames;
    for (int pass = 0; pass < 3; ++pass) {
      frames.insert(frames.end(), base.window->begin(), base.window->end());
    }
    const auto window =
        std::make_shared<const std::vector<video::Frame>>(std::move(frames));
    print_title("model-fault recovery (16 streams, full cascade, watchdog 150 ms)");
    const auto series = bench::measure(2, [&](int v) {
      std::unique_ptr<detect::FaultHook> hook;
      if (v == 1) {
        // Three sparse periodic wedges per stage. duration_ms is only the
        // cap for a run without escalation; with the watchdog armed each
        // stall is cancelled at ~model_call_timeout_ms.
        using Spec = detect::ModelFaultSpec;
        hook = std::make_unique<detect::FaultHook>(std::vector<Spec>{
            {detect::FaultStage::kSdd, Spec::Kind::kStall, /*offset=*/100,
             /*period=*/700, /*max_triggers=*/3, /*duration_ms=*/10'000},
            {detect::FaultStage::kSnm, Spec::Kind::kStall, 5, 40, 3, 10'000},
            {detect::FaultStage::kTyolo, Spec::Kind::kStall, 9, 150, 3, 10'000},
            {detect::FaultStage::kRef, Spec::Kind::kStall, 7, 120, 3, 10'000},
        });
        hook->install();
      }
      core::FfsVaConfig cfg;
      cfg.model_call_timeout_ms = 150;
      cfg.number_of_objects = 0;
      Hooks hooks;
      hooks.read = [&](core::FfsVaInstance&, const core::InstanceStats& stats,
                       const auto&, bench::Run& row) {
        double wedges = 0.0;
        for (std::size_t i = 0; hook && i < 4; ++i) wedges += hook->triggered(i);
        row.extras = {
            {"wedges_fired", wedges},
            {"cancelled_stalls", hook ? num(hook->cancelled_stalls()) : 0.0},
            {"cancels", num(stats.health.fault.cancelled_calls)},
            {"poisoned_frames", num(stats.health.fault.poisoned_frames)},
            {"degraded_frames", num(stats.health.fault.degraded_frames)}};
      };
      bench::Run row = run_engine(cfg, n16, models, replay(window), false, hooks);
      if (hook) detect::FaultHook::uninstall();
      return row;
    });
    const double ratio = series[1].fps.median / series[0].fps.median;
    bench::print_series(row_name("offline_model_faults_off", n16), series[0]);
    bench::print_series(row_name("offline_model_faults_on", n16), series[1]);
    bench::Extras extras = budget_verdict("wedged/clean throughput", ratio, "x",
                                          series[0], series[1], kWedgeBudget,
                                          ratio >= 1.0 - kWedgeBudget);
    extras.insert(extras.begin(), {"fps_vs_clean", ratio});
    report.add(row_name("offline_model_faults_off", n16), series[0]);
    report.add(row_name("offline_model_faults_on", n16), series[1], std::move(extras));
  }

  // --- cluster scale-out: 1-node vs 2-node distributed serving --------------
  // The 2-node runs force a live migration so the hand-off latency p99 is
  // measured; a tight-vs-off snapshot-interval pair bounds the
  // snapshot-exchange overhead.
  if (cluster) {
    print_title("cluster scale-out (8 streams, offline, loopback TCP)");
    const auto nodes = bench::measure(
        2, [](int v) { return run_cluster(v + 1, 1200, 100, v == 1 ? 0.25 : -1.0); });
    const double speedup = nodes[1].fps.median / nodes[0].fps.median;
    bench::print_series("cluster/nodes=1", nodes[0]);
    bench::print_series("cluster/nodes=2", nodes[1]);
    report.add("cluster/nodes=1", nodes[0]);
    report.add("cluster/nodes=2", nodes[1], {{"speedup_vs_1node", speedup}});

    const auto snap = bench::measure(
        2, [](int v) { return run_cluster(2, 600, v == 0 ? 1 << 20 : 20, -1.0); });
    const double overhead_pct =
        100.0 * (snap[0].fps.median - snap[1].fps.median) / snap[0].fps.median;
    bench::print_series("cluster/snapshot_off", snap[0]);
    bench::print_series("cluster/snapshot_overhead", snap[1]);
    bench::Extras extras =
        budget_verdict("snapshot 20ms vs off", overhead_pct, "%", snap[0], snap[1],
                       kSnapshotBudget, overhead_pct <= 100.0 * kSnapshotBudget);
    extras.insert(extras.begin(), {{"baseline_fps", snap[0].fps.median},
                                   {"overhead_pct", overhead_pct}});
    report.add("cluster/snapshot_overhead", snap[1], std::move(extras));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_all(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline_scaling: %s\n", e.what());
    return 1;
  }
}
