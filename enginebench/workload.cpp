#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rng.hpp"
#include "video/profiles.hpp"
#include "video/source.hpp"

namespace enginebench {

namespace {

using Clock = std::chrono::steady_clock;

/// Calibration samples every kCalibStride-th frame of a kCalibSpan-frame
/// timeline, so it sees many target scenes for the cost of few frames.
constexpr std::int64_t kCalibSpan = 1800;
constexpr std::int64_t kCalibStride = 4;
constexpr int kSnmEpochs = 3;
/// Mean target-scene length (frames); short scenes put many scenes, and so a
/// representative mix of content, in every window.
constexpr double kSceneLen = 24;
/// The camera every workload watches; the run's seed only cuts its windows.
constexpr std::uint64_t kCameraSeed = 2018;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double pixel_sum(const video::Frame& f) {
  const std::uint8_t* p = f.image.data();
  return std::accumulate(p, p + f.image.size_bytes(), 0.0);
}

/// The benchmark's own trace buffer: spans around its calls into the video
/// layer, separate from the engine's global buffer.
telemetry::TraceBuffer& bench_trace() {
  static telemetry::TraceBuffer buffer;
  return buffer;
}

/// Replays a pre-rendered window (no decode cost).
class ReplaySource final : public video::FrameSource {
 public:
  explicit ReplaySource(const std::vector<video::Frame>& window) : window_(window) {}
  std::optional<video::Frame> next() override {
    if (next_ >= window_.size()) return std::nullopt;
    return window_[next_++];
  }
  std::int64_t total_frames() const override {
    return static_cast<std::int64_t>(window_.size());
  }

 private:
  const std::vector<video::Frame>& window_;
  std::size_t next_ = 0;
};

/// Wraps a stream's source with a span around every next() (recorded only
/// while the benchmark's trace buffer is armed).
class SpannedSource final : public video::FrameSource {
 public:
  SpannedSource(std::unique_ptr<video::FrameSource> inner, int stream)
      : inner_(std::move(inner)), stream_(stream) {}

  std::optional<video::Frame> next() override {
    telemetry::ScopedSpan span(bench_trace(), "source.next",
                               telemetry::Stage::kPrefetch, stream_, pulls_++);
    return inner_->next();
  }
  std::int64_t total_frames() const override { return inner_->total_frames(); }

 private:
  std::unique_ptr<video::FrameSource> inner_;
  int stream_;
  std::int64_t pulls_ = 0;
};

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

CpuJiffies read_cpu_jiffies() {
  CpuJiffies j;
  std::ifstream f("/proc/stat");
  std::string tag;
  f >> tag;
  if (tag != "cpu") return j;
  std::uint64_t v[8] = {};
  for (auto& x : v) f >> x;
  j.user = v[0];
  j.steal = v[7];
  for (auto x : v) j.total += x;
  return j;
}

double steal_share(const CpuJiffies& from, const CpuJiffies& to) {
  return to.total > from.total ? static_cast<double>(to.steal - from.steal) /
                                     static_cast<double>(to.total - from.total)
                               : 0.0;
}

WorkloadSpec find_workload(const std::string& name) {
  if (name == "offline_stored") return {name, 192, 144, 0.15, /*stored=*/true, 400};
  if (name == "offline_busy") return {name, 256, 192, 0.70, /*stored=*/false, 150};
  return {};
}

std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  auto scene = video::jackson_profile();
  scene.width = spec.width;
  scene.height = spec.height;
  scene.tor = spec.tor;
  scene.mean_scene_len_frames = kSceneLen;
  const std::int64_t w = spec.frames_per_stream;
  const std::int64_t span = kStreams * w;
  // One fixed camera, two timelines: the calibration span and the span the
  // streams' windows are cut from. Each timeline holds exactly TOR x its
  // length target frames. The seed picks where the cuts fall: stream s
  // plays frames (offset + s*w + i) mod span, so every seed offers the
  // same frames in total, split differently into desynchronised streams.
  const video::SceneSimulator calib_sim(scene, kCameraSeed, kCalibSpan);
  const video::SceneSimulator sim(scene, kCameraSeed, span);
  runtime::Xoshiro256 rng(seed);
  const auto offset =
      static_cast<std::int64_t>(rng.next() % static_cast<std::uint64_t>(span));

  auto t0 = Clock::now();
  std::vector<video::Frame> calib(static_cast<std::size_t>(kCalibSpan / kCalibStride));
  runtime::parallel_for(0, static_cast<std::int64_t>(calib.size()), 16,
                        [&](std::int64_t b, std::int64_t e) {
                          for (std::int64_t i = b; i < e; ++i) {
                            calib[static_cast<std::size_t>(i)] =
                                calib_sim.render(i * kCalibStride);
                          }
                        });
  in->windows.assign(kStreams, std::vector<video::Frame>(static_cast<std::size_t>(w)));
  runtime::parallel_for(0, span, 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const int s = static_cast<int>(i / w);
      video::Frame f = sim.render((offset + i) % span, s);
      f.index = i % w;
      in->windows[static_cast<std::size_t>(s)][static_cast<std::size_t>(f.index)] =
          std::move(f);
    }
  });
  in->times.render_s = seconds_since(t0);

  t0 = Clock::now();
  detect::SpecializeConfig sc;
  sc.target = scene.target;
  sc.snm.epochs = kSnmEpochs;
  in->models = detect::specialize_stream(calib, sc, kCameraSeed);
  in->times.specialize_s = seconds_since(t0);

  if (spec.stored) {
    t0 = Clock::now();
    in->stored.resize(kStreams);
    runtime::parallel_for(0, kStreams, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t s = b; s < e; ++s) {
        in->stored[static_cast<std::size_t>(s)] =
            std::make_shared<const video::StoredVideo>(video::StoredVideo::encode(
                in->windows[static_cast<std::size_t>(s)], kKeyframeInterval,
                kDeadzone));
      }
    });
    in->times.encode_s = seconds_since(t0);
  }

  const auto& snm = in->models.snm->config();
  in->fingerprint = {in->models.sdd_delta, snm.c_low, snm.c_high,
                     in->models.label_positive_rate};
  for (const auto& win : in->windows) {
    in->fingerprint.push_back(pixel_sum(win.front()) + pixel_sum(win.back()));
  }
  return in;
}

void decode_windows(Inputs& in) {
  for (std::size_t s = 0; s < in.stored.size(); ++s) {
    video::VideoReader reader(*in.stored[s], static_cast<int>(s));
    for (auto& f : in.windows[s]) {
      std::optional<video::Frame> d = reader.next();
      if (!d) throw std::runtime_error("stored window shorter than rendered");
      f = std::move(*d);
    }
  }
}

Expected sequential_cascade(const Inputs& in, int number_of_objects) {
  const detect::StreamModels& m = in.models;
  const core::CascadeThresholds thr = core::thresholds_of(m, number_of_objects);
  // SnmFilter keeps inference scratch: one copy per concurrently evaluated
  // stream, loaded from the shared model's parameters.
  std::stringstream blob;
  m.snm->save(blob);
  const std::string params = blob.str();

  Expected e;
  e.sdd_pass.assign(kStreams, {});
  e.snm_pass.assign(kStreams, {});
  e.emitted.assign(kStreams, {});
  runtime::parallel_for(0, kStreams, 1, [&](std::int64_t b, std::int64_t end) {
    for (std::int64_t s = b; s < end; ++s) {
      detect::StreamModels lane = m;
      auto snm = std::make_shared<detect::SnmFilter>(m.snm->config(), m.background, 0);
      std::istringstream is(params);
      snm->load(is);
      lane.snm = snm;

      const auto& win = in.windows[static_cast<std::size_t>(s)];
      auto& sdd = e.sdd_pass[static_cast<std::size_t>(s)];
      auto& snm_pass = e.snm_pass[static_cast<std::size_t>(s)];
      auto& out = e.emitted[static_cast<std::size_t>(s)];
      sdd.assign(win.size(), 0);
      snm_pass.assign(win.size(), 0);
      out.assign(win.size(), 0);
      std::vector<video::Frame> survivors;
      std::vector<std::size_t> where;
      for (std::size_t i = 0; i < win.size(); ++i) {
        if (lane.sdd->distance(win[i].image) > thr.sdd_delta) {
          sdd[i] = 1;
          survivors.push_back(win[i]);
          where.push_back(i);
        }
      }
      const auto records = core::record_trace(survivors, lane);
      const auto pass = core::pass_mask(records, thr);
      for (std::size_t j = 0; j < records.size(); ++j) {
        snm_pass[where[j]] = records[j].snm_score >= thr.t_pre;
        out[where[j]] = pass[j];
      }
    }
  });
  return e;
}

std::set<FrameKey> expected_set(const Expected& e) {
  std::set<FrameKey> keys;
  for (int s = 0; s < kStreams; ++s) {
    const auto& out = e.emitted[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i]) keys.emplace(s, static_cast<std::int64_t>(i));
    }
  }
  return keys;
}

RunResult run_engine(const WorkloadSpec& spec, const Inputs& in,
                     const std::set<FrameKey>& expected, bool traced) {
  RunResult r;
  core::FfsVaInstance instance(core::FfsVaConfig{});
  if (traced) instance.enable_tracing(true);

  std::vector<FrameKey> emitted;
  emitted.reserve(static_cast<std::size_t>(kStreams * spec.frames_per_stream));
  const double conf = in.models.reference->config().confidence_threshold;
  const auto target = in.models.target;
  instance.set_output_sink([&](const core::OutputEvent& ev) {
    emitted.emplace_back(ev.frame.stream_id, ev.frame.index);
    if (ev.result.count_target(target, conf) >= 1) ++r.ref_positive;
  });
  for (int s = 0; s < kStreams; ++s) {
    std::unique_ptr<video::FrameSource> inner;
    if (spec.stored) {
      inner = std::make_unique<video::StoredSource>(in.stored[static_cast<std::size_t>(s)], s);
    } else {
      inner = std::make_unique<ReplaySource>(in.windows[static_cast<std::size_t>(s)]);
    }
    instance.add_stream(std::make_unique<SpannedSource>(std::move(inner), s), in.models);
  }

  if (traced) bench_trace().enable();
  core::InstanceStats stats;
  {
    // Traced runs poll the live snapshot for queue depths. Declared after
    // the instance, so it is joined before the instance goes away.
    std::jthread poller;
    if (traced) {
      poller = std::jthread([&](std::stop_token stop) {
        while (!stop.stop_requested()) {
          const core::InstanceSnapshot snap = instance.snapshot();
          if (snap.running) {
            for (const auto& ss : snap.streams) {
              r.queues.sdd += static_cast<double>(ss.sdd_queue_depth);
              r.queues.snm += static_cast<double>(ss.snm_queue_depth);
              r.queues.tyolo += static_cast<double>(ss.tyolo_queue_depth);
            }
            r.queues.ref += static_cast<double>(snap.ref_queue_depth);
            ++r.queues.samples;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
    const CpuJiffies j0 = read_cpu_jiffies();
    const double cpu0 = process_cpu_seconds();
    const auto w0 = Clock::now();
    stats = instance.run(/*online=*/false);
    r.wall_s = seconds_since(w0);
    r.cpu_s = process_cpu_seconds() - cpu0;
    r.steal_share = steal_share(j0, read_cpu_jiffies());
  }
  if (traced) {
    bench_trace().disable();
    r.source_spans = bench_trace().collect();
    r.engine_spans = telemetry::TraceBuffer::global().collect();
    r.metrics = instance.metrics().snapshot();
    r.sdd_pool = std::clamp(runtime::compute_parallelism(), 1, kStreams);
    if (r.queues.samples > 0) {
      const double k = r.queues.samples;
      r.queues.sdd /= k;
      r.queues.snm /= k;
      r.queues.tyolo /= k;
      r.queues.ref /= k;
    }
  }

  r.funnel = stats.aggregate();
  r.offered = r.funnel.prefetch.in;
  r.ingested = r.funnel.prefetch.passed;
  r.ingest_drops = r.funnel.dropped_at_ingest;
  r.degraded = r.funnel.fault.degraded_frames + r.funnel.fault.discarded_frames +
               r.funnel.fault.poisoned_frames;
  r.verdict = verdict_gate(expected, emitted, r.ingest_drops);
  return r;
}

}  // namespace enginebench
