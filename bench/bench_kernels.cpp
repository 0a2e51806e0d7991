// Kernel microbenchmarks, timed with the repeated-run helper of common.hpp.
//
// GEMM: seed scalar gemm_naive vs the blocked/packed nn::gemm at a square
// 256^3 problem and the SNM conv2 GEMM, the one network the engine runs.
// Pruned variants zero 50% of A's k-columns the way magnitude pruning does
// (nn/compress.hpp), exercising the pack-time zero-step compaction. SNM's
// conv1 GEMM (m=8, k=9) is absent: k < 16 routes nn::gemm to the reference
// kernel by design, so there is nothing to compare. The binary exits
// non-zero when the two kernels disagree.
//
// The CPU kernels nothing else measures: scene rendering, the plan-based
// SDD-input resize, SNM batch inference at 1/8/16 frames, delta-RLE decode, the three
// convolution paths (direct, im2col, im2col over pruned weights), and two
// pipeline primitives (bounded-queue push/pop, the T-YOLO scheduler).
//
// The per-frame kernels of the segmentation detectors (T-YOLO and the
// reference model segment frames against the background; they run no
// network) at a 256x192 camera: the motion map, the Gaussian blur, the 3x3
// opening, connected components of the opened mask, the plan-based resize
// to T-YOLO's 104x104 input, SDD's moment kernel on a resized 100x100
// pair, and whole SDD distance, T-YOLO detect and reference detect calls.
// The resize/* rows time the resizes at the engine benchmark's frame sizes:
// SDD's 100x100 input from offline_stored's 192x144 frames and SNM's 50x50
// input from offline_busy's 256x192 frames.
// The engine benchmark measures the same filters inside the engine
// (enginebench/probes.cpp).
//
// Every row's fps is calls per second (SNM rows add frames_per_sec). One
// run is a batch of calls at least 10 ms long, so clock resolution vanishes.
//
// Flags:
//   --threads N   set runtime compute parallelism before measuring
//   --json PATH   write the rows (bench/common.hpp JsonReport)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "common.hpp"
#include "core/policies.hpp"
#include "detect/reference.hpp"
#include "detect/sdd.hpp"
#include "detect/segmentation.hpp"
#include "detect/snm.hpp"
#include "detect/tyolo.hpp"
#include "image/components.hpp"
#include "image/ops.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "runtime/bounded_queue.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/stopwatch.hpp"
#include "video/codec.hpp"
#include "video/profiles.hpp"

using namespace ffsva;

namespace {

/// Keeps `value` observable, so the compiler cannot drop the work that
/// produced it.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Measures each op as a variant of one bench::measure() group. A run is a
/// batch of calls sized (by doubling) to last at least 10 ms.
std::vector<bench::Series> time_calls(const std::vector<std::function<void()>>& ops) {
  std::vector<int> calls;
  for (const auto& op : ops) {
    int n = 1;
    for (;; n *= 2) {
      const runtime::Stopwatch w;
      for (int i = 0; i < n; ++i) op();
      if (w.elapsed_sec() >= 0.01 || n >= (1 << 24)) break;
    }
    calls.push_back(n);
  }
  return bench::measure(static_cast<int>(ops.size()), [&](int v) {
    const int n = calls[static_cast<std::size_t>(v)];
    const runtime::Stopwatch w;
    for (int i = 0; i < n; ++i) ops[static_cast<std::size_t>(v)]();
    return bench::Run{n / w.elapsed_sec(), 0.0, 0.0, {}};
  });
}

struct Shape {
  const char* name;
  int m, k, n;
  double zero_k_fraction;  ///< Fraction of A's k-columns zeroed (pruning).
};

constexpr Shape kShapes[] = {
    {"gemm_256x256x256", 256, 256, 256, 0.0},
    {"gemm_256x256x256_pruned50", 256, 256, 256, 0.5},
    {"snm_conv2_16x72x169", 16, 72, 169, 0.0},
    {"snm_conv2_16x72x169_pruned50", 16, 72, 169, 0.5},
};

/// Times naive vs blocked GEMM at every shape; false on a kernel mismatch.
bool bench_gemm(bench::JsonReport& report) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  bool all_ok = true;
  for (const Shape& s : kShapes) {
    std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
    std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
    std::vector<float> c_naive(static_cast<std::size_t>(s.m) * s.n);
    std::vector<float> c_blocked(c_naive.size());
    for (float& v : a) v = dist(rng);
    for (float& v : b) v = dist(rng);
    if (s.zero_k_fraction > 0.0) {
      // Zero whole k-columns of A across all rows, like channel-structured
      // magnitude pruning: every MR-row slice of that step is zero, so the
      // packer can compact it.
      std::bernoulli_distribution zap(s.zero_k_fraction);
      for (int kk = 0; kk < s.k; ++kk) {
        if (!zap(rng)) continue;
        for (int i = 0; i < s.m; ++i) a[static_cast<std::size_t>(i) * s.k + kk] = 0.0f;
      }
    }

    nn::GemmScratch ws;
    const auto series = time_calls({
        [&] { nn::gemm_naive(a.data(), b.data(), c_naive.data(), s.m, s.k, s.n); },
        [&] { nn::gemm(a.data(), b.data(), c_blocked.data(), s.m, s.k, s.n, ws); },
    });

    float max_err = 0.0f;
    for (std::size_t i = 0; i < c_naive.size(); ++i) {
      max_err = std::max(max_err, std::abs(c_naive[i] - c_blocked[i]));
    }
    // Both kernels accumulate in exact k-order per element at these
    // shapes' magnitudes; anything beyond reassociation noise is a bug.
    const bool ok = max_err <= 1e-3f * static_cast<float>(s.k);
    all_ok = all_ok && ok;

    const double flops = 2.0 * s.m * s.k * s.n;
    const double speedup = series[1].fps.median / series[0].fps.median;
    const std::string name = s.name;
    bench::print_series(name + "/naive", series[0]);
    bench::print_series(name + "/blocked", series[1]);
    std::printf("%40s GFLOP/s %.2f -> %.2f, speedup %.2fx%s\n", "",
                flops * series[0].fps.median * 1e-9,
                flops * series[1].fps.median * 1e-9, speedup, ok ? "" : "  MISMATCH");
    report.add(name + "/naive", series[0],
               {{"gflops", flops * series[0].fps.median * 1e-9}});
    report.add(name + "/blocked", series[1],
               {{"gflops", flops * series[1].fps.median * 1e-9}, {"speedup", speedup}});
  }
  return all_ok;
}

/// Times `ops` as one group and archives each under its name.
void bench_group(bench::JsonReport& report, const std::vector<std::string>& names,
                 const std::vector<std::function<void()>>& ops) {
  const auto series = time_calls(ops);
  for (std::size_t i = 0; i < series.size(); ++i) {
    bench::print_series(names[i], series[i]);
    report.add(names[i], series[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      runtime::set_compute_parallelism(std::atoi(argv[i + 1]));
    }
  }
  bench::JsonReport report(argc, argv);

  bench::print_header("KERNELS -- GEMM (seed scalar vs blocked) and CPU kernels");
  std::printf("compute threads: %d, %d runs per kernel\n",
              runtime::compute_parallelism(), bench::kReps);
  bench::print_series_header("kernel");
  const bool gemm_ok = bench_gemm(report);

  // A jackson-profile camera (320x240): 200 frames to render, resize and
  // decode. SNM cost does not depend on its weights, so an untrained filter
  // over the same network stands in for a specialized one.
  video::SceneConfig cfg = video::jackson_profile();
  cfg.tor = 0.3;
  const video::SceneSimulator sim(cfg, 42, 200);
  std::vector<video::Frame> frames;
  for (int i = 0; i < 200; ++i) frames.push_back(sim.render(i));
  const video::StoredVideo stored = video::StoredVideo::encode(frames, 32, 4);
  const detect::SnmFilter snm(detect::SnmConfig{}, frames[0].image, 42);

  std::int64_t next_render = 0;
  bench_group(report, {"scene_render"}, {[&] {
                keep(sim.render(next_render));
                next_render = (next_render + 1) % 200;
              }});
  // The resize half of SDD's distance: the plan-based resize it runs.
  image::ResizePlan sdd_plan;
  sdd_plan.ensure(cfg.width, cfg.height, 100, 100);
  image::Image sdd_input;
  bench_group(report, {"resize_to_sdd_input"}, {[&] {
                image::resize_bilinear_into(frames[0].image, sdd_plan, sdd_input);
                keep(sdd_input);
              }});

  for (const int batch : {1, 8, 16}) {
    std::vector<const image::Image*> imgs;
    for (int k = 0; k < batch; ++k) {
      imgs.push_back(&frames[static_cast<std::size_t>(k)].image);
    }
    const auto series = time_calls({[&] { keep(snm.predict_batch(imgs)); }});
    const std::string name = "snm_predict_batch/" + std::to_string(batch);
    bench::print_series(name, series[0]);
    report.add(name, series[0], {{"frames_per_sec", batch * series[0].fps.median}});
  }
  {
    // The GPU0 SNM call: scoring inputs an SDD worker already prepared.
    constexpr int kBatch = 16;
    std::vector<std::vector<float>> prepared(kBatch);
    std::vector<const float*> inputs;
    for (int k = 0; k < kBatch; ++k) {
      snm.prepare(frames[static_cast<std::size_t>(k)].image,
                  prepared[static_cast<std::size_t>(k)]);
      inputs.push_back(prepared[static_cast<std::size_t>(k)].data());
    }
    std::vector<double> scores;
    const auto series = time_calls({[&] {
      snm.score(inputs, scores);
      keep(scores);
    }});
    const std::string name = "snm_score_prepared/" + std::to_string(kBatch);
    bench::print_series(name, series[0]);
    report.add(name, series[0], {{"frames_per_sec", kBatch * series[0].fps.median}});
  }

  video::VideoReader reader(stored);
  bench_group(report, {"decode_frame"}, {[&] {
                auto frame = reader.next();
                if (!frame) {
                  reader.seek(0);
                  frame = reader.next();
                }
                keep(frame);
              }});

  // SNM-sized conv layer (8 -> 16 channels, 3x3 stride 2) over a 25x25 map.
  runtime::Xoshiro256 conv_rng(5);
  nn::Conv2d direct(8, 16, 3, 2, 1, conv_rng);
  direct.set_use_im2col(false);
  nn::Conv2d im2col = direct;
  im2col.set_use_im2col(true);
  nn::Conv2d pruned = im2col;
  // Hand-prune half the weights; gemm() skips exact zeros.
  for (std::size_t i = 0; i < pruned.weight.size(); i += 2) pruned.weight[i] = 0.0f;
  nn::Tensor x(1, 8, 25, 25);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i % 13) * 0.1f;
  bench_group(report, {"conv2d/direct", "conv2d/im2col", "conv2d/im2col_pruned50"},
              {[&] { keep(direct.forward(x, false)); },
               [&] { keep(im2col.forward(x, false)); },
               [&] { keep(pruned.forward(x, false)); }});

  runtime::BoundedQueue<int> queue(64);
  core::TYoloScheduler sched(4);
  const std::vector<int> depths(30, 3);
  bench_group(report, {"bounded_queue_push_pop", "tyolo_scheduler_cycle"},
              {[&] {
                 queue.push(1);
                 keep(queue.pop());
               },
               [&] { keep(sched.next(depths)); }});

  // A busy 256x192 jackson camera, as in enginebench's offline_busy.
  video::SceneConfig seg_cfg = video::jackson_profile();
  seg_cfg.width = 256;
  seg_cfg.height = 192;
  seg_cfg.tor = 0.7;
  const video::SceneSimulator seg_sim(seg_cfg, 43, 64);
  std::vector<image::Image> seg_frames;
  for (int i = 0; i < 64; i += 4) seg_frames.push_back(seg_sim.render(i).image);
  const image::Image& bg = seg_sim.background();
  const detect::ReferenceConfig ref_cfg;
  const detect::SegmentationParams& seg = ref_cfg.segmentation;
  image::Image motion, mask;
  detect::motion_map(seg_frames[0], bg, motion);
  image::blur_threshold(motion, seg.blur_sigma, seg.diff_threshold, mask);
  const detect::SddFilter sdd(detect::SddConfig{}, bg);
  const detect::TYoloDetector tyolo(detect::TYoloConfig{}, bg);
  const detect::ReferenceDetector reference(ref_cfg, bg);
  image::Image scratch, eroded;  // outputs of the seg/* rows
  std::size_t next_frame = 0;
  const auto frame = [&]() -> const image::Image& {
    next_frame = (next_frame + 1) % seg_frames.size();
    return seg_frames[next_frame];
  };
  bench_group(report,
              {"seg/motion_map_256x192", "seg/blur_threshold_256x192",
               "seg/open3x3_256x192"},
              {[&] {
                 detect::motion_map(frame(), bg, scratch);
                 keep(scratch);
               },
               [&] {
                 image::blur_threshold(motion, seg.blur_sigma, seg.diff_threshold,
                                       scratch);
                 keep(scratch);
               },
               [&] {
                 image::erode3x3(mask, eroded);
                 image::dilate3x3(eroded, scratch);
                 keep(scratch);
               }});
  std::vector<image::Image> masks;
  for (const auto& f : seg_frames) masks.push_back(detect::foreground_mask(f, bg, seg));
  std::size_t next_mask = 0;
  image::ResizePlan tyolo_plan;
  tyolo_plan.ensure(seg_cfg.width, seg_cfg.height, 104, 104);
  image::Image tyolo_input;
  bench_group(report,
              {"seg/connected_components_256x192",
               "seg/resize_into_256x192_to_104x104"},
              {[&] {
                 next_mask = (next_mask + 1) % masks.size();
                 keep(image::connected_components(masks[next_mask], seg.min_pixels));
               },
               [&] {
                 image::resize_bilinear_into(frame(), tyolo_plan, tyolo_input);
                 keep(tyolo_input);
               }});
  std::vector<image::Image> stored_frames;
  for (const auto& f : seg_frames) {
    stored_frames.push_back(image::resize_bilinear(f, 192, 144));
  }
  std::size_t next_stored = 0;
  image::ResizePlan sdd_stored_plan, snm_plan;
  sdd_stored_plan.ensure(192, 144, 100, 100);
  snm_plan.ensure(seg_cfg.width, seg_cfg.height, 50, 50);
  image::Image sdd_stored_input, snm_input;
  bench_group(report, {"resize/192x144_to_100x100", "resize/256x192_to_50x50"},
              {[&] {
                 next_stored = (next_stored + 1) % stored_frames.size();
                 image::resize_bilinear_into(stored_frames[next_stored],
                                             sdd_stored_plan, sdd_stored_input);
                 keep(sdd_stored_input);
               },
               [&] {
                 image::resize_bilinear_into(frame(), snm_plan, snm_input);
                 keep(snm_input);
               }});
  // T-YOLO on GPU0 runs on inputs an SDD worker already resized.
  std::vector<image::Image> tyolo_inputs(seg_frames.size());
  for (std::size_t i = 0; i < seg_frames.size(); ++i) {
    tyolo.prepare(seg_frames[i], tyolo_inputs[i]);
  }
  std::size_t next_input = 0;
  // The moments half of SDD's distance, on frames already resized to 100x100.
  const image::Image sdd_ref = image::resize_bilinear(bg, 100, 100);
  std::vector<image::Image> sdd_inputs;
  for (const auto& f : seg_frames) {
    sdd_inputs.push_back(image::resize_bilinear(f, 100, 100));
  }
  std::size_t next_sdd = 0;
  bench_group(report,
              {"detect/sdd_distance", "detect/sdd_moments_100x100",
               "detect/tyolo_detect", "detect/tyolo_detect_prepared",
               "detect/reference_detect_256x192"},
              {[&] { keep(sdd.distance(frame())); },
               [&] {
                 next_sdd = (next_sdd + 1) % sdd_inputs.size();
                 keep(image::gain_compensated_mse(sdd_inputs[next_sdd], sdd_ref));
               },
               [&] { keep(tyolo.detect(frame())); },
               [&] {
                 next_input = (next_input + 1) % tyolo_inputs.size();
                 keep(tyolo.detect_prepared(tyolo_inputs[next_input]));
               },
               [&] { keep(reference.detect(frame())); }});

  bench::print_rule();
  std::printf("GEMM correctness vs seed kernel: %s\n", gemm_ok ? "OK" : "FAILED");
  return gemm_ok ? 0 : 1;
}
