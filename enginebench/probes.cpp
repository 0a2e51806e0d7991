#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "nn/gemm.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rng.hpp"

namespace enginebench {

namespace {

using Clock = std::chrono::steady_clock;

/// Frames fed to each probe: enough for a stable per-frame mean, few
/// enough that all probes together take a few hundred milliseconds.
constexpr std::size_t kProbeFrames = 64;

/// Time `calls` invocations of fn, each covering `frames_per_call` frames.
template <typename Fn>
Cost time_per_frame(int calls, int frames_per_call, Fn&& fn) {
  if (calls <= 0) return {};
  fn(0);  // warm scratch buffers and caches
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  for (int c = 0; c < calls; ++c) fn(c);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  const double cpu = process_cpu_seconds() - cpu0;
  const double frames = static_cast<double>(calls) * frames_per_call;
  return {wall * 1e6 / frames, cpu * 1e6 / frames};
}

/// Up to kProbeFrames frames of every stream that reached a stage (mask),
/// or every frame when mask is null.
std::vector<const image::Image*> frames_reaching(
    const Inputs& in, const std::vector<std::vector<char>>* mask) {
  std::vector<const image::Image*> out;
  for (std::size_t i = 0; out.size() < kProbeFrames; ++i) {
    bool any = false;
    for (std::size_t s = 0; s < in.windows.size(); ++s) {
      if (i >= in.windows[s].size()) continue;
      any = true;
      if (!mask || (*mask)[s][i]) out.push_back(&in.windows[s][i].image);
    }
    if (!any) break;
  }
  return out;
}

double gemm_gflops() {
  // The GEMMs SNM conv2 and T-YOLO conv1/conv2 lower to (m x k x n).
  constexpr int kShapes[][3] = {{16, 72, 169}, {16, 27, 2704}, {32, 144, 676}};
  runtime::Xoshiro256 rng(7);
  double flops = 0.0, secs = 0.0;
  nn::GemmScratch ws;
  for (const auto& sh : kShapes) {
    const int m = sh[0], k = sh[1], n = sh[2];
    std::vector<float> a(static_cast<std::size_t>(m) * k), b(static_cast<std::size_t>(k) * n),
        c(static_cast<std::size_t>(m) * n);
    for (float& v : a) v = static_cast<float>(rng.uniform() - 0.5);
    for (float& v : b) v = static_cast<float>(rng.uniform() - 0.5);
    nn::gemm(a.data(), b.data(), c.data(), m, k, n, ws);
    const int iters = 200;
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) nn::gemm(a.data(), b.data(), c.data(), m, k, n, ws);
    secs += std::chrono::duration<double>(Clock::now() - t0).count();
    flops += 2.0 * m * k * n * iters;
  }
  return flops / secs * 1e-9;
}

double parallel_for_dispatch_us() {
  const std::int64_t lanes = runtime::compute_parallelism();
  std::vector<double> us;
  constexpr int kIters = 2000;
  us.reserve(kIters);
  for (int i = 0; i < kIters; ++i) {
    const auto t0 = Clock::now();
    runtime::parallel_for(0, lanes, 1, [](std::int64_t, std::int64_t) {});
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return median(std::move(us));
}

}  // namespace

LayerProbe probe_layers(const WorkloadSpec& spec, const Inputs& in,
                        const Expected& expected) {
  LayerProbe p;
  const detect::StreamModels& m = in.models;

  {
    // Decode the stream's own recording; replayed workloads are encoded
    // here, outside every timed region, so the cost is still measured.
    std::shared_ptr<const video::StoredVideo> video;
    if (spec.stored) {
      video = in.stored.front();
    } else {
      const auto& w = in.windows.front();
      const std::vector<video::Frame> head(
          w.begin(), w.begin() + static_cast<std::ptrdiff_t>(std::min(w.size(), kProbeFrames)));
      video = std::make_shared<const video::StoredVideo>(
          video::StoredVideo::encode(head, kKeyframeInterval, kDeadzone));
    }
    {
      video::VideoReader warm(*video);
      while (warm.next()) {
      }
    }
    video::VideoReader reader(*video);
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::int64_t n = 0;
    while (reader.next()) ++n;
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    const double frames = static_cast<double>(std::max<std::int64_t>(n, 1));
    p.decode = {wall * 1e6 / frames, (process_cpu_seconds() - cpu0) * 1e6 / frames};
  }

  const auto all = frames_reaching(in, nullptr);
  p.sdd = time_per_frame(static_cast<int>(all.size()), 1, [&](int c) {
    (void)m.sdd->distance(*all[static_cast<std::size_t>(c)]);
  });

  // Each stage is probed on frames that reached it; a stage no frame
  // reached in this seed's windows is probed on all frames instead.
  const auto pick = [&](const std::vector<std::vector<char>>& mask) {
    auto v = frames_reaching(in, &mask);
    return v.empty() ? all : v;
  };
  const auto snm_in = pick(expected.sdd_pass);
  const auto tyolo_in = pick(expected.snm_pass);
  const auto ref_in = pick(expected.emitted);

  const auto batch_of = [](const std::vector<const image::Image*>& src, int call,
                           int size) {
    std::vector<const image::Image*> b;
    for (int j = 0; j < size; ++j) {
      b.push_back(src[static_cast<std::size_t>(call * size + j) % src.size()]);
    }
    return b;
  };
  p.snm_batch16 = time_per_frame(8, 16, [&](int c) {
    (void)m.snm->predict_batch(batch_of(snm_in, c, 16));
  });
  p.tyolo = time_per_frame(static_cast<int>(tyolo_in.size()), 1, [&](int c) {
    (void)m.tyolo->detect(*tyolo_in[static_cast<std::size_t>(c)]);
  });
  p.ref_batch8 = time_per_frame(8, 8, [&](int c) {
    const auto b = batch_of(ref_in, c, 8);
    (void)m.reference->detect_batch(std::span<const image::Image* const>(b));
  });

  p.gemm_gflops = gemm_gflops();
  p.parallel_for_dispatch_us = parallel_for_dispatch_us();
  return p;
}

}  // namespace enginebench
