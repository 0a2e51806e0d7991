// Allocation-count checks for the inference hot path.
//
// The steady-state contract of the scratch-threaded forward pass is "warm
// calls never touch the heap": GemmScratch / ForwardScratch / SnmScratch
// buffers are grow-only and sized on the first call, after which predict()
// and an inference forward() must perform zero allocations, and the batched
// and segmentation calls only the allocations each test names. This test counts
// them directly by overriding the global allocation functions, which is
// why it lives in its own binary rather than nn_tests.
//
// The counter only increments between arm()/disarm(), so gtest's own
// bookkeeping outside the measured window doesn't pollute the count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_armed{false};
std::atomic<long> g_allocs{0};

void count_alloc() {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

struct AllocWindow {
  AllocWindow() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_armed.store(false, std::memory_order_relaxed); }
  long count() const { return g_allocs.load(std::memory_order_relaxed); }
};
}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must be
// malloc-backed too, or the delete replacements below free memory that
// another allocator handed out.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size ? size : 1);
}

// GCC's -Wmismatched-new-delete pairs an inlined free() with the new
// expression that produced the pointer; it cannot see that the replacement
// operator new above is itself malloc-backed, which makes the pairing valid.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#include "detect/reference.hpp"
#include "detect/sdd.hpp"
#include "detect/snm.hpp"
#include "detect/tyolo.hpp"
#include "image/components.hpp"
#include "image/ops.hpp"
#include "nn/layers.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/spans.hpp"
#include "video/profiles.hpp"
#include "video/scene.hpp"

namespace ffsva {
namespace {

image::Image noise_image(int w, int h, std::uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  image::Image img(w, h, 1);
  for (std::size_t i = 0; i < img.size_bytes(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(rng.next() & 0xff);
  }
  return img;
}

// A single sample's forward runs on the calling thread: no resize or GEMM
// fans out inside one item, so the compute parallelism must not matter.
constexpr int kParallelisms[] = {1, 4};

TEST(ZeroAlloc, SequentialForwardInferenceIsAllocationFree) {
  runtime::Xoshiro256 rng(7);
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>(1, 8, 3, 2, 1, rng))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::Conv2d>(8, 16, 3, 2, 1, rng))
      .add(std::make_unique<nn::ReLU>())
      .add(std::make_unique<nn::Linear>(16 * 13 * 13, 1, rng));

  nn::Tensor x(1, 1, 50, 50);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01f * static_cast<float>(i % 97);

  for (const int parallelism : kParallelisms) {
    SCOPED_TRACE(parallelism);
    runtime::set_compute_parallelism(parallelism);
    nn::ForwardScratch ws;
    net.forward(x, ws);  // Warm-up sizes every buffer.
    net.forward(x, ws);

    AllocWindow window;
    const nn::Tensor& y = net.forward(x, ws);
    EXPECT_EQ(0, window.count());
    EXPECT_EQ(1u, y.size());
  }
  runtime::set_compute_parallelism(1);
}

TEST(ZeroAlloc, WarmSnmPredictIsAllocationFree) {
  const image::Image background = noise_image(160, 120, 1);
  const image::Image frame_a = noise_image(160, 120, 2);
  const image::Image frame_b = noise_image(160, 120, 3);

  for (const int parallelism : kParallelisms) {
    SCOPED_TRACE(parallelism);
    runtime::set_compute_parallelism(parallelism);
    detect::SnmFilter snm(detect::SnmConfig{}, background, 99);
    (void)snm.predict(frame_a);  // Warm-up sizes scratch + resize plan.
    (void)snm.predict(frame_b);

    AllocWindow window;
    const double pa = snm.predict(frame_a);
    const double pb = snm.predict(frame_b);
    EXPECT_EQ(0, window.count());
    EXPECT_GE(pa, 0.0);
    EXPECT_LE(pa, 1.0);
    EXPECT_GE(pb, 0.0);
    EXPECT_LE(pb, 1.0);
  }
  runtime::set_compute_parallelism(1);
}

// SDD's distance resizes into per-thread staging and sums its moments on the
// calling thread: nothing fans out, so the compute parallelism must not
// matter.
TEST(ZeroAlloc, WarmSddDistanceIsAllocationFree) {
  video::SceneConfig cfg = video::jackson_profile();
  cfg.width = 256;
  cfg.height = 192;
  cfg.tor = 0.7;
  const video::SceneSimulator sim(cfg, 43, 8);
  const image::Image frame_a = sim.render(2).image;
  const image::Image frame_b = sim.render(6).image;

  for (const int parallelism : kParallelisms) {
    SCOPED_TRACE(parallelism);
    runtime::set_compute_parallelism(parallelism);
    using detect::SddMetric;
    for (const SddMetric metric :
         {SddMetric::kMse, SddMetric::kNrmse, SddMetric::kSad}) {
      SCOPED_TRACE(detect::to_string(metric));
      detect::SddConfig sc;
      sc.metric = metric;
      const detect::SddFilter sdd(sc, sim.background());
      (void)sdd.distance(frame_a);  // Warm-up sizes the resize plan + staging.
      (void)sdd.distance(frame_b);

      AllocWindow window;
      const double da = sdd.distance(frame_a);
      const double db = sdd.distance(frame_b);
      EXPECT_EQ(0, window.count());
      EXPECT_GT(da, 0.0);
      EXPECT_GT(db, 0.0);
    }
  }
  runtime::set_compute_parallelism(1);
}

// Both SNM conv layers fan a 4-frame batch's samples out over the compute
// pool (conv2d_im2col_into), and each fan-out allocates one parallel_for
// LoopState. At parallelism 1 nothing fans out. The worker queue (a deque)
// also takes a node every 32 posts; set_compute_parallelism() starts each
// parallelism with fresh workers, so these few calls never reach one.
long conv_fan_outs(int parallelism) { return parallelism > 1 ? 2 : 0; }

// The GPU0 SNM call scores inputs an SDD worker prepared, into a
// caller-owned buffer: warm, it allocates only the conv fan-outs.
// predict_batch() is prepare + score and adds only its returned vector.
TEST(ZeroAlloc, WarmSnmScoreAllocatesOnlyConvFanOuts) {
  const image::Image background = noise_image(160, 120, 11);
  std::vector<image::Image> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(noise_image(160, 120, 20u + i));
  std::vector<const image::Image*> ptrs;
  for (const auto& f : frames) ptrs.push_back(&f);

  for (const int parallelism : kParallelisms) {
    SCOPED_TRACE(parallelism);
    runtime::set_compute_parallelism(parallelism);
    detect::SnmFilter snm(detect::SnmConfig{}, background, 99);
    std::vector<std::vector<float>> prepared(frames.size());
    std::vector<const float*> inputs;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      snm.prepare(frames[i], prepared[i]);
      inputs.push_back(prepared[i].data());
    }
    std::vector<double> scores;
    snm.score(inputs, scores);
    (void)snm.predict_batch(ptrs);

    {
      AllocWindow window;
      snm.score(inputs, scores);
      EXPECT_EQ(window.count(), conv_fan_outs(parallelism));
    }
    AllocWindow window;
    const auto probs = snm.predict_batch(ptrs);
    EXPECT_EQ(window.count(), 1 + conv_fan_outs(parallelism));
    EXPECT_EQ(probs, scores);
  }
  runtime::set_compute_parallelism(1);
}

/// A busy frame of a 256x192 jackson camera and the camera's background.
struct BusyFrame {
  image::Image frame, background;
};

const BusyFrame& busy_frame() {
  static const BusyFrame* f = [] {
    video::SceneConfig cfg = video::jackson_profile();
    cfg.width = 256;
    cfg.height = 192;
    cfg.tor = 0.7;
    const video::SceneSimulator sim(cfg, 43, 64);
    return new BusyFrame{sim.render(20).image, sim.background()};
  }();
  return *f;
}

// Warm, a T-YOLO detect on a prepared input and a reference detect allocate
// only their two result lists: the component list and the detection list.
// The motion map, the mask, the opening and the blur ring are per-thread
// scratch.
TEST(ZeroAlloc, WarmTYoloDetectPreparedAllocatesOnlyItsResults) {
  runtime::set_compute_parallelism(1);
  const BusyFrame& f = busy_frame();
  const detect::TYoloDetector tyolo(detect::TYoloConfig{}, f.background);
  image::Image input;
  tyolo.prepare(f.frame, input);
  (void)tyolo.detect_prepared(input);
  (void)tyolo.detect_prepared(input);

  AllocWindow window;
  const auto result = tyolo.detect_prepared(input);
  EXPECT_EQ(window.count(), 2);
  EXPECT_FALSE(result.detections.empty());
}

TEST(ZeroAlloc, WarmReferenceDetectAllocatesOnlyItsResults) {
  runtime::set_compute_parallelism(1);
  const BusyFrame& f = busy_frame();
  const detect::ReferenceDetector reference(detect::ReferenceConfig{}, f.background);
  (void)reference.detect(f.frame);
  (void)reference.detect(f.frame);

  AllocWindow window;
  const auto result = reference.detect(f.frame);
  EXPECT_EQ(window.count(), 2);
  EXPECT_FALSE(result.detections.empty());
}

// The segmentation kernels every detector runs per frame keep their scratch
// per thread: once warm, labelling allocates only the returned list and the
// plan-based resize allocates nothing.
TEST(ZeroAlloc, WarmConnectedComponentsAllocatesOnlyItsResult) {
  image::Image mask(256, 192, 1, 0);
  for (int b = 0; b < 12; ++b) {
    for (int y = 10 + b * 13; y < 18 + b * 13; ++y) {
      for (int x = 7 * b; x < 7 * b + 5 + b; ++x) mask.at(x, y) = 255;
    }
  }
  (void)image::connected_components(mask, 1);
  (void)image::connected_components(mask, 1);

  AllocWindow window;
  const auto comps = image::connected_components(mask, 1);
  EXPECT_LE(window.count(), 1);
  EXPECT_EQ(12u, comps.size());
}

// At each geometry the engine resizes (T-YOLO 104x104 and SNM 50x50 from
// 256x192, SDD 100x100 from 192x144), a warm call allocates nothing: the
// column-group tables are built in ensure(), which is a no-op once warm.
TEST(ZeroAlloc, WarmResizeIntoIsAllocationFree) {
  struct Geometry {
    int sw, sh, ow, oh;
  };
  for (const auto& [sw, sh, ow, oh] : {Geometry{256, 192, 104, 104},
                                       Geometry{192, 144, 100, 100},
                                       Geometry{256, 192, 50, 50}}) {
    runtime::Xoshiro256 rng(41);
    image::Image frame(sw, sh, 3);
    for (std::size_t i = 0; i < frame.size_bytes(); ++i) {
      frame.data()[i] = static_cast<std::uint8_t>(rng.next() & 0xff);
    }
    image::ResizePlan plan;
    plan.ensure(sw, sh, ow, oh);
    image::Image small;
    image::resize_bilinear_into(frame, plan, small);
    image::resize_bilinear_into(frame, plan, small);

    AllocWindow window;
    plan.ensure(sw, sh, ow, oh);
    image::resize_bilinear_into(frame, plan, small);
    EXPECT_EQ(0, window.count()) << sw << "x" << sh << " -> " << ow << "x" << oh;
    EXPECT_EQ(ow, small.width());
  }
}

// The telemetry hot path shares the zero-allocation contract: with metrics
// and tracing armed around the warm inference call — exactly how the
// instrumented engine runs — counter adds, histogram records, and span
// recording must stay off the heap.
TEST(ZeroAlloc, WarmInferenceWithTelemetryArmedIsAllocationFree) {
  runtime::set_compute_parallelism(1);
  const image::Image background = noise_image(160, 120, 31);
  detect::SnmFilter snm(detect::SnmConfig{}, background, 99);
  const image::Image frame = noise_image(160, 120, 32);
  (void)snm.predict(frame);  // Warm-up sizes scratch + resize plan.
  (void)snm.predict(frame);

  telemetry::Registry reg;
  telemetry::Counter& in = reg.counter("snm.in");
  telemetry::AtomicHistogram& hist = reg.histogram("executor.batch_size");
  telemetry::TraceBuffer trace(64);
  trace.enable();
  // Warm-up: registers this thread's span ring (and its trace tid).
  in.add(0);
  hist.record(1.0);
  {
    telemetry::ScopedSpan warm(trace, "warm", telemetry::Stage::kSnm);
  }

  AllocWindow window;
  {
    telemetry::ScopedSpan span(trace, "snm.batch", telemetry::Stage::kSnm);
    in.add();
    const double p = snm.predict(frame);
    hist.record(1.0);
    span.set_batch(1);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_EQ(0, window.count());
  EXPECT_EQ(in.value(), 1u);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(trace.collect().size(), 2u);
}

}  // namespace
}  // namespace ffsva
