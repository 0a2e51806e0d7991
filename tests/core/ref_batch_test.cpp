// GPU1 reference-stage batching in the live engine, against two oracles: a
// ref_batch_size = 1 run (the paper's one-frame loop) fixes each stream's
// emitted frame sequence and the degraded counts, and a direct
// per-frame reference->detect() call fixes every emitted frame's
// detections. RefMode::kBatch must match both; a frame the reference model
// cannot evaluate must be dropped alone (per-frame drop-on-error inside a
// batch); the drop-latency fix must keep dropped frames out of the
// output-latency distribution; and RefMode::kCropPack must agree with the
// per-frame oracle on the frames it emits. Runs under the tsan/asan labels
// — the batched reference loop and its cross-stream buffers are
// concurrency surface.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/pipeline.hpp"
#include "video/profiles.hpp"
#include "video/source.hpp"

namespace ffsva::core {
namespace {

using video::LiveSource;

struct TestStream {
  video::SceneConfig cfg;
  std::shared_ptr<video::SceneSimulator> sim;
  detect::StreamModels models;
};

/// One specialized small stream, shared across tests (training is slow).
TestStream& shared_stream() {
  static auto* t = [] {
    auto* s = new TestStream;
    s->cfg = video::jackson_profile();
    s->cfg.width = 128;
    s->cfg.height = 96;
    s->cfg.tor = 0.35;
    s->sim = std::make_shared<video::SceneSimulator>(s->cfg, 91, 1400);
    std::vector<video::Frame> calib;
    for (int i = 0; i < 700; ++i) calib.push_back(s->sim->render(i));
    detect::SpecializeConfig sc;
    sc.target = s->cfg.target;
    sc.snm.epochs = 5;
    s->models = detect::specialize_stream(calib, sc, 91);
    return s;
  }();
  return *t;
}

/// A frame window that truncates every `period`-th frame by two rows. The
/// cheap filters all downscale to fixed detector inputs, so a truncated
/// frame rides the cascade normally — and throws (shape mismatch against
/// the full-resolution background) exactly at the reference model. That is
/// the in-engine probe for per-frame drop-on-error inside a batch.
class TruncatingSource final : public video::FrameSource {
 public:
  TruncatingSource(std::shared_ptr<const video::SceneSimulator> sim,
                   std::int64_t begin, std::int64_t end, int period)
      : sim_(std::move(sim)), next_(begin), end_(end), period_(period) {}

  std::optional<video::Frame> next() override {
    if (next_ >= end_) return std::nullopt;
    auto f = sim_->render(next_);
    if (next_ % period_ == 0) {
      const auto& src = f.image;
      image::Image cut(src.width(), src.height() - 2, src.channels());
      for (int y = 0; y < cut.height(); ++y) {
        for (int x = 0; x < cut.width(); ++x) {
          for (int c = 0; c < cut.channels(); ++c) {
            cut.at(x, y, c) = src.at(x, y, c);
          }
        }
      }
      f.image = std::move(cut);
    }
    ++next_;
    return f;
  }
  std::int64_t total_frames() const override { return end_; }

 private:
  std::shared_ptr<const video::SceneSimulator> sim_;
  std::int64_t next_, end_;
  int period_;
};

struct RunResult {
  std::vector<std::pair<int, std::int64_t>> outputs;  ///< (stream, index) in order
  std::vector<detect::DetectionResult> results;
  /// reference->detect() called directly on each emitted frame, in order.
  std::vector<detect::DetectionResult> oracle;
  InstanceStats stats;
  std::uint64_t drop_hist_count = 0;
  std::uint64_t output_hist_count = 0;
  std::uint64_t ref_batches = 0;
};

RunResult run_window(RefMode mode, int streams, std::int64_t begin,
                     std::int64_t end, bool truncate = false,
                     int ref_batch_size = 6) {
  auto& s = shared_stream();
  FfsVaConfig cfg;
  cfg.ref_mode = mode;
  cfg.ref_batch_size = ref_batch_size;
  if (truncate) cfg.degrade_policy = DegradePolicy::kBypass;
  FfsVaInstance instance(cfg);
  const std::int64_t span = (end - begin) / streams;
  for (int i = 0; i < streams; ++i) {
    if (truncate) {
      instance.add_stream(std::make_unique<TruncatingSource>(
                              s.sim, begin + i * span, begin + (i + 1) * span, 7),
                          s.models);
    } else {
      instance.add_stream(std::make_unique<LiveSource>(
                              s.sim, i, begin + i * span, begin + (i + 1) * span),
                          s.models);
    }
  }
  RunResult r;
  r.stats = instance.run(/*online=*/false);
  for (const auto& ev : instance.outputs()) {
    r.outputs.emplace_back(ev.frame.stream_id, ev.frame.index);
    r.results.push_back(ev.result);
    r.oracle.push_back(s.models.reference->detect(ev.frame.image));
  }
  r.drop_hist_count = instance.metrics().histogram("latency.drop_ms").count();
  r.output_hist_count = instance.metrics().histogram("latency.output_ms").count();
  r.ref_batches = instance.metrics().counter("executor.ref_batches").value();
  return r;
}

/// The paper's one-frame loop: kBatch with one frame per reference call.
RunResult run_one_frame(int streams, std::int64_t begin, std::int64_t end,
                        bool truncate = false) {
  return run_window(RefMode::kBatch, streams, begin, end, truncate,
                    /*ref_batch_size=*/1);
}

/// Each stream's emitted frame indices, in emission order: what the
/// per-stream FIFO contract fixes. How streams interleave is not fixed.
std::map<int, std::vector<std::int64_t>> per_stream(
    const std::vector<std::pair<int, std::int64_t>>& outputs) {
  std::map<int, std::vector<std::int64_t>> seq;
  for (const auto& [stream, index] : outputs) seq[stream].push_back(index);
  return seq;
}

void expect_same_detections(const detect::DetectionResult& got,
                            const detect::DetectionResult& want) {
  ASSERT_EQ(got.detections.size(), want.detections.size());
  for (std::size_t d = 0; d < want.detections.size(); ++d) {
    EXPECT_EQ(got.detections[d].box, want.detections[d].box);
    EXPECT_DOUBLE_EQ(got.detections[d].confidence, want.detections[d].confidence);
  }
}

TEST(RefBatch, BatchedOutputsEqualOneFrameLoopAndPerFrameOracle) {
  const auto one = run_one_frame(2, 700, 1000);
  const auto batched = run_window(RefMode::kBatch, 2, 700, 1000);
  // Every stream emits the same frames in the same order; how the two
  // streams interleave depends on thread timing and may differ between runs.
  ASSERT_EQ(per_stream(batched.outputs), per_stream(one.outputs));
  ASSERT_GT(batched.outputs.size(), 0u);
  // Each run's detections against the oracle on its own emitted frames.
  for (std::size_t i = 0; i < batched.results.size(); ++i) {
    expect_same_detections(batched.results[i], batched.oracle[i]);
  }
  for (std::size_t i = 0; i < one.results.size(); ++i) {
    expect_same_detections(one.results[i], one.oracle[i]);
  }
  EXPECT_GT(batched.ref_batches, 0u);
  // One frame per reference call: one batch per frame the stage evaluated.
  EXPECT_EQ(one.ref_batches, one.stats.aggregate().ref.in);
  EXPECT_LE(batched.ref_batches, one.ref_batches);
}

TEST(RefBatch, PerStreamFifoOrderHolds) {
  const auto r = run_window(RefMode::kBatch, 3, 700, 1000);
  std::map<int, std::int64_t> prev;
  for (const auto& [stream, index] : r.outputs) {
    auto it = prev.find(stream);
    if (it != prev.end()) {
      EXPECT_GT(index, it->second) << "stream " << stream << " reordered";
    }
    prev[stream] = index;
  }
  EXPECT_GT(r.outputs.size(), 0u);
}

TEST(RefBatch, ThrowingFrameIsDroppedAloneInsideBatches) {
  const auto one = run_one_frame(1, 700, 1000, /*truncate=*/true);
  const auto batched = run_window(RefMode::kBatch, 1, 700, 1000, /*truncate=*/true);

  // Truncated frames reach the reference stage and throw there; both batch
  // sizes must drop exactly those frames and emit everything else
  // identically — a batched exception must not take batch-mates down with it.
  EXPECT_EQ(batched.outputs, one.outputs);
  for (const auto& [stream, index] : batched.outputs) {
    EXPECT_NE(index % 7, 0) << "a truncated frame was emitted unvetted";
  }
  for (std::size_t i = 0; i < batched.results.size(); ++i) {
    expect_same_detections(batched.results[i], batched.oracle[i]);
  }
  const auto& st_b = batched.stats.streams[0];
  const auto& st_s = one.stats.streams[0];
  EXPECT_GT(st_b.fault.degraded_frames, 0u);
  EXPECT_EQ(st_b.fault.degraded_frames, st_s.fault.degraded_frames);
  EXPECT_EQ(st_b.ref.in - st_b.ref.passed, st_b.fault.degraded_frames);
  // Conservation: every ingested frame still terminates exactly once.
  EXPECT_EQ(st_b.latency_ms.count, st_b.prefetch.passed);
}

TEST(RefBatch, DroppedFramesFeedDropHistogramNotOutputLatency) {
  const auto r = run_window(RefMode::kBatch, 1, 700, 1000, /*truncate=*/true);
  // Satellite fix: reference-stage drops land in latency.drop_ms, and the
  // output-latency distribution counts exactly the emitted frames.
  EXPECT_EQ(r.drop_hist_count, r.stats.streams[0].fault.degraded_frames);
  EXPECT_GT(r.drop_hist_count, 0u);
  EXPECT_EQ(r.output_hist_count, r.outputs.size());
}

TEST(RefCropPack, EmitsSameFramesAndAgreesWithPerFrameOracle) {
  auto& s = shared_stream();
  const auto one = run_one_frame(2, 1000, 1300);
  const auto packed = run_window(RefMode::kCropPack, 2, 1000, 1300);
  // Every mode emits every frame the reference stage could evaluate, so each
  // stream's emitted sequence matches exactly; what kCropPack may change
  // (bounded by the fallback policy) is the detections, compared below
  // against the oracle on the packed run's own frames.
  ASSERT_EQ(per_stream(packed.outputs), per_stream(one.outputs));
  ASSERT_GT(packed.outputs.size(), 0u);
  const double conf = s.models.reference->config().confidence_threshold;
  int agree = 0;
  for (std::size_t i = 0; i < packed.outputs.size(); ++i) {
    const bool oracle_pass =
        packed.oracle[i].count_target(s.models.target, conf) >= 1;
    const bool packed_pass =
        packed.results[i].count_target(s.models.target, conf) >= 1;
    if (oracle_pass == packed_pass) ++agree;
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(packed.outputs.size());
  EXPECT_GE(agreement, 0.95)
      << "crop-packed pass/fail verdicts diverge from the per-frame oracle";
}

TEST(RefConfig, ModeNamesAndDefaults) {
  EXPECT_STREQ(to_string(RefMode::kBatch), "batch");
  EXPECT_STREQ(to_string(RefMode::kCropPack), "crop_pack");
  FfsVaConfig cfg;
  EXPECT_EQ(cfg.ref_mode, RefMode::kBatch);
  EXPECT_GE(cfg.ref_batch_size, 1);
  EXPECT_GE(cfg.ref_queue_depth, cfg.ref_batch_size);
}

}  // namespace
}  // namespace ffsva::core
