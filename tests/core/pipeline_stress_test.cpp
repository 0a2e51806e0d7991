// Multi-stream stress of the threaded engine: 32+ streams through the SDD
// worker pool and the single GPU0 executor. Asserts per-stage frame
// conservation (in == passed + filtered, stage-to-stage handoff counts
// match), per-stream FIFO output ordering, and clean shutdown (run()
// returns with every queue drained). This test carries the `tsan` ctest
// label and is the primary ThreadSanitizer workout for the engine.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <vector>

#include "core/pipeline.hpp"
#include "video/profiles.hpp"
#include "video/source.hpp"

namespace ffsva::core {
namespace {

using video::ReplaySource;

struct StressWorld {
  video::SceneConfig cfg;
  detect::StreamModels models;
  ReplaySource::Window window;  ///< Pre-rendered eval frames.

  StressWorld() {
    cfg = video::jackson_profile();
    cfg.width = 96;
    cfg.height = 72;
    cfg.tor = 0.4;  // busy: a healthy share of frames reaches the deep stages
    video::SceneSimulator sim(cfg, 23, 460);
    std::vector<video::Frame> calib;
    for (int i = 0; i < 400; ++i) calib.push_back(sim.render(i));
    detect::SpecializeConfig sc;
    sc.target = cfg.target;
    sc.snm.epochs = 3;
    models = detect::specialize_stream(calib, sc, 23);
    std::vector<video::Frame> frames;
    for (int i = 400; i < 460; ++i) frames.push_back(sim.render(i));
    window = std::make_shared<const std::vector<video::Frame>>(std::move(frames));
  }
};

StressWorld& world() {
  static auto* w = new StressWorld();
  return *w;
}

TEST(PipelineStress, ManyStreamsConserveOrderAndShutDownCleanly) {
  auto& w = world();
  constexpr int kStreams = 32;
  const auto frames = static_cast<std::uint64_t>(w.window->size());

  FfsVaConfig cfg;
  cfg.batch_policy = BatchPolicy::kDynamic;
  FfsVaInstance instance(cfg);
  for (int s = 0; s < kStreams; ++s) {
    instance.add_stream(std::make_unique<ReplaySource>(w.window, s), w.models);
  }

  std::mutex mu;
  std::map<int, std::vector<std::int64_t>> outputs_by_stream;
  instance.set_output_sink([&](const OutputEvent& ev) {
    std::lock_guard lk(mu);
    outputs_by_stream[ev.frame.stream_id].push_back(ev.frame.index);
  });

  const auto stats = instance.run(/*online=*/false);

  ASSERT_EQ(stats.streams.size(), static_cast<std::size_t>(kStreams));
  for (int s = 0; s < kStreams; ++s) {
    const auto& st = stats.streams[static_cast<std::size_t>(s)];
    // Per-stage conservation: every frame a stage admits either passes to
    // the next stage or terminates (is filtered) — nothing is lost or
    // double-counted anywhere in the cascade.
    EXPECT_EQ(st.prefetch.in, frames) << "stream " << s;
    EXPECT_EQ(st.prefetch.passed, frames) << "stream " << s;
    EXPECT_EQ(st.dropped_at_ingest, 0u) << "stream " << s;
    EXPECT_EQ(st.sdd.in, st.prefetch.passed) << "stream " << s;
    EXPECT_EQ(st.snm.in, st.sdd.passed) << "stream " << s;
    EXPECT_EQ(st.tyolo.in, st.snm.passed) << "stream " << s;
    EXPECT_EQ(st.ref.in, st.tyolo.passed) << "stream " << s;
    EXPECT_EQ(st.ref.passed, st.ref.in) << "stream " << s;
    // Terminal accounting: in == passed + filtered at every stage implies
    // exactly one latency sample per ingested frame.
    EXPECT_EQ(st.latency_ms.count, frames) << "stream " << s;
  }
  const auto agg = stats.aggregate();
  EXPECT_EQ(agg.prefetch.passed, frames * kStreams);
  EXPECT_EQ(agg.latency_ms.count, frames * kStreams);

  // Per-stream FIFO: each stream's survivors arrive in frame order.
  std::lock_guard lk(mu);
  std::uint64_t survivors = 0;
  for (const auto& [stream_id, indices] : outputs_by_stream) {
    survivors += indices.size();
    for (std::size_t i = 1; i < indices.size(); ++i) {
      EXPECT_LT(indices[i - 1], indices[i]) << "stream " << stream_id;
    }
  }
  EXPECT_EQ(survivors, agg.ref.passed);
  // Identical streams must produce identical survivor sets.
  if (!outputs_by_stream.empty()) {
    const auto& first = outputs_by_stream.begin()->second;
    for (const auto& [stream_id, indices] : outputs_by_stream) {
      EXPECT_EQ(indices, first) << "stream " << stream_id;
    }
  }
}

// The worker pool must stay fixed-size: a run with a single SDD worker and
// many streams still conserves every frame (no starvation, no deadlock).
TEST(PipelineStress, SingleWorkerServesManyStreams) {
  auto& w = world();
  constexpr int kStreams = 12;
  const auto frames = static_cast<std::uint64_t>(w.window->size());

  FfsVaConfig cfg;
  cfg.sdd_workers = 1;
  cfg.sdd_run_length = 4;  // force frequent rescans across streams
  FfsVaInstance instance(cfg);
  for (int s = 0; s < kStreams; ++s) {
    instance.add_stream(std::make_unique<ReplaySource>(w.window, s), w.models);
  }
  instance.set_output_sink([](const OutputEvent&) {});
  const auto stats = instance.run(false);
  const auto agg = stats.aggregate();
  EXPECT_EQ(agg.prefetch.passed, frames * kStreams);
  EXPECT_EQ(agg.latency_ms.count, frames * kStreams);
}

// Every batch policy survives the multi-stream executor with full
// conservation (static must drain partial final batches per stream).
TEST(PipelineStress, AllBatchPoliciesConserveAcrossStreams) {
  auto& w = world();
  constexpr int kStreams = 8;
  const auto frames = static_cast<std::uint64_t>(w.window->size());
  for (BatchPolicy p : {BatchPolicy::kStatic, BatchPolicy::kFeedback,
                        BatchPolicy::kDynamic}) {
    FfsVaConfig cfg;
    cfg.batch_policy = p;
    cfg.batch_size = 16;  // does not divide 60: final partial batch matters
    FfsVaInstance instance(cfg);
    for (int s = 0; s < kStreams; ++s) {
      instance.add_stream(std::make_unique<ReplaySource>(w.window, s), w.models);
    }
    instance.set_output_sink([](const OutputEvent&) {});
    const auto stats = instance.run(false);
    const auto agg = stats.aggregate();
    EXPECT_EQ(agg.prefetch.passed, frames * kStreams) << to_string(p);
    EXPECT_EQ(agg.latency_ms.count, frames * kStreams) << to_string(p);
  }
}

}  // namespace
}  // namespace ffsva::core
