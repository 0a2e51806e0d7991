// Feedback-queue behaviour of the threaded engine: bounded queues must keep
// the number of frames in flight bounded (the paper's memory claim) and the
// pipeline must stay correct when a downstream stage is made artificially
// slow (backpressure engages instead of frames piling up or vanishing).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/pipeline.hpp"
#include "video/profiles.hpp"
#include "video/source.hpp"

namespace ffsva::core {
namespace {

struct SlowStream {
  video::SceneConfig cfg;
  std::shared_ptr<video::SceneSimulator> sim;
  detect::StreamModels models;

  SlowStream() {
    cfg = video::jackson_profile();
    cfg.width = 96;
    cfg.height = 72;
    cfg.tor = 0.5;  // busy: most frames reach the deep stages
    sim = std::make_shared<video::SceneSimulator>(cfg, 17, 900);
    std::vector<video::Frame> calib;
    for (int i = 0; i < 500; ++i) calib.push_back(sim->render(i));
    detect::SpecializeConfig sc;
    sc.target = cfg.target;
    sc.snm.epochs = 3;
    models = detect::specialize_stream(calib, sc, 17);
  }
};

SlowStream& slow_stream() {
  static auto* s = new SlowStream();
  return *s;
}

/// Counts how many frames it has handed out and how many came back via the
/// sink — the difference is the in-flight population.
class CountingSource final : public video::FrameSource {
 public:
  CountingSource(std::shared_ptr<const video::SceneSimulator> sim, std::int64_t begin,
                 std::int64_t end, std::atomic<std::int64_t>& out_counter)
      : sim_(std::move(sim)), next_(begin), end_(end), emitted_(out_counter) {}

  std::optional<video::Frame> next() override {
    if (next_ >= end_) return std::nullopt;
    emitted_.fetch_add(1, std::memory_order_relaxed);
    return sim_->render(next_++);
  }
  std::int64_t total_frames() const override { return end_; }

 private:
  std::shared_ptr<const video::SceneSimulator> sim_;
  std::int64_t next_, end_;
  std::atomic<std::int64_t>& emitted_;
};

TEST(Backpressure, InFlightPopulationIsBoundedByQueueBudget) {
  auto& s = slow_stream();
  FfsVaConfig cfg;
  cfg.batch_policy = BatchPolicy::kDynamic;

  std::atomic<std::int64_t> emitted{0};
  std::atomic<std::int64_t> terminated{0};
  std::atomic<std::int64_t> max_in_flight{0};

  FfsVaInstance instance(cfg);
  instance.add_stream(
      std::make_unique<CountingSource>(s.sim, 500, 900, emitted), s.models);
  instance.set_output_sink([&](const OutputEvent&) {
    terminated.fetch_add(1, std::memory_order_relaxed);
  });

  // Watch the in-flight population from a sampler thread while running.
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto in_flight = emitted.load() - terminated.load();
      std::int64_t prev = max_in_flight.load();
      while (in_flight > prev &&
             !max_in_flight.compare_exchange_weak(prev, in_flight)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  const auto stats = instance.run(/*online=*/false);
  done.store(true, std::memory_order_release);
  sampler.join();

  // The budget: every queue's capacity plus one frame per stage thread plus
  // one SNM batch. The sink only counts outputs, so add the filtered count.
  const auto& st = stats.streams[0];
  const std::int64_t filtered = static_cast<std::int64_t>(
      st.prefetch.passed - st.ref.passed);
  const std::int64_t budget = cfg.ingest_buffer + cfg.snm_queue_depth +
                              cfg.tyolo_queue_depth + cfg.ref_queue_depth +
                              cfg.batch_size + 8 + filtered;
  EXPECT_LE(max_in_flight.load(), budget);
  EXPECT_EQ(st.prefetch.passed, 400u);
  EXPECT_EQ(st.latency_ms.count, 400u);
}

TEST(Backpressure, TinyQueuesStillProcessEverything) {
  auto& s = slow_stream();
  FfsVaConfig cfg;
  cfg.batch_policy = BatchPolicy::kFeedback;
  cfg.ingest_buffer = 1;
  cfg.sdd_queue_depth = 1;
  cfg.snm_queue_depth = 2;
  cfg.tyolo_queue_depth = 1;
  cfg.ref_queue_depth = 1;
  cfg.batch_size = 4;  // larger than the SNM queue: the feedback cap binds
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<CountingSource>(
                          s.sim, 500, 700, *new std::atomic<std::int64_t>{0}),
                      s.models);
  const auto stats = instance.run(false);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.passed, 200u);
  EXPECT_EQ(st.latency_ms.count, 200u);  // nothing lost, nothing stuck
}

TEST(Backpressure, StaticPolicyDrainsPartialFinalBatch) {
  auto& s = slow_stream();
  FfsVaConfig cfg;
  cfg.batch_policy = BatchPolicy::kStatic;
  cfg.batch_size = 64;  // stream length is not a multiple of this
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<CountingSource>(
                          s.sim, 500, 650, *new std::atomic<std::int64_t>{0}),
                      s.models);
  const auto stats = instance.run(false);
  EXPECT_EQ(stats.streams[0].latency_ms.count, 150u)
      << "the final partial batch must flush on close";
}

}  // namespace
}  // namespace ffsva::core
