// Feedback-queue behaviour of the threaded engine: bounded queues must keep
// the number of frames in flight bounded (the paper's memory claim) and the
// pipeline must stay correct when a downstream stage is made artificially
// slow (backpressure engages instead of frames piling up or vanishing).
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(Backpressure, InFlightPopulationIsBoundedByQueueBudget) {
  auto& s = slow_stream();
  FfsVaConfig cfg;
  cfg.batch_policy = BatchPolicy::kDynamic;

  // Replayed frames cost nothing to ingest, so prefetch outruns SDD and
  // every queue fills to its bound.
  auto window = std::make_shared<std::vector<video::Frame>>();
  for (std::int64_t i = 500; i < 900; ++i) window->push_back(s.sim->render(i));
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<video::ReplaySource>(window, 0), s.models);

  // Sample the in-flight population (ingested, not yet terminated) from a
  // second thread while running. prefetch.in is read before terminated, so
  // a sample never over-counts.
  std::atomic<bool> done{false};
  std::int64_t max_in_flight = 0;
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto ss = instance.snapshot();
      if (!ss.streams.empty()) {
        const auto& st = ss.streams[0];
        max_in_flight = std::max(max_in_flight,
                                 static_cast<std::int64_t>(st.prefetch.in) -
                                     static_cast<std::int64_t>(st.terminated));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  const auto stats = instance.run(/*online=*/false);
  done.store(true, std::memory_order_release);
  sampler.join();

  // The budget: every queue's capacity, one frame held by each of the
  // prefetch thread, the SDD worker and GPU0's T-YOLO service, one SNM
  // batch and one reference batch.
  const QueuePlan plan = queue_plan(cfg, /*online=*/false);
  const auto budget =
      static_cast<std::int64_t>(plan.sdd + plan.snm + plan.tyolo + plan.ref) + 3 +
      cfg.batch_size + cfg.ref_batch_size;
  EXPECT_LE(max_in_flight, budget);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.passed, 400u);
  EXPECT_EQ(st.latency_ms.count, 400u);
}

TEST(Backpressure, TinyQueuesStillProcessEverything) {
  auto& s = slow_stream();
  FfsVaConfig cfg;
  cfg.batch_policy = BatchPolicy::kFeedback;
  cfg.sdd_queue_depth = 1;
  cfg.snm_queue_depth = 2;
  cfg.tyolo_queue_depth = 1;
  cfg.ref_queue_depth = 1;
  cfg.batch_size = 4;  // larger than the SNM queue: the feedback cap binds
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<video::LiveSource>(s.sim, 0, 500, 700),
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
  instance.add_stream(std::make_unique<video::LiveSource>(s.sim, 0, 500, 650),
                      s.models);
  const auto stats = instance.run(false);
  EXPECT_EQ(stats.streams[0].latency_ms.count, 150u)
      << "the final partial batch must flush on close";
}

}  // namespace
}  // namespace ffsva::core
