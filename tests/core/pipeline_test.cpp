// Threaded four-stage pipeline: end-to-end integration tests.
//
// These run the real FfsVaInstance (threads + bounded queues + the global
// T-YOLO service + reference model) on small synthetic streams and verify
// conservation (every ingested frame terminates exactly once), agreement
// with the sequentially-applied cascade, multi-stream operation, the
// offline/online modes, and the YOLOv2 baseline harness.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/trace.hpp"
#include "detect/fault_hook.hpp"
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

/// One specialized small stream, reused across tests (training is slow).
TestStream make_stream(std::uint64_t seed, double tor) {
  TestStream t;
  t.cfg = video::jackson_profile();
  t.cfg.width = 128;
  t.cfg.height = 96;
  t.cfg.tor = tor;
  t.sim = std::make_shared<video::SceneSimulator>(t.cfg, seed, 1400);
  std::vector<video::Frame> calib;
  for (int i = 0; i < 700; ++i) calib.push_back(t.sim->render(i));
  detect::SpecializeConfig sc;
  sc.target = t.cfg.target;
  sc.snm.epochs = 5;
  t.models = detect::specialize_stream(calib, sc, seed);
  return t;
}

TestStream& shared_stream() {
  static auto* s = new TestStream(make_stream(91, 0.35));
  return *s;
}

TEST(Pipeline, OfflineConservesFrames) {
  auto& s = shared_stream();
  FfsVaConfig cfg;
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, 700, 1000), s.models);
  const auto stats = instance.run(/*online=*/false);

  ASSERT_EQ(stats.streams.size(), 1u);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.in, 300u);
  EXPECT_EQ(st.prefetch.passed, 300u);
  EXPECT_EQ(st.dropped_at_ingest, 0u);
  // Conservation through the cascade.
  EXPECT_EQ(st.sdd.in, 300u);
  EXPECT_EQ(st.snm.in, st.sdd.passed);
  EXPECT_EQ(st.tyolo.in, st.snm.passed);
  EXPECT_EQ(st.ref.in, st.tyolo.passed);
  EXPECT_EQ(st.ref.passed, st.ref.in);
  // Every frame terminated exactly once (latency recorded for each).
  EXPECT_EQ(st.latency_ms.count, 300u);
  EXPECT_EQ(instance.outputs().size(), static_cast<std::size_t>(st.ref.passed));
}

TEST(Pipeline, MatchesSequentialCascade) {
  auto& s = shared_stream();
  // Sequential ground truth over the same window.
  std::set<std::int64_t> expected;
  for (std::int64_t i = 1000; i < 1200; ++i) {
    const auto f = s.sim->render(i);
    bool alive = s.models.sdd->pass(f.image);
    if (alive) alive = s.models.snm->pass(f.image);
    if (alive) alive = s.models.tyolo->pass(f.image, s.models.target, 1);
    if (alive) expected.insert(i);
  }

  FfsVaConfig cfg;
  cfg.number_of_objects = 1;
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, 1000, 1200), s.models);
  instance.run(false);

  std::set<std::int64_t> got;
  for (const auto& ev : instance.outputs()) got.insert(ev.frame.index);
  EXPECT_EQ(got, expected);
}

// SDD workers prepare each surviving frame's GPU0 inputs; a frame degraded
// at SDD under kBypass reaches GPU0 unprepared and is prepared there. With
// every third SDD call throwing, every frame still ends once and gets the
// sequential cascade's verdict (a degraded frame skips SDD only), and the
// SNM and T-YOLO hooks fire once per GPU0 call: preparation fires none.
TEST(Pipeline, UnpreparedBypassFramesKeepTheirVerdicts) {
  auto& s = shared_stream();
  constexpr std::int64_t kBegin = 1000, kEnd = 1200, kPeriod = 3;
  // One stream's SDD calls run in frame order, so call i serves frame
  // kBegin + i, and the hook throws at every call i with i % kPeriod == 0.
  const auto degraded = [](std::int64_t i) { return (i - kBegin) % kPeriod == 0; };
  std::set<std::int64_t> expected;
  for (std::int64_t i = kBegin; i < kEnd; ++i) {
    const auto f = s.sim->render(i);
    bool alive = degraded(i) || s.models.sdd->pass(f.image);
    if (alive) alive = s.models.snm->pass(f.image);
    if (alive) alive = s.models.tyolo->pass(f.image, s.models.target, 1);
    if (alive) expected.insert(i);
  }

  detect::FaultHook hook({detect::ModelFaultSpec{
      detect::FaultStage::kSdd, detect::ModelFaultSpec::Kind::kThrow,
      /*offset=*/0, /*period=*/kPeriod, /*max_triggers=*/1'000'000}});
  hook.install();
  FfsVaConfig cfg;
  cfg.number_of_objects = 1;
  cfg.degrade_policy = DegradePolicy::kBypass;
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, kBegin, kEnd), s.models);
  const auto stats = instance.run(/*online=*/false);
  detect::FaultHook::uninstall();

  const auto& st = stats.streams[0];
  const auto frames = static_cast<std::uint64_t>(kEnd - kBegin);
  EXPECT_EQ(st.prefetch.passed, frames);
  EXPECT_EQ(st.latency_ms.count, frames);
  EXPECT_EQ(st.sdd.in, frames);
  EXPECT_EQ(st.snm.in, st.sdd.passed);
  EXPECT_EQ(st.tyolo.in, st.snm.passed);
  EXPECT_EQ(st.ref.in, st.tyolo.passed);
  EXPECT_EQ(st.fault.degraded_frames, (frames + kPeriod - 1) / kPeriod);

  std::set<std::int64_t> got;
  for (const auto& ev : instance.outputs()) got.insert(ev.frame.index);
  EXPECT_EQ(got, expected);

  const auto metrics = instance.metrics().snapshot();
  EXPECT_EQ(hook.calls(detect::FaultStage::kSdd), static_cast<std::int64_t>(frames));
  EXPECT_EQ(hook.calls(detect::FaultStage::kSnm),
            static_cast<std::int64_t>(metrics.counter_or("executor.snm_batches")));
  EXPECT_EQ(hook.calls(detect::FaultStage::kTyolo),
            static_cast<std::int64_t>(st.tyolo.in));
}

TEST(Pipeline, OutputSinkReceivesEvents) {
  auto& s = shared_stream();
  FfsVaInstance instance(FfsVaConfig{});
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, 700, 900), s.models);
  std::atomic<int> events{0};
  instance.set_output_sink([&](const OutputEvent& ev) {
    EXPECT_GE(ev.latency_ms, 0.0);
    EXPECT_FALSE(ev.result.detections.empty());
    events.fetch_add(1);
  });
  instance.run(false);
  EXPECT_TRUE(instance.outputs().empty());
  EXPECT_GT(events.load(), 0);
}

TEST(Pipeline, MultiStreamKeepsStreamsSeparate) {
  auto& s = shared_stream();
  FfsVaConfig cfg;
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, 700, 850), s.models);
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 1, 850, 1000), s.models);
  const auto stats = instance.run(false);
  ASSERT_EQ(stats.streams.size(), 2u);
  EXPECT_EQ(stats.streams[0].prefetch.in, 150u);
  EXPECT_EQ(stats.streams[1].prefetch.in, 150u);
  for (const auto& ev : instance.outputs()) {
    if (ev.frame.stream_id == 0) {
      EXPECT_LT(ev.frame.index, 850);
    } else {
      EXPECT_GE(ev.frame.index, 850);
    }
  }
  const auto agg = stats.aggregate();
  EXPECT_EQ(agg.prefetch.in, 300u);
  EXPECT_EQ(agg.latency_ms.count, 300u);
}

TEST(Pipeline, BatchPoliciesProduceSameSurvivors) {
  auto& s = shared_stream();
  std::set<std::int64_t> outputs_by_policy[3];
  for (BatchPolicy p : {BatchPolicy::kStatic, BatchPolicy::kFeedback,
                        BatchPolicy::kDynamic}) {
    FfsVaConfig cfg;
    cfg.batch_policy = p;
    cfg.batch_size = 8;
    FfsVaInstance instance(cfg);
    instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, 700, 950), s.models);
    instance.run(false);
    for (const auto& ev : instance.outputs()) {
      outputs_by_policy[static_cast<int>(p)].insert(ev.frame.index);
    }
  }
  EXPECT_EQ(outputs_by_policy[0], outputs_by_policy[1]);
  EXPECT_EQ(outputs_by_policy[1], outputs_by_policy[2]);
}

TEST(Pipeline, OnlineModeSustainsRealtimeOnOneStream) {
  auto& s = shared_stream();
  FfsVaConfig cfg;
  cfg.online_fps = 120.0;  // speed the wall-clock test up
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, 700, 940), s.models);
  const auto stats = instance.run(/*online=*/true);
  const auto& st = stats.streams[0];
  // One lightweight stream must not overload a whole host.
  EXPECT_LT(static_cast<double>(st.dropped_at_ingest) / 240.0, 0.05);
  EXPECT_GT(st.ingest_fps, 60.0);
}

TEST(Pipeline, PerStreamFifoOrderingOfOutputs) {
  auto& s = shared_stream();
  FfsVaInstance instance(FfsVaConfig{});
  instance.add_stream(std::make_unique<LiveSource>(s.sim, 0, 700, 1000), s.models);
  instance.run(false);
  std::int64_t prev = -1;
  for (const auto& ev : instance.outputs()) {
    EXPECT_GT(ev.frame.index, prev) << "outputs must preserve stream order";
    prev = ev.frame.index;
  }
}

TEST(QueuePlan, EveryPolicyInBothModes) {
  // Paper Section 4.3.1 thresholds {2, 10, 2}, the reference queue's 64,
  // 4096 ("effectively unbounded") under static batching, and online the
  // 128-frame live-capture ring in front of SDD under every policy.
  struct Row {
    BatchPolicy policy;
    bool online;
    QueuePlan want;
  };
  const Row rows[] = {
      {BatchPolicy::kStatic, false, {4096, 4096, 4096, 4096}},
      {BatchPolicy::kStatic, true, {128, 4096, 4096, 4096}},
      {BatchPolicy::kFeedback, false, {2, 10, 2, 64}},
      {BatchPolicy::kFeedback, true, {128, 10, 2, 64}},
      {BatchPolicy::kDynamic, false, {2, 10, 2, 64}},
      {BatchPolicy::kDynamic, true, {128, 10, 2, 64}},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(std::string(to_string(r.policy)) + (r.online ? " online" : ""));
    FfsVaConfig cfg;
    cfg.batch_policy = r.policy;
    const QueuePlan p = queue_plan(cfg, r.online);
    EXPECT_EQ(p.sdd, r.want.sdd);
    EXPECT_EQ(p.snm, r.want.snm);
    EXPECT_EQ(p.tyolo, r.want.tyolo);
    EXPECT_EQ(p.ref, r.want.ref);
  }
}

TEST(QueuePlan, ThresholdsComeFromTheConfig) {
  FfsVaConfig cfg;
  cfg.sdd_queue_depth = 1;
  cfg.snm_queue_depth = 3;
  cfg.tyolo_queue_depth = 5;
  cfg.ref_queue_depth = 7;
  const QueuePlan p = queue_plan(cfg, /*online=*/false);
  EXPECT_EQ(p.sdd, 1u);
  EXPECT_EQ(p.snm, 3u);
  EXPECT_EQ(p.tyolo, 5u);
  EXPECT_EQ(p.ref, 7u);
  EXPECT_EQ(queue_plan(cfg, /*online=*/true).sdd, 128u);
}

TEST(Config, BatchPolicyNames) {
  EXPECT_STREQ(to_string(BatchPolicy::kStatic), "static");
  EXPECT_STREQ(to_string(BatchPolicy::kFeedback), "feedback");
  EXPECT_STREQ(to_string(BatchPolicy::kDynamic), "dynamic");
}

}  // namespace
}  // namespace ffsva::core
