#include "core/policies.hpp"

#include <gtest/gtest.h>

namespace ffsva::core {
namespace {

// --------------------------------------------------------- DynamicBatcher --

TEST(DynamicBatcher, DynamicTakesWhateverIsAvailable) {
  DynamicBatcher b(BatchPolicy::kDynamic, 16, 10);
  EXPECT_EQ(b.next_batch(1, false).take, 1);
  EXPECT_EQ(b.next_batch(7, false).take, 7);
  EXPECT_EQ(b.next_batch(30, false).take, 16);  // capped at BatchSize
  EXPECT_FALSE(b.next_batch(1, false).wait);
  EXPECT_EQ(b.wait_target(), 1);
}

TEST(DynamicBatcher, DynamicWaitsOnlyWhenEmpty) {
  DynamicBatcher b(BatchPolicy::kDynamic, 16, 10);
  const auto d = b.next_batch(0, false);
  EXPECT_TRUE(d.wait);
  EXPECT_EQ(d.take, 0);
  EXPECT_FALSE(b.next_batch(0, true).wait);  // ended stream: stop
}

TEST(StaticBatcher, WaitsForFullBatch) {
  DynamicBatcher b(BatchPolicy::kStatic, 8, 10);
  EXPECT_EQ(b.wait_target(), 8);
  EXPECT_TRUE(b.next_batch(7, false).wait);
  EXPECT_EQ(b.next_batch(8, false).take, 8);
  EXPECT_EQ(b.next_batch(20, false).take, 8);
}

TEST(StaticBatcher, DrainsShortOnStreamEnd) {
  DynamicBatcher b(BatchPolicy::kStatic, 8, 10);
  const auto d = b.next_batch(3, true);
  EXPECT_FALSE(d.wait);
  EXPECT_EQ(d.take, 3);
}

TEST(FeedbackBatcher, TargetCappedByQueueThreshold) {
  // "When the batch size is greater than the queue depth threshold, video
  // frames have to wait" — the feedback batch can never exceed the
  // threshold (Section 4.3.2).
  DynamicBatcher b(BatchPolicy::kFeedback, 30, 10);
  EXPECT_TRUE(b.next_batch(9, false).wait);
  EXPECT_EQ(b.next_batch(10, false).take, 10);
  DynamicBatcher small(BatchPolicy::kFeedback, 4, 10);
  EXPECT_EQ(small.next_batch(10, false).take, 4);
  EXPECT_EQ(b.wait_target(), 10);
  EXPECT_EQ(small.wait_target(), 4);
}

TEST(Batcher, DegenerateSizesClamped) {
  DynamicBatcher b(BatchPolicy::kDynamic, 0, 0);
  EXPECT_EQ(b.batch_size(), 1);
  EXPECT_EQ(b.next_batch(5, false).take, 1);
}

// -------------------------------------------------------- TYoloScheduler --

TEST(TYoloScheduler, RoundRobinSkipsEmptyQueues) {
  TYoloScheduler sched(4);
  std::vector<int> depths{0, 3, 0, 5};
  auto p1 = sched.next(depths);
  EXPECT_EQ(p1.stream, 1);
  EXPECT_EQ(p1.take, 3);
  auto p2 = sched.next(depths);
  EXPECT_EQ(p2.stream, 3);
  auto p3 = sched.next(depths);
  EXPECT_EQ(p3.stream, 1);  // wraps around
}

TEST(TYoloScheduler, ExtractionCapIsNumTyolo) {
  TYoloScheduler sched(4);
  std::vector<int> depths{9};
  EXPECT_EQ(sched.next(depths).take, 4);
  depths[0] = 2;
  EXPECT_EQ(sched.next(depths).take, 2);
}

TEST(TYoloScheduler, AllEmptyReturnsNoStream) {
  TYoloScheduler sched(2);
  std::vector<int> depths{0, 0, 0};
  EXPECT_EQ(sched.next(depths).stream, -1);
}

TEST(TYoloScheduler, FairnessOverManyCycles) {
  // With all queues persistently non-empty, service counts stay balanced.
  TYoloScheduler sched(2);
  std::vector<int> depths{5, 5, 5, 5};
  std::vector<int> served(4, 0);
  for (int i = 0; i < 400; ++i) {
    const auto p = sched.next(depths);
    ASSERT_GE(p.stream, 0);
    ++served[static_cast<std::size_t>(p.stream)];
  }
  for (int s : served) EXPECT_EQ(s, 100);
}

TEST(TYoloScheduler, StarvationFreeWhenOneStreamDominates) {
  TYoloScheduler sched(2);
  std::vector<int> depths{100, 1, 100, 1};
  std::vector<int> served(4, 0);
  for (int i = 0; i < 40; ++i) {
    const auto p = sched.next(depths);
    ++served[static_cast<std::size_t>(p.stream)];
  }
  // Every stream gets service despite the imbalance.
  for (int s : served) EXPECT_GT(s, 0);
}

// --------------------------------------------------- AdmissionController --

TEST(AdmissionController, SpareCapacityNeedsAFullQuietWindow) {
  AdmissionController adm(140.0, 5.0);
  adm.on_tyolo_served(0.0, 10);
  // Only 1 second of history: not enough evidence yet.
  EXPECT_FALSE(adm.has_spare_capacity(1.0));
  adm.on_tyolo_served(5.0, 10);
  // 5+ seconds of history at ~4 fps: spare.
  EXPECT_TRUE(adm.has_spare_capacity(5.2));
}

TEST(AdmissionController, BusyServiceBlocksAdmission) {
  AdmissionController adm(140.0, 5.0);
  for (int t = 0; t <= 50; ++t) {
    adm.on_tyolo_served(t * 0.1, 20);  // 200 fps
  }
  EXPECT_FALSE(adm.has_spare_capacity(5.0));
  EXPECT_GT(adm.windowed_fps(5.0), 140.0);
}

TEST(AdmissionController, WindowForgetsOldSamples) {
  AdmissionController adm(140.0, 5.0);
  for (int t = 0; t <= 50; ++t) adm.on_tyolo_served(t * 0.1, 30);
  // 30 s later the busy burst has aged out entirely.
  EXPECT_NEAR(adm.windowed_fps(35.0), 0.0, 1e-9);
}

TEST(AdmissionController, OverloadSignalDecays) {
  AdmissionController adm(140.0, 5.0);
  EXPECT_FALSE(adm.overloaded(0.0));
  adm.on_queue_over_threshold(10.0);
  EXPECT_TRUE(adm.overloaded(10.5));
  EXPECT_FALSE(adm.overloaded(11.5));
}

}  // namespace
}  // namespace ffsva::core
