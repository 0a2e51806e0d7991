// Baseline (YOLOv2-only) simulator: capacity arithmetic and conservation.
#include <gtest/gtest.h>

#include "sim/ffsva_sim.hpp"

namespace ffsva::sim {
namespace {

SimSetup setup(int streams, bool online, std::int64_t frames = 2000) {
  SimSetup s;
  s.num_streams = streams;
  s.online = online;
  s.duration_sec = 40.0;
  s.frames_per_stream = online ? 100000 : frames;
  s.make_outcomes = [](int i) {
    return std::make_unique<MarkovOutcomes>(MarkovParams::for_tor(0.2),
                                            900u + static_cast<unsigned>(i));
  };
  return s;
}

TEST(BaselineSim, OfflineProcessesEveryFrame) {
  const auto r = simulate_baseline(setup(3, false, 1000));
  EXPECT_EQ(r.total.prefetch.passed, 3000u);
  EXPECT_EQ(r.total.ref.passed, 3000u);
  EXPECT_EQ(r.total.dropped_at_ingest, 0u);
  EXPECT_EQ(static_cast<std::int64_t>(r.output_latency_ms.count), 3000);
}

TEST(BaselineSim, ThroughputIndependentOfTor) {
  // The baseline runs every frame through YOLOv2: filtering-irrelevant.
  auto low = setup(1, false);
  auto high = setup(1, false);
  high.make_outcomes = [](int i) {
    return std::make_unique<MarkovOutcomes>(MarkovParams::for_tor(1.0),
                                            700u + static_cast<unsigned>(i));
  };
  const auto rl = simulate_baseline(low);
  const auto rh = simulate_baseline(high);
  EXPECT_NEAR(rl.throughput_fps, rh.throughput_fps, 2.0);
}

TEST(BaselineSim, TwoGpusDoubleOneGpuThroughput) {
  auto one = setup(4, false);
  // Halve capacity by doubling the per-frame cost instead of changing the
  // topology (the GPU count is fixed at two in the baseline model).
  auto slow = setup(4, false);
  slow.costs.ref.per_frame_us *= 2.0;
  const auto fast_r = simulate_baseline(one);
  const auto slow_r = simulate_baseline(slow);
  EXPECT_NEAR(fast_r.throughput_fps / slow_r.throughput_fps, 2.0, 0.15);
}

TEST(BaselineSim, OnlineDropsScaleWithOversubscription) {
  const auto r4 = simulate_baseline(setup(4, true));
  const auto r8 = simulate_baseline(setup(8, true));
  const auto r16 = simulate_baseline(setup(16, true));
  EXPECT_LE(r4.drop_rate, 0.01);
  EXPECT_GT(r8.drop_rate, 0.3);
  EXPECT_GT(r16.drop_rate, r8.drop_rate);
  // Served throughput saturates at the 2-GPU service rate (~122 FPS).
  EXPECT_NEAR(r8.throughput_fps, r16.throughput_fps, 5.0);
}

TEST(BaselineSim, LatencyBoundedByQueueWhenOverloaded) {
  const auto r = simulate_baseline(setup(12, true));
  // The shared queue holds 8 frames; waiting time is bounded by
  // queue / service-rate, so p99 stays near 8 * 16.4ms + service.
  EXPECT_LT(r.output_latency_ms.p99(), 400.0);
}

}  // namespace
}  // namespace ffsva::sim
