// Simulated FFS-VA instance: conservation, policy behaviour, and the
// paper's headline relationships as invariants over the calibrated model.
#include "sim/ffsva_sim.hpp"

#include <gtest/gtest.h>

namespace ffsva::sim {
namespace {

SimSetup setup_for(double tor, int streams, bool online,
                   core::BatchPolicy policy = core::BatchPolicy::kFeedback,
                   std::int64_t frames = 3000) {
  SimSetup s;
  s.config.batch_policy = policy;
  s.num_streams = streams;
  s.online = online;
  s.duration_sec = 60.0;
  s.frames_per_stream = online ? 100000 : frames;
  s.make_outcomes = [tor](int i) {
    return std::make_unique<MarkovOutcomes>(MarkovParams::for_tor(tor),
                                            1000 + static_cast<unsigned>(i));
  };
  return s;
}

void check_conservation(const SimResult& r) {
  for (const auto& s : r.streams) {
    EXPECT_EQ(s.sdd.in, s.prefetch.passed);
    EXPECT_EQ(s.snm.in, s.sdd.passed);
    EXPECT_EQ(s.tyolo.in, s.snm.passed);
    EXPECT_EQ(s.ref.in, s.tyolo.passed);
    EXPECT_EQ(s.ref.passed, s.ref.in);
  }
  // Every ingested frame terminated: filtered or output.
  EXPECT_EQ(r.terminal_latency_ms.count, r.total.prefetch.passed);
}

TEST(FfsVaSim, OfflineConservesFrames) {
  const auto r = simulate_ffsva(setup_for(0.2, 1, false));
  EXPECT_EQ(r.total.prefetch.passed, 3000u);
  EXPECT_EQ(r.total.dropped_at_ingest, 0u);
  check_conservation(r);
}

TEST(FfsVaSim, MultiStreamOfflineConserves) {
  const auto r = simulate_ffsva(setup_for(0.2, 4, false,
                                          core::BatchPolicy::kDynamic, 1500));
  EXPECT_EQ(r.total.prefetch.passed, 4u * 1500);
  check_conservation(r);
}

TEST(FfsVaSim, DeterministicAcrossRuns) {
  const auto a = simulate_ffsva(setup_for(0.3, 3, true));
  const auto b = simulate_ffsva(setup_for(0.3, 3, true));
  EXPECT_TRUE(a.total == b.total);
  EXPECT_DOUBLE_EQ(a.sim_time_sec, b.sim_time_sec);
  EXPECT_DOUBLE_EQ(a.output_latency_ms.mean(), b.output_latency_ms.mean());
}

TEST(FfsVaSim, OfflineBeatsBaselineAtLowTor) {
  // The headline: ~3x offline speedup at TOR ~0.1 (Section 5.2).
  const auto ffs = simulate_ffsva(setup_for(0.103, 1, false));
  const auto base = simulate_baseline(setup_for(0.103, 1, false));
  EXPECT_GT(ffs.throughput_fps, 2.0 * base.throughput_fps);
  EXPECT_LT(ffs.throughput_fps, 5.0 * base.throughput_fps);
}

TEST(FfsVaSim, HighTorErodesTheAdvantage) {
  // Figure 4: at TOR 1.0 the offline advantage largely disappears.
  auto high = setup_for(1.0, 1, false);
  high.make_outcomes = [](int i) {
    auto p = MarkovParams::for_tor(1.0);
    p.ty_in = 0.38;  // crowded stream at the evaluation's object threshold
    return std::make_unique<MarkovOutcomes>(p, 2000 + static_cast<unsigned>(i));
  };
  const auto ffs_high = simulate_ffsva(high);
  const auto ffs_low = simulate_ffsva(setup_for(0.103, 1, false));
  EXPECT_LT(ffs_high.throughput_fps, 0.7 * ffs_low.throughput_fps);
}

TEST(FfsVaSim, OnlineMaxStreamsBeatsBaselineSeveralTimes) {
  // Figure 3 / Section 5.2: FFS-VA sustains several times more live
  // streams than YOLOv2-only on the same simulated hardware.
  const auto base_setup = setup_for(0.103, 1, true);
  const int baseline = max_realtime_streams(base_setup, 1, 12, 0.005, true);
  const int ffs = max_realtime_streams(base_setup, 1, 48);
  EXPECT_GE(baseline, 3);
  EXPECT_LE(baseline, 5);
  EXPECT_GE(ffs, 5 * baseline);
  EXPECT_LE(ffs, 9 * baseline);
}

TEST(FfsVaSim, DynamicBatchCutsLatencyAtModerateLoad) {
  // Section 4.3.2: "the dynamic batch mechanism reduces the average
  // latency by ~50%" vs the feedback queue alone.
  auto fb = setup_for(0.103, 10, true, core::BatchPolicy::kFeedback);
  auto dyn = setup_for(0.103, 10, true, core::BatchPolicy::kDynamic);
  const auto r_fb = simulate_ffsva(fb);
  const auto r_dyn = simulate_ffsva(dyn);
  EXPECT_LT(r_dyn.output_latency_ms.mean(), 0.7 * r_fb.output_latency_ms.mean());
}

TEST(FfsVaSim, DynamicBatchSupportsFewerStreams) {
  // "...at the cost of 20% reduction in the number of supported video
  // streams" (Section 5.2).
  const auto base = setup_for(0.103, 1, true);
  const int fb = max_realtime_streams(
      [&] {
        auto s = base;
        s.config.batch_policy = core::BatchPolicy::kFeedback;
        return s;
      }(),
      1, 48);
  const int dyn = max_realtime_streams(
      [&] {
        auto s = base;
        s.config.batch_policy = core::BatchPolicy::kDynamic;
        return s;
      }(),
      1, 48);
  EXPECT_LT(dyn, fb);
  EXPECT_GT(dyn, fb / 2);
}

TEST(FfsVaSim, StaticBatchHasHighestOfflineThroughputAndLatency) {
  const auto st = simulate_ffsva(setup_for(0.2, 1, false, core::BatchPolicy::kStatic));
  const auto fb =
      simulate_ffsva(setup_for(0.2, 1, false, core::BatchPolicy::kFeedback));
  EXPECT_GE(st.throughput_fps, 0.95 * fb.throughput_fps);
  EXPECT_GT(st.output_latency_ms.mean(), fb.output_latency_ms.mean());
}

TEST(FfsVaSim, MeanSnmBatchFollowsPolicy) {
  const auto fb =
      simulate_ffsva(setup_for(0.2, 1, false, core::BatchPolicy::kFeedback));
  const auto dyn =
      simulate_ffsva(setup_for(0.2, 1, false, core::BatchPolicy::kDynamic));
  // Feedback waits for min(batch, queue threshold) = 10; dynamic takes
  // whatever is there.
  EXPECT_NEAR(fb.mean_snm_batch, 10.0, 0.5);
  EXPECT_LT(dyn.mean_snm_batch, fb.mean_snm_batch);
}

TEST(FfsVaSim, OverloadDropsFramesInsteadOfDiverging) {
  auto s = setup_for(0.103, 60, true);  // way beyond capacity
  s.duration_sec = 45.0;                // long enough to fill the ring buffers
  const auto r = simulate_ffsva(s);
  EXPECT_GT(r.drop_rate, 0.1);
  EXPECT_FALSE(r.realtime);
  check_conservation(r);
}

TEST(FfsVaSim, UtilizationsAreSane) {
  const auto r = simulate_ffsva(setup_for(0.2, 8, true));
  EXPECT_GE(r.gpu0_utilization, 0.0);
  EXPECT_LE(r.gpu0_utilization, 1.0 + 1e-9);
  EXPECT_GE(r.gpu1_utilization, 0.0);
  EXPECT_LE(r.gpu1_utilization, 1.0 + 1e-9);
  EXPECT_LE(r.cpu_utilization, 1.0 + 1e-9);
  EXPECT_GT(r.tyolo_service_fps, 0.0);
}

TEST(FfsVaSim, HigherTorLoadsLaterStages) {
  const auto low = simulate_ffsva(setup_for(0.1, 1, false));
  const auto high = simulate_ffsva(setup_for(0.8, 1, false));
  const double low_ty_share =
      low.streams[0].tyolo.in / static_cast<double>(low.streams[0].prefetch.passed);
  const double high_ty_share =
      high.streams[0].tyolo.in / static_cast<double>(high.streams[0].prefetch.passed);
  EXPECT_GT(high_ty_share, 1.5 * low_ty_share);
}

TEST(Baseline, OnlineCapacityIsAboutFourStreams) {
  // Section 2.3: a dual-GPU server analyzes ~4 concurrent streams with
  // YOLOv2 in real time.
  const auto r4 = simulate_baseline(setup_for(0.103, 4, true));
  const auto r6 = simulate_baseline(setup_for(0.103, 6, true));
  EXPECT_TRUE(r4.realtime);
  EXPECT_FALSE(r6.realtime);
}

TEST(Baseline, OfflineThroughputMatchesTwoGpuService) {
  const auto r = simulate_baseline(setup_for(0.5, 1, false));
  // Two GPUs at ~61 fps each (16.4 ms per frame incl. resize+setup),
  // single-stream decode does not bottleneck (454 fps).
  EXPECT_NEAR(r.throughput_fps, 122.0, 10.0);
}

TEST(MaxRealtimeStreams, LowerBoundWhenEvenOneFails) {
  auto s = setup_for(0.103, 1, true);
  s.duration_sec = 10.0;
  // Force an impossible config: zero-capacity T-YOLO via huge cost.
  s.costs.tyolo.per_frame_us = 10'000'000.0;
  const int n = max_realtime_streams(s, 1, 4);
  EXPECT_EQ(n, 0);
}

}  // namespace
}  // namespace ffsva::sim
