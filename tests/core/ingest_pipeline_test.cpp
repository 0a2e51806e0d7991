// Codec-aware ingest against the live engine (DESIGN.md §13).
//
// Runs the real FfsVaInstance over StoredSource streams and verifies the
// DecodePolicy contract: kFull leaves the hint machinery untouched and
// decodes everything; kHinted conserves frames through the fused
// prefetch+SDD stage, actually skips decode work on filtered frames, and
// produces (near-)identical survivor sets.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>

#include "video/profiles.hpp"
#include "video/source.hpp"

namespace ffsva::core {
namespace {

struct TestStream {
  video::SceneConfig cfg;
  std::shared_ptr<video::SceneSimulator> sim;
  detect::StreamModels models;
  std::shared_ptr<const video::StoredVideo> video;  ///< frames [500, 800)
};

/// One specialized stream plus a stored recording of its tail window,
/// shared across tests (training and encoding are slow).
TestStream& shared_stream() {
  static auto* t = [] {
    auto* s = new TestStream;
    s->cfg = video::jackson_profile();
    s->cfg.width = 128;
    s->cfg.height = 96;
    s->cfg.tor = 0.35;
    s->sim = std::make_shared<video::SceneSimulator>(s->cfg, 91, 1000);
    std::vector<video::Frame> calib;
    for (int i = 0; i < 500; ++i) calib.push_back(s->sim->render(i));
    detect::SpecializeConfig sc;
    sc.target = s->cfg.target;
    sc.snm.epochs = 5;
    s->models = detect::specialize_stream(calib, sc, 91);
    std::vector<video::Frame> window;
    for (int i = 500; i < 800; ++i) window.push_back(s->sim->render(i));
    s->video = std::make_shared<const video::StoredVideo>(
        video::StoredVideo::encode(window, /*keyframe_interval=*/32,
                                   /*deadzone=*/4));
    return s;
  }();
  return *t;
}

std::set<std::int64_t> run_once(DecodePolicy policy,
                                InstanceStats* stats_out = nullptr,
                                double delta_override = -1.0,
                                telemetry::MetricsSnapshot* metrics_out = nullptr) {
  auto& s = shared_stream();
  const double saved_delta = s.models.sdd->config().delta_diff;
  if (delta_override >= 0.0) s.models.sdd->set_delta(delta_override);
  FfsVaConfig cfg;
  cfg.decode_policy = policy;
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<video::StoredSource>(s.video, 0),
                      s.models);
  const auto stats = instance.run(/*online=*/false);
  if (delta_override >= 0.0) s.models.sdd->set_delta(saved_delta);
  if (stats_out != nullptr) *stats_out = stats;
  if (metrics_out != nullptr) *metrics_out = instance.metrics().snapshot();
  std::set<std::int64_t> out;
  for (const auto& ev : instance.outputs()) out.insert(ev.frame.index);
  return out;
}

TEST(HintedIngest, FullPolicyLeavesHintCountersZero) {
  InstanceStats stats;
  run_once(DecodePolicy::kFull, &stats);
  ASSERT_EQ(stats.streams.size(), 1u);
  const auto& in = stats.streams[0].ingest;
  EXPECT_EQ(in.decode_full, 300u);
  EXPECT_EQ(in.decode_skipped, 0u);
  EXPECT_EQ(in.hint_passes, 0u);
  EXPECT_EQ(in.hint_fallbacks, 0u);
  EXPECT_EQ(stats.streams[0].decode_ms.count, 300u);
  // Satellite: the codec's compression ratio finally surfaces per stream.
  EXPECT_GT(in.compression_ratio, 1.0);
}

TEST(HintedIngest, ConservesFramesThroughFusedStage) {
  InstanceStats stats;
  run_once(DecodePolicy::kHinted, &stats);
  ASSERT_EQ(stats.streams.size(), 1u);
  const auto& st = stats.streams[0];
  // Every stored frame enters and is accounted exactly once.
  EXPECT_EQ(st.prefetch.in, 300u);
  EXPECT_EQ(st.prefetch.passed, 300u);
  EXPECT_EQ(st.sdd.in, 300u);
  EXPECT_EQ(st.snm.in, st.sdd.passed);
  EXPECT_EQ(st.latency_ms.count, 300u);
  // Decode accounting: a frame is either reconstructed or hint-skipped,
  // and every reconstructed frame was a hint pass or a fallback.
  EXPECT_EQ(st.ingest.decode_full + st.ingest.decode_skipped, 300u);
  EXPECT_EQ(st.ingest.hint_passes + st.ingest.hint_fallbacks,
            st.ingest.decode_full);
  EXPECT_EQ(st.decode_ms.count, 300u);
}

// The fused prefetch stage ticks only the stream's atomics; the registry's
// SDD funnel counters must read the same counts as StreamStats.
TEST(HintedIngest, RegistrySddFunnelMatchesStreamStats) {
  InstanceStats stats;
  telemetry::MetricsSnapshot metrics;
  run_once(DecodePolicy::kHinted, &stats, /*delta_override=*/-1.0, &metrics);
  const auto& sdd = stats.streams[0].sdd;
  EXPECT_EQ(sdd.in, 300u);
  EXPECT_EQ(metrics.counter_or("sdd.in"), sdd.in);
  EXPECT_EQ(metrics.counter_or("sdd.passed"), sdd.passed);
  EXPECT_EQ(metrics.counter_or("drop.sdd"), sdd.in - sdd.passed);
}

TEST(HintedIngest, MatchesFullPolicySurvivors) {
  const auto full = run_once(DecodePolicy::kFull);
  const auto hinted = run_once(DecodePolicy::kHinted);
  // The conservative band allows <= 1% SDD verdict drift; everything the
  // two runs disagree on must fit inside that band.
  std::set<std::int64_t> diff;
  std::set_symmetric_difference(full.begin(), full.end(), hinted.begin(),
                                hinted.end(),
                                std::inserter(diff, diff.begin()));
  EXPECT_LE(diff.size(), 3u) << "hinted survivors drifted too far from full";
}

TEST(HintedIngest, StaticThresholdSkipsMostDecodes) {
  // With the SDD threshold far above the scene's dynamic range every frame
  // is droppable, and the hint chain should prove that without decoding.
  InstanceStats stats;
  const auto outputs =
      run_once(DecodePolicy::kHinted, &stats, /*delta_override=*/1e6);
  EXPECT_TRUE(outputs.empty());
  const auto& in = stats.streams[0].ingest;
  EXPECT_GT(in.decode_skipped, 150u)
      << "hint chain failed to skip decode on droppable frames";
  EXPECT_EQ(in.decode_full + in.decode_skipped, 300u);
}

TEST(HintedIngest, OnlineModeDisablesFusion) {
  auto& s = shared_stream();
  FfsVaConfig cfg;
  cfg.decode_policy = DecodePolicy::kHinted;
  cfg.online_fps = 240.0;  // speed the wall-clock run up
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<video::StoredSource>(s.video, 0),
                      s.models);
  const auto stats = instance.run(/*online=*/true);
  const auto& in = stats.streams[0].ingest;
  // A live stream must never trust recorded hints: everything decodes.
  EXPECT_EQ(in.decode_skipped, 0u);
  EXPECT_EQ(in.hint_passes, 0u);
  EXPECT_EQ(in.hint_fallbacks, 0u);
  EXPECT_GT(in.decode_full, 0u);
}

TEST(HintedIngest, MixedPolicyStreamsCoexist) {
  // One fused stream + one live (hint-less) stream under kHinted: the SDD
  // pool serves the live stream while the fused stream closes its own SNM
  // queue — both conserve frames.
  auto& s = shared_stream();
  FfsVaConfig cfg;
  cfg.decode_policy = DecodePolicy::kHinted;
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<video::StoredSource>(s.video, 0),
                      s.models);
  instance.add_stream(
      std::make_unique<video::LiveSource>(s.sim, 1), s.models);
  const auto stats = instance.run(/*online=*/false);
  ASSERT_EQ(stats.streams.size(), 2u);
  EXPECT_EQ(stats.streams[0].sdd.in, 300u);
  EXPECT_EQ(stats.streams[0].latency_ms.count, 300u);
  EXPECT_EQ(stats.streams[1].ingest.decode_skipped, 0u);
  EXPECT_EQ(stats.streams[1].latency_ms.count, 1000u);
  const auto agg = stats.aggregate();
  EXPECT_EQ(agg.ingest.decode_full + agg.ingest.decode_skipped, 1300u);
}

TEST(Config, DecodePolicyNames) {
  EXPECT_STREQ(to_string(DecodePolicy::kFull), "full");
  EXPECT_STREQ(to_string(DecodePolicy::kHinted), "hinted");
}

}  // namespace
}  // namespace ffsva::core
