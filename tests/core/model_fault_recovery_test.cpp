// Escalation-layer integration tests (DESIGN.md Section 14): deterministic
// in-model wedges (detect::FaultHook) through the full threaded engine. The
// contract under test: a model call stalled past model_call_timeout_ms is
// cancelled by the watchdog and unwinds cooperatively, the wedged frame
// follows the degrade policy (and is poisoned on its second wedge), the
// owning stage keeps serving, frame conservation holds through every
// cancellation path, and stop()/run_deadline_ms issued mid-model-call
// return in bounded time instead of waiting out the wedge.
//
// This binary carries the `tsan` and `asan` ctest labels: the watchdog
// cancel machinery is exactly the code whose races and lifetimes the
// sanitizers must vet.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "detect/fault_hook.hpp"
#include "runtime/cancel.hpp"
#include "video/profiles.hpp"
#include "video/scene.hpp"
#include "video/source.hpp"

namespace ffsva::core {
namespace {

using detect::FaultHook;
using detect::FaultStage;
using detect::ModelFaultSpec;
using video::ReplaySource;

struct RecoveryWorld {
  video::SceneConfig cfg;
  detect::StreamModels models;
  ReplaySource::Window window;  ///< Pre-rendered eval frames.

  RecoveryWorld() {
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
    // Force every frame through the whole cascade: these tests exercise the
    // escalation machinery at each stage, not the filters' selectivity, so
    // the cheap filters must not starve the deep stages of traffic.
    models.sdd->set_delta(-1.0);
    models.snm->set_thresholds(0.0, 0.0);  // t_pre = 0: every score passes
    std::vector<video::Frame> frames;
    for (int i = 400; i < 460; ++i) frames.push_back(sim.render(i));
    window = std::make_shared<const std::vector<video::Frame>>(std::move(frames));
  }
};

RecoveryWorld& world() {
  static auto* w = new RecoveryWorld();
  return *w;
}

/// Cycles the window forever — for the shutdown-latency tests, which must
/// end the run themselves while a wedge is in flight.
class EndlessSource final : public video::FrameSource {
 public:
  EndlessSource(const std::vector<video::Frame>* window, int stream_id)
      : window_(window), stream_id_(stream_id) {}

  std::optional<video::Frame> next() override {
    video::Frame f = (*window_)[static_cast<std::size_t>(i_) % window_->size()];
    f.stream_id = stream_id_;
    f.index = i_++;
    return f;
  }
  std::int64_t total_frames() const override { return -1; }  // unbounded

 private:
  const std::vector<video::Frame>* window_;
  int stream_id_;
  std::int64_t i_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// (stream, frame) -> reference-model detections of every emitted frame.
using Emitted = std::map<std::pair<int, std::int64_t>, std::size_t>;

/// Runs `streams` replayed windows to completion and collects what the
/// reference stage emitted. The sink runs on the reference thread only, and
/// run() joins that thread before returning.
InstanceStats run_collecting(const FfsVaConfig& cfg, int streams,
                             Emitted* emitted) {
  auto& w = world();
  FfsVaInstance instance(cfg);
  for (int s = 0; s < streams; ++s) {
    instance.add_stream(std::make_unique<ReplaySource>(w.window, s), w.models);
  }
  instance.set_output_sink([emitted](const OutputEvent& ev) {
    emitted->emplace(std::make_pair(ev.frame.stream_id, ev.frame.index),
                     ev.result.detections.size());
  });
  return instance.run(/*online=*/false);
}

// --- FaultHook unit behavior ------------------------------------------------

// Triggers fire at exact per-stage call indices, independent of wall time:
// offset 2, period 3, two triggers means call #2 and call #5 throw and call
// #8 does not.
TEST(FaultHookUnit, TriggersAreDeterministicPerCallIndex) {
  FaultHook hook({ModelFaultSpec{FaultStage::kSnm,
                                 ModelFaultSpec::Kind::kThrow,
                                 /*offset=*/2, /*period=*/3,
                                 /*max_triggers=*/2, /*duration_ms=*/0}});
  hook.install();
  std::vector<int> threw_at;
  for (int i = 0; i < 12; ++i) {
    try {
      FaultHook::on_call(FaultStage::kSnm);
    } catch (const std::runtime_error&) {
      threw_at.push_back(i);
    }
  }
  FaultHook::uninstall();
  EXPECT_EQ(threw_at, (std::vector<int>{2, 5}));
  EXPECT_EQ(hook.calls(FaultStage::kSnm), 12);
  EXPECT_EQ(hook.triggered(0), 2);
}

// A stage the plan does not target is never intercepted.
TEST(FaultHookUnit, OtherStagesAreUntouched) {
  FaultHook hook({ModelFaultSpec{FaultStage::kRef,
                                 ModelFaultSpec::Kind::kThrow,
                                 /*offset=*/0, /*period=*/1,
                                 /*max_triggers=*/100, /*duration_ms=*/0}});
  hook.install();
  for (int i = 0; i < 8; ++i) {
    EXPECT_NO_THROW(FaultHook::on_call(FaultStage::kSdd));
  }
  FaultHook::uninstall();
  EXPECT_EQ(hook.calls(FaultStage::kSdd), 8);
  EXPECT_EQ(hook.triggered(0), 0);
}

// An injected stall is cooperative: a cancel on the calling thread's token
// unwinds it within milliseconds, long before the duration cap.
TEST(FaultHookUnit, StallUnwindsPromptlyOnCancel) {
  FaultHook hook({ModelFaultSpec{FaultStage::kSdd,
                                 ModelFaultSpec::Kind::kStall,
                                 /*offset=*/0, /*period=*/0,
                                 /*max_triggers=*/1, /*duration_ms=*/30'000}});
  hook.install();
  runtime::CancelToken token;
  runtime::ScopedCancelToken install(token);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(FaultHook::on_call(FaultStage::kSdd),
               runtime::CancelledError);
  const double elapsed = seconds_since(t0);
  canceller.join();
  FaultHook::uninstall();
  EXPECT_LT(elapsed, 10.0) << "stall ignored the cancel";
  EXPECT_EQ(hook.cancelled_stalls(), 1);
}

// Without a token installed (a run without escalation armed) the stall is
// bounded by its duration cap and returns normally.
TEST(FaultHookUnit, StallWithoutTokenIsCappedByDuration) {
  FaultHook hook({ModelFaultSpec{FaultStage::kSdd,
                                 ModelFaultSpec::Kind::kStall,
                                 /*offset=*/0, /*period=*/0,
                                 /*max_triggers=*/1, /*duration_ms=*/50}});
  hook.install();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(FaultHook::on_call(FaultStage::kSdd));
  FaultHook::uninstall();
  EXPECT_GE(seconds_since(t0), 0.04);
  EXPECT_EQ(hook.cancelled_stalls(), 0);
}

// --- Engine escalation ------------------------------------------------------

// The acceptance matrix: 16 streams, each shared stage (an SDD worker, the
// GPU0 executor at both SNM and T-YOLO, the reference thread) wedged at
// least once by a stall far past model_call_timeout_ms. The watchdog must
// cancel every wedge, the stages must keep serving, and every stream must
// still conserve all of its frames (wedged frames terminate as degraded
// drops, never vanish). Verdicts: the wedged run emits a subset of what the
// same streams emit without faults, short by at most its degraded frames.
TEST(ModelFaultRecovery, SixteenStreamWedgeMatrixConservesFrames) {
  auto& w = world();
  constexpr int kStreams = 16;
  const auto frames = static_cast<std::uint64_t>(w.window->size());
  // Each spec wedges one in-model call at a deterministic per-stage call
  // index; the 30 s duration is far past the 250 ms timeout, so completion
  // proves cancellation (not the cap) ended the stall.
  FaultHook hook({
      ModelFaultSpec{FaultStage::kSdd, ModelFaultSpec::Kind::kStall,
                     /*offset=*/40, /*period=*/0, /*max_triggers=*/1,
                     /*duration_ms=*/30'000},
      ModelFaultSpec{FaultStage::kSnm, ModelFaultSpec::Kind::kStall,
                     /*offset=*/10, /*period=*/0, /*max_triggers=*/1,
                     /*duration_ms=*/30'000},
      ModelFaultSpec{FaultStage::kTyolo, ModelFaultSpec::Kind::kStall,
                     /*offset=*/5, /*period=*/0, /*max_triggers=*/1,
                     /*duration_ms=*/30'000},
      ModelFaultSpec{FaultStage::kRef, ModelFaultSpec::Kind::kStall,
                     /*offset=*/2, /*period=*/0, /*max_triggers=*/1,
                     /*duration_ms=*/30'000},
  });
  hook.install();

  FfsVaConfig cfg;
  cfg.model_call_timeout_ms = 250;
  cfg.degrade_policy = DegradePolicy::kDrop;
  cfg.number_of_objects = 0;  // T-YOLO passes everything: ref sees traffic
  Emitted wedged;
  const auto stats = run_collecting(cfg, kStreams, &wedged);
  FaultHook::uninstall();

  // Every seeded wedge fired and was unwound by a watchdog cancel, and each
  // cancel is counted once, against the stream its call was serving.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hook.triggered(i), 1) << "spec " << i << " never fired";
  }
  EXPECT_GE(hook.cancelled_stalls(), 4);
  EXPECT_GE(stats.health.fault.cancelled_calls, 4u);
  EXPECT_EQ(stats.health.quarantined_streams, 0);
  // Every cancelled call failed at least one frame; under kDrop a frame's
  // first wedge already drops it, so none can wedge twice.
  EXPECT_GE(stats.health.fault.degraded_frames, 4u);
  EXPECT_EQ(stats.health.fault.poisoned_frames, 0u);

  // Conservation: every stream accounts every frame — wedged ones included
  // (they terminate as degraded drops with their latency recorded).
  ASSERT_EQ(stats.streams.size(), static_cast<std::size_t>(kStreams));
  for (int s = 0; s < kStreams; ++s) {
    const auto& st = stats.streams[static_cast<std::size_t>(s)];
    EXPECT_EQ(st.prefetch.passed, frames) << "stream " << s;
    EXPECT_EQ(st.latency_ms.count, frames) << "stream " << s;
    EXPECT_FALSE(st.fault.quarantined) << "stream " << s;
  }

  // Verdicts: a wedge only removes the frames it failed. Every frame the
  // wedged run emitted is emitted by the clean run with the same reference
  // result, and the clean run's surplus is covered by the degraded frames.
  // The clean run is the oracle, so no watchdog may cancel a slow call in it
  // (a sanitized build is slow enough to trip 250 ms).
  FfsVaConfig clean_cfg = cfg;
  clean_cfg.model_call_timeout_ms = 0;
  Emitted clean;
  const auto clean_stats = run_collecting(clean_cfg, kStreams, &clean);
  EXPECT_EQ(clean_stats.health.fault.degraded_frames, 0u);
  for (const auto& [frame, detections] : wedged) {
    const auto it = clean.find(frame);
    ASSERT_NE(it, clean.end()) << "stream " << frame.first << " frame "
                               << frame.second << " emitted only under faults";
    EXPECT_EQ(it->second, detections)
        << "stream " << frame.first << " frame " << frame.second;
  }
  ASSERT_GE(clean.size(), wedged.size());
  EXPECT_LE(clean.size() - wedged.size(), stats.health.fault.degraded_frames);
}

// Escalation step three: a frame that wedges a stage twice is poisoned and
// dropped even under kBypass. Stalling every SDD call and every SNM call
// means each frame's first wedge bypasses it downstream and its second
// wedge must poison it — deterministically, for every frame that reaches
// SNM.
TEST(ModelFaultRecovery, SecondWedgePoisonsTheFrameUnderBypass) {
  auto& w = world();
  const auto frames = static_cast<std::uint64_t>(w.window->size());
  FaultHook hook({
      ModelFaultSpec{FaultStage::kSdd, ModelFaultSpec::Kind::kStall,
                     /*offset=*/0, /*period=*/1, /*max_triggers=*/1'000'000,
                     /*duration_ms=*/5'000},
      ModelFaultSpec{FaultStage::kSnm, ModelFaultSpec::Kind::kStall,
                     /*offset=*/0, /*period=*/1, /*max_triggers=*/1'000'000,
                     /*duration_ms=*/5'000},
  });
  hook.install();

  FfsVaConfig cfg;
  cfg.model_call_timeout_ms = 100;
  cfg.degrade_policy = DegradePolicy::kBypass;
  FfsVaInstance instance(cfg);
  instance.add_stream(std::make_unique<ReplaySource>(w.window, 0), w.models);
  instance.set_output_sink([](const OutputEvent&) {});

  const auto stats = instance.run(/*online=*/false);
  FaultHook::uninstall();

  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.passed, frames);
  EXPECT_EQ(st.latency_ms.count, frames);  // poisoned frames still counted
  EXPECT_GE(st.fault.poisoned_frames, 1u);
  EXPECT_GE(stats.health.fault.poisoned_frames, 1u);
  EXPECT_GE(stats.health.fault.cancelled_calls, 2u);
}

// stop() issued while a model call is wedged returns in bounded time: the
// watchdog stays alive through the join and cancels the in-flight stall, so
// shutdown never waits out the wedge's 60 s cap.
TEST(ModelFaultRecovery, StopMidModelCallReturnsPromptly) {
  auto& w = world();
  // Recurring stalls, and stop() waits for the first to fire, so it lands
  // mid-wedge.
  FaultHook hook({ModelFaultSpec{FaultStage::kSnm,
                                 ModelFaultSpec::Kind::kStall,
                                 /*offset=*/10, /*period=*/30,
                                 /*max_triggers=*/1'000'000,
                                 /*duration_ms=*/60'000}});
  hook.install();

  FfsVaConfig cfg;
  cfg.model_call_timeout_ms = 250;
  FfsVaInstance instance(cfg);
  for (int s = 0; s < 2; ++s) {
    instance.add_stream(std::make_unique<EndlessSource>(w.window.get(), s),
                        w.models);
  }
  instance.set_output_sink([](const OutputEvent&) {});

  InstanceStats stats;
  std::thread runner([&] { stats = instance.run(/*online=*/false); });
  // How soon the tenth SNM call comes depends on the host (a TSan build
  // with two-frame SDD queues has made only 7 SNM calls by 400 ms), so
  // poll for it rather than sleep a fixed time.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (hook.triggered(0) == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  instance.stop();
  runner.join();  // bounded by cancellation, not by the 60 s stall cap
  const double shutdown = seconds_since(t0);
  FaultHook::uninstall();

  EXPECT_GE(hook.triggered(0), 1) << "no wedge fired within 60 s";
  EXPECT_LT(shutdown, 20.0) << "stop() waited out a wedged model call";
  EXPECT_TRUE(stats.health.stopped);
  EXPECT_GE(stats.health.fault.cancelled_calls, 1u);
}

// run_deadline_ms is the same mechanism armed from config: the deadline
// fires stop() from the watchdog, and cancellation bounds the wind-down
// even though a 60 s wedge is in flight.
TEST(ModelFaultRecovery, DeadlineMidModelCallReturnsPromptly) {
  auto& w = world();
  FaultHook hook({ModelFaultSpec{FaultStage::kSnm,
                                 ModelFaultSpec::Kind::kStall,
                                 /*offset=*/10, /*period=*/30,
                                 /*max_triggers=*/1'000'000,
                                 /*duration_ms=*/60'000}});
  hook.install();

  FfsVaConfig cfg;
  cfg.run_deadline_ms = 400;
  cfg.model_call_timeout_ms = 250;
  FfsVaInstance instance(cfg);
  for (int s = 0; s < 2; ++s) {
    instance.add_stream(std::make_unique<EndlessSource>(w.window.get(), s),
                        w.models);
  }
  instance.set_output_sink([](const OutputEvent&) {});

  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = instance.run(/*online=*/false);  // returns on its own
  const double wall = seconds_since(t0);
  FaultHook::uninstall();

  EXPECT_LT(wall, 30.0) << "deadline waited out a wedged model call";
  EXPECT_TRUE(stats.health.deadline_hit);
  EXPECT_TRUE(stats.health.stopped);
}

}  // namespace
}  // namespace ffsva::core
