// Supervision-layer integration tests: fault injection through the full
// threaded engine (DESIGN.md Section 9). The contract under test: faults
// stay per-stream (a hung or failing source never wedges the shared
// stages), degraded frames are accounted (never silently lost), stop() and
// the run deadline wind a run down promptly, and a quarantined stream's
// prefetch thread is cancelled and joined before run() returns.
//
// This binary carries the `tsan` and `asan` ctest labels: the quarantine /
// cancel-and-join machinery is exactly the code whose races and lifetimes
// the sanitizers must vet.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "video/fault_injection.hpp"
#include "video/profiles.hpp"
#include "video/source.hpp"

namespace ffsva::core {
namespace {

using video::ReplaySource;

struct FaultWorld {
  video::SceneConfig cfg;
  detect::StreamModels models;
  ReplaySource::Window window;  ///< Pre-rendered eval frames.

  FaultWorld() {
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

FaultWorld& world() {
  static auto* w = new FaultWorld();
  return *w;
}

/// Cycles the window forever — for stop()/deadline tests, which must end
/// the run themselves.
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

std::unique_ptr<video::FaultInjectingSource> faulty(
    ReplaySource::Window window, int stream_id,
    video::FaultPlan plan, std::uint64_t seed) {
  return std::make_unique<video::FaultInjectingSource>(
      std::make_unique<ReplaySource>(std::move(window), stream_id), plan, seed);
}

/// Survivor frame indices per stream, via the output sink.
struct SurvivorMap {
  std::mutex mu;
  std::map<int, std::vector<std::int64_t>> by_stream;

  std::function<void(const OutputEvent&)> sink() {
    return [this](const OutputEvent& ev) {
      std::lock_guard lk(mu);
      by_stream[ev.frame.stream_id].push_back(ev.frame.index);
    };
  }
};

/// One clean single-stream run: the reference survivor set every healthy
/// stream must reproduce whatever faults its neighbors are suffering.
const std::vector<std::int64_t>& clean_survivors() {
  static auto* survivors = [] {
    auto& w = world();
    FfsVaConfig cfg;
    FfsVaInstance instance(cfg);
    instance.add_stream(std::make_unique<ReplaySource>(w.window, 0), w.models);
    auto* map = new SurvivorMap();
    instance.set_output_sink(map->sink());
    instance.run(/*online=*/false);
    return &map->by_stream[0];
  }();
  return *survivors;
}

TEST(FaultTolerance, RunWithZeroStreamsThrows) {
  FfsVaInstance instance(FfsVaConfig{});
  EXPECT_THROW(instance.run(false), std::invalid_argument);
}

TEST(FaultTolerance, SecondRunThrows) {
  auto& w = world();
  FfsVaInstance instance(FfsVaConfig{});
  instance.add_stream(std::make_unique<ReplaySource>(w.window, 0), w.models);
  instance.set_output_sink([](const OutputEvent&) {});
  instance.run(false);
  EXPECT_THROW(instance.run(false), std::logic_error);
}

// Transient decode errors retried under the budget lose no frames: the
// faulty stream's survivors are identical to a clean run's.
TEST(FaultTolerance, TransientErrorsRetryWithoutFrameLoss) {
  auto& w = world();
  const auto frames = static_cast<std::uint64_t>(w.window->size());
  video::FaultPlan plan;
  plan.p_transient = 0.1;
  plan.transient_at = 5;  // plus one pinned error for determinism

  FfsVaConfig cfg;
  cfg.source_max_retries = 6;
  FfsVaInstance instance(cfg);
  instance.add_stream(faulty(w.window, 0, plan, 99), w.models);
  SurvivorMap survivors;
  instance.set_output_sink(survivors.sink());

  const auto stats = instance.run(false);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.passed, frames);
  EXPECT_EQ(st.latency_ms.count, frames);
  EXPECT_GT(st.fault.decode_errors, 0u);
  EXPECT_GT(st.fault.retries, 0u);
  EXPECT_FALSE(st.fault.quarantined);
  EXPECT_EQ(stats.health.degraded_streams, 1);
  EXPECT_EQ(survivors.by_stream[0], clean_survivors());
}

// A fatal session drop is revived by restart() at the pre-fault position:
// one restart, zero frame loss.
TEST(FaultTolerance, FatalErrorRestartsSourceWithoutFrameLoss) {
  auto& w = world();
  const auto frames = static_cast<std::uint64_t>(w.window->size());
  video::FaultPlan plan;
  plan.fatal_at = 17;

  FfsVaInstance instance(FfsVaConfig{});
  instance.add_stream(faulty(w.window, 0, plan, 1), w.models);
  SurvivorMap survivors;
  instance.set_output_sink(survivors.sink());

  const auto stats = instance.run(false);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.fault.restarts, 1u);
  EXPECT_EQ(st.fault.decode_errors, 1u);
  EXPECT_EQ(st.prefetch.passed, frames);
  EXPECT_EQ(st.latency_ms.count, frames);
  EXPECT_EQ(survivors.by_stream[0], clean_survivors());
}

// An unrestartable source ends its stream gracefully: the frames already
// ingested drain, the run completes, nothing hangs.
TEST(FaultTolerance, UnrecoverableSourceEndsStreamGracefully) {
  auto& w = world();
  video::FaultPlan plan;
  plan.fatal_at = 9;
  plan.restartable = false;

  FfsVaInstance instance(FfsVaConfig{});
  instance.add_stream(faulty(w.window, 0, plan, 1), w.models);
  instance.set_output_sink([](const OutputEvent&) {});

  const auto stats = instance.run(false);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.passed, 9u);
  EXPECT_EQ(st.latency_ms.count, 9u);  // all nine drained to a terminus
  EXPECT_EQ(st.fault.decode_errors, 1u);
  EXPECT_EQ(st.fault.restarts, 0u);
  EXPECT_FALSE(st.fault.quarantined);
}

// Truncated (zero-size) frames make every model throw; under kDrop the
// frame terminates at the first filter with its latency recorded, so
// conservation still holds frame-for-frame.
TEST(FaultTolerance, DegradePolicyDropTerminatesUnevaluableFrames) {
  auto& w = world();
  const auto frames = static_cast<std::uint64_t>(w.window->size());
  video::FaultPlan plan;
  plan.p_truncated = 0.3;

  FfsVaConfig cfg;
  cfg.degrade_policy = DegradePolicy::kDrop;
  FfsVaInstance instance(cfg);
  instance.add_stream(faulty(w.window, 0, plan, 42), w.models);
  SurvivorMap survivors;
  instance.set_output_sink(survivors.sink());

  const auto stats = instance.run(false);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.passed, frames);
  EXPECT_EQ(st.latency_ms.count, frames);
  EXPECT_GT(st.fault.degraded_frames, 0u);
  // Dropped frames never reach the output: survivors are a subset of the
  // clean run's (the truncated frames' pixels are gone, nothing to emit).
  const auto& clean = clean_survivors();
  const std::set<std::int64_t> clean_set(clean.begin(), clean.end());
  for (const auto idx : survivors.by_stream[0]) {
    EXPECT_TRUE(clean_set.count(idx)) << "frame " << idx << " not in clean run";
  }
}

// Under kBypass an unevaluable frame rides past the cheap filters but the
// reference model (the last vetting stage) still refuses to emit it —
// bypass must not leak unvetted frames out of the system.
TEST(FaultTolerance, DegradePolicyBypassNeverEmitsUnvetted) {
  auto& w = world();
  const auto frames = static_cast<std::uint64_t>(w.window->size());
  video::FaultPlan plan;
  plan.p_truncated = 0.3;

  FfsVaConfig cfg;
  cfg.degrade_policy = DegradePolicy::kBypass;
  FfsVaInstance instance(cfg);
  instance.add_stream(faulty(w.window, 0, plan, 42), w.models);
  SurvivorMap survivors;
  instance.set_output_sink(survivors.sink());

  const auto stats = instance.run(false);
  const auto& st = stats.streams[0];
  EXPECT_EQ(st.prefetch.passed, frames);
  EXPECT_EQ(st.latency_ms.count, frames);
  EXPECT_GT(st.fault.degraded_frames, 0u);
  // Every emitted frame came through detect() successfully: survivors are a
  // subset of the clean run's (a truncated frame has no pixels to vet).
  const auto& clean = clean_survivors();
  const std::set<std::int64_t> clean_set(clean.begin(), clean.end());
  for (const auto idx : survivors.by_stream[0]) {
    EXPECT_TRUE(clean_set.count(idx)) << "frame " << idx << " not in clean run";
  }
  // Bypassed-then-refused frames terminate at the reference stage: ref saw
  // more frames than it passed.
  EXPECT_GT(st.ref.in, st.ref.passed);
}

// The fault matrix: 32 streams, four faulty (hung source, transient decode
// errors, premature EOS, truncated frames). The 28 healthy streams must
// produce survivor sets identical to a clean run, the hung stream must be
// quarantined within the stall timeout, and the run must shut down cleanly.
TEST(FaultTolerance, FaultMatrixIsolatesFaultyStreams) {
  auto& w = world();
  constexpr int kStreams = 32;
  constexpr int kStall = 1, kTransient = 5, kEos = 9, kTruncated = 13;
  const auto frames = static_cast<std::uint64_t>(w.window->size());

  FfsVaConfig cfg;
  cfg.stall_timeout_ms = 250;
  cfg.source_max_retries = 6;
  cfg.degrade_policy = DegradePolicy::kDrop;
  FfsVaInstance instance(cfg);

  auto stall_done = std::make_shared<std::atomic<bool>>(false);
  for (int s = 0; s < kStreams; ++s) {
    video::FaultPlan plan;
    switch (s) {
      case kStall:
        plan.stall_at = 10;
        plan.stall_ms = 1500;  // far past the 250 ms stall timeout
        plan.stall_done = stall_done;
        break;
      case kTransient:
        plan.p_transient = 0.1;
        plan.transient_at = 3;
        break;
      case kEos:
        plan.premature_eos_at = 20;
        break;
      case kTruncated:
        plan.p_truncated = 0.4;
        break;
      default:
        break;  // clean plan: the wrapper is transparent
    }
    instance.add_stream(faulty(w.window, s, plan, 99), w.models);
  }
  SurvivorMap survivors;
  instance.set_output_sink(survivors.sink());

  const auto stats = instance.run(/*online=*/false);

  ASSERT_EQ(stats.streams.size(), static_cast<std::size_t>(kStreams));
  const auto& clean = clean_survivors();
  for (int s = 0; s < kStreams; ++s) {
    const auto& st = stats.streams[static_cast<std::size_t>(s)];
    if (s == kStall) {
      EXPECT_TRUE(st.fault.quarantined) << "hung stream not quarantined";
      continue;  // its counters froze mid-flight; no conservation claim
    }
    EXPECT_FALSE(st.fault.quarantined) << "stream " << s;
    if (s == kEos) {
      EXPECT_EQ(st.prefetch.passed, 20u);  // ended early, but cleanly
      EXPECT_EQ(st.latency_ms.count, 20u);
      continue;
    }
    // Every other stream — including the retried-transient and the
    // degraded-truncated one — conserves all 60 frames.
    EXPECT_EQ(st.prefetch.passed, frames) << "stream " << s;
    EXPECT_EQ(st.latency_ms.count, frames) << "stream " << s;
    if (s != kTransient && s != kTruncated) {
      EXPECT_FALSE(st.fault.any()) << "stream " << s;
      std::lock_guard lk(survivors.mu);
      EXPECT_EQ(survivors.by_stream[s], clean) << "stream " << s;
    }
  }
  // The transient stream lost nothing, so its survivors match too.
  {
    std::lock_guard lk(survivors.mu);
    EXPECT_EQ(survivors.by_stream[kTransient], clean);
  }
  EXPECT_EQ(stats.health.quarantined_streams, 1);
  EXPECT_GE(stats.health.degraded_streams, 2);  // transient + truncated
  EXPECT_GT(stats.health.fault.retries, 0u);
  EXPECT_GT(stats.health.fault.degraded_frames, 0u);

  // The quarantined stream's prefetch thread is joined before run()
  // returns: the quarantine cancelled the stalled decode (stall_done is set
  // before the stall unwinds), so the stall must already be over here.
  EXPECT_TRUE(stall_done->load(std::memory_order_acquire));
}

// stop() from another thread winds an endless run down promptly and the
// report says so.
TEST(FaultTolerance, StopUnwindsAnEndlessRun) {
  auto& w = world();
  FfsVaConfig cfg;
  FfsVaInstance instance(cfg);
  for (int s = 0; s < 4; ++s) {
    instance.add_stream(std::make_unique<EndlessSource>(w.window.get(), s), w.models);
  }
  instance.set_output_sink([](const OutputEvent&) {});

  InstanceStats stats;
  std::thread runner([&] { stats = instance.run(/*online=*/false); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  instance.stop();
  runner.join();  // would hang forever if stop() did not take

  EXPECT_TRUE(stats.health.stopped);
  EXPECT_FALSE(stats.health.deadline_hit);
  EXPECT_GT(stats.aggregate().prefetch.passed, 0u);
}

// The run deadline is the same mechanism, armed from config: the watchdog
// calls stop() when the budget expires.
TEST(FaultTolerance, DeadlineStopsTheRun) {
  auto& w = world();
  FfsVaConfig cfg;
  cfg.run_deadline_ms = 300;
  FfsVaInstance instance(cfg);
  for (int s = 0; s < 4; ++s) {
    instance.add_stream(std::make_unique<EndlessSource>(w.window.get(), s), w.models);
  }
  instance.set_output_sink([](const OutputEvent&) {});

  const auto stats = instance.run(/*online=*/false);  // returns on its own
  EXPECT_TRUE(stats.health.deadline_hit);
  EXPECT_TRUE(stats.health.stopped);
  EXPECT_GT(stats.aggregate().prefetch.passed, 0u);
}

}  // namespace
}  // namespace ffsva::core
