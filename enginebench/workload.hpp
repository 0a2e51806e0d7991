// Workloads of the engine benchmark: how each one's inputs are made from a
// seed, the sequential-cascade verdicts they are checked against, and one
// measured run of core::FfsVaInstance over them.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "detect/specialize.hpp"
#include "stats.hpp"
#include "telemetry/spans.hpp"
#include "video/codec.hpp"

namespace enginebench {

using namespace ffsva;

/// Streams per workload: one prefetch thread each, which keeps the engine's
/// ingest threads at the 4-way parallelism the benchmark is sized for.
inline constexpr int kStreams = 4;
/// Stored workloads' codec settings (video::StoredVideo::encode).
inline constexpr int kKeyframeInterval = 32;
inline constexpr int kDeadzone = 4;

struct WorkloadSpec {
  std::string name;  ///< Empty when the name is unknown.
  int width = 0;
  int height = 0;
  double tor = 0.0;
  bool stored = false;        ///< Delta-RLE StoredSource streams; else replay.
  int frames_per_stream = 0;  ///< Each stream's window.
};

WorkloadSpec find_workload(const std::string& name);

struct SetupTimes {
  double render_s = 0.0;
  double specialize_s = 0.0;
  double encode_s = 0.0;
  double total_s() const { return render_s + specialize_s + encode_s; }
};

/// Everything a run needs: one camera's models (specialized once, shared by
/// every stream) and each stream's own time window of that camera. Frames
/// carry stream_id = stream and index = position in the window, exactly as
/// the engine sees them.
struct Inputs {
  detect::StreamModels models;
  std::vector<std::vector<video::Frame>> windows;  ///< Per stream.
  std::vector<std::shared_ptr<const video::StoredVideo>> stored;
  SetupTimes times;
  /// Determinism fingerprint: thresholds and window pixel sums.
  std::vector<double> fingerprint;
};

/// Render the calibration frames, specialize, render each stream's window
/// and (stored workloads) encode it. Timed per phase into Inputs::times.
std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Replace stored workloads' rendered windows with the decoded frames the
/// engine will see (the codec is lossy). Not part of set-up time.
void decode_windows(Inputs& in);

/// The sequential cascade over every window: per stream and position,
/// whether the frame survives SDD, SNM and T-YOLO (and so is emitted).
struct Expected {
  std::vector<std::vector<char>> sdd_pass, snm_pass, emitted;
};

/// core::record_trace + core::pass_mask over each stream's window. Frames
/// failing SDD end there whatever their other fields, so record_trace runs
/// on SDD survivors only. Streams are evaluated in parallel on the engine's
/// compute pool, each with its own copy of the (stateful) SNM.
Expected sequential_cascade(const Inputs& in, int number_of_objects);

/// The (stream, position) pairs the sequential cascade emits.
std::set<FrameKey> expected_set(const Expected& e);

/// Process CPU seconds (all threads).
double process_cpu_seconds();

/// Aggregate "cpu" line of /proc/stat: user and steal jiffies, and the
/// total. Steal is time the host ran someone else while this VM's vCPUs
/// were runnable; a run with much of it is a noisy run.
struct CpuJiffies {
  std::uint64_t user = 0, steal = 0, total = 0;
};
CpuJiffies read_cpu_jiffies();
/// Steal jiffies over all jiffies between two readings.
double steal_share(const CpuJiffies& from, const CpuJiffies& to);

/// Snapshot-polled queue depths (traced runs).
struct QueueMeans {
  double sdd = 0.0, snm = 0.0, tyolo = 0.0, ref = 0.0;
  int samples = 0;
};

/// One measured run: a fresh FfsVaInstance over every stream's window.
struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_share = 0.0;        ///< Host steal over all CPU time in the run.
  std::uint64_t offered = 0;       ///< Frames the sources yielded.
  std::uint64_t ingested = 0;      ///< Frames the engine took in.
  std::uint64_t ingest_drops = 0;
  std::uint64_t degraded = 0;      ///< Degraded, discarded or poisoned frames.
  std::uint64_t ref_positive = 0;  ///< Emitted frames the reference found targets in.
  VerdictReport verdict;
  core::StreamStats funnel;
  // Traced runs only.
  telemetry::MetricsSnapshot metrics;
  std::vector<telemetry::Span> engine_spans;
  std::vector<telemetry::Span> source_spans;  ///< The benchmark's, around next().
  QueueMeans queues;
  int sdd_pool = 0;
};

RunResult run_engine(const WorkloadSpec& spec, const Inputs& in,
                     const std::set<FrameKey>& expected, bool traced);

}  // namespace enginebench
