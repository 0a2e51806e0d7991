// Shared harness code for the per-figure benchmark binaries.
//
// Every bench regenerates one table or figure of the paper's evaluation
// (Section 5), printing the measured series next to the values the paper
// reports. Accuracy figures run the *real* filters over synthetic
// workloads; throughput/latency figures run the discrete-event simulator
// with trace-calibrated outcome models (see DESIGN.md for the substitution
// argument).
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trace.hpp"
#include "detect/specialize.hpp"
#include "sim/ffsva_sim.hpp"
#include "video/profiles.hpp"

namespace ffsva::bench {

/// A specialized stream plus a recorded evaluation trace.
struct CalibratedStream {
  video::SceneConfig cfg;
  std::shared_ptr<video::SceneSimulator> sim;
  detect::StreamModels models;
  std::vector<core::FrameRecord> trace;  ///< Over [calib_frames, total).
  std::int64_t eval_begin = 0;
};

/// Render `calib + eval` frames of the profile at the given TOR, specialize
/// the per-stream models on the calibration window (Section 4.1), and
/// record the real-filter trace over the evaluation window.
CalibratedStream build_stream(video::SceneConfig base, double tor, std::uint64_t seed,
                              std::int64_t calib_frames, std::int64_t eval_frames,
                              int snm_epochs = 8);

/// A small frame for printing aligned tables.
void print_header(const std::string& title);
void print_rule();

/// Markov outcome factory for the simulator, calibrated from a trace.
sim::SimSetup sim_setup_from(const sim::MarkovParams& params,
                             const core::FfsVaConfig& config, int streams,
                             bool online, std::int64_t frames_per_stream,
                             double duration_sec = 120.0);

/// Named per-row figures (counters, ratios), written verbatim as extra JSON
/// number fields: unlike fps/percentiles, a zero here is meaningful (a 0.0
/// drop rate) and is written as 0, not null.
using Extras = std::vector<std::pair<std::string, double>>;

// --- repeated runs: the one way bench/ times things -------------------------

/// Measured runs per variant (after the discarded warm-up).
inline constexpr int kReps = 5;

/// Median and quartiles of a sample, interpolating linearly between order
/// statistics (numpy's default).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// The run-to-run noise band as a fraction of the median.
  double iqr_rel() const { return median > 0.0 ? (q3 - q1) / median : 0.0; }
};
Quartiles quartiles(std::vector<double> samples);

/// What one run of a variant reports.
struct Run {
  double fps = 0.0;     ///< Frames (or kernel calls) per second.
  double p50_ms = 0.0;  ///< Per-frame latency percentiles; 0 = none.
  double p99_ms = 0.0;
  Extras extras;        ///< Same keys, in the same order, on every run.
};

/// One variant over kReps runs: fps quartiles, medians of everything else.
struct Series {
  Quartiles fps;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wall_ms = 0.0;  ///< Wall time of one run.
  double cpu_ms = 0.0;   ///< Process CPU time of one run, all threads.
  Extras extras;         ///< Per-key medians of the runs' extras.
};

/// Runs `run(v)` for every variant v in [0, variants): one discarded warm-up
/// run of variant 0, then kReps rounds that each run every variant once, so
/// drift and slow spells of the host hit all variants alike. Wall and
/// process CPU time are taken around every call.
std::vector<Series> measure(int variants, const std::function<Run(int)>& run);

/// Whether comparing `a` with `b` can resolve a difference of `budget` (a
/// fraction of the median): both noise bands must lie within it. A budget row
/// that does not resolve is reported as unresolved, not as met or missed.
bool resolves(const Series& a, const Series& b, double budget);

/// The table every repeated-run bench prints: one line per series.
void print_series_header(const char* first_column);
void print_series(const std::string& label, const Series& s);

/// Machine-readable bench output, opted into with `--json <path>` on the
/// bench command line. Rows added via add() are written as a JSON array when
/// the report is destroyed, so runs can be archived (BENCH_*.json) and
/// diffed across commits. Each row carries the series' median fps, its
/// noise band (fps_iqr_rel), median p50/p99 latency (null when there is
/// none), median wall and process CPU time per run, the rep count, its
/// extras, and threads = runtime::compute_parallelism() at write time.
/// Without --json the report is inert and benches print their tables only.
class JsonReport {
 public:
  JsonReport(int argc, char** argv);
  ~JsonReport();

  /// True when --json was given (rows are being collected).
  bool active() const { return !path_.empty(); }

  /// Record one measured series, plus row-level `extras` (ratios against
  /// another series) after the series' own.
  void add(const std::string& name, const Series& s, Extras extras = {});

 private:
  std::string path_;
  struct Row {
    std::string name;
    Series series;
    Extras extras;
  };
  std::vector<Row> rows_;
};

}  // namespace ffsva::bench
