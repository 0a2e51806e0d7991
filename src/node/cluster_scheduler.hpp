// ClusterScheduler: the cluster control plane (DESIGN.md §15). It owns the
// placement policy — core::ClusterManager, the same object the simulator
// validates at thousand-stream scale — and drives it over sockets against
// real ffsva_node processes:
//
//   * initial placement   place_new_stream() picks a node; the spec goes
//                         out as kAssignStream.
//   * load feedback       every snapshot_interval_ms each node's
//                         InstanceSnapshot is polled and folded into the
//                         manager (report_snapshot), which keeps the
//                         admission windows and overload signals live.
//   * re-forwarding       next_reforward() decisions become real hand-offs:
//                         kEndStream to the source, wait for the stream to
//                         quiesce (kResults + kStreamEnded carrying the
//                         resume cursor), then kAssignStream of the
//                         remainder to the target.
//
// Stream results (per-frame survivor indices) are merged across every node
// that served a segment of the stream; because specs materialize
// deterministically and quiescence is exact, the merged set is bit-identical
// to a single-process run of the same specs — run_local() computes that
// reference for the --verify-local mode.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "net/channel.hpp"
#include "net/socket.hpp"
#include "node/protocol.hpp"
#include "node/stream_spec.hpp"

namespace ffsva::node {

struct SchedOptions {
  int snapshot_interval_ms = 100;
  /// Minimum spacing between policy-driven re-forwards. Offline (flat-out)
  /// nodes sit permanently at their queue thresholds, so the raw overload
  /// signal would ping-pong streams between saturated nodes every loop;
  /// the gap bounds the churn without touching the policy itself.
  double reforward_min_gap_sec = 2.0;
  /// Share of its window (0..1) a served stream must have ingested, per its
  /// node's latest snapshot, before one forced hand-off is injected (the
  /// cluster-smoke / CI migration exercise): the stream with the most
  /// frames left to ingest moves to the next node. Progress, not wall
  /// time, so the hand-off lands mid-window however fast the host is. A
  /// drain that races the stream's own end is no hand-off, so the next
  /// stream is tried. Negative disables.
  double force_migration_at_fraction = -1.0;
  /// Give-up deadline for the whole run (0 = none). A wedged node trips
  /// this instead of hanging the scheduler forever.
  double deadline_sec = 0.0;
  bool verbose = false;
};

struct StreamOutcome {
  std::uint32_t stream_id = 0;
  std::vector<std::uint64_t> emitted;  ///< Merged survivor indices, sorted.
  std::uint64_t ingested = 0;          ///< Summed across serving segments.
  int handoffs = 0;                    ///< Times the stream moved mid-serve.
};

struct ClusterReport {
  bool ok = false;            ///< Every stream ran to completion.
  double wall_sec = 0.0;
  int handoffs = 0;           ///< Total migrations performed.
  std::uint64_t total_emitted = 0;
  std::vector<StreamOutcome> streams;      ///< Sorted by stream id.
  std::vector<double> handoff_ms;          ///< Per-migration end→resume gap.
  std::uint64_t snapshot_frames = 0;       ///< Snapshot polls performed.

  double handoff_p99_ms() const;
  const StreamOutcome* outcome(std::uint32_t stream_id) const;
};

class ClusterScheduler {
 public:
  /// `nodes` are the ffsva_node control endpoints; `config` supplies the
  /// queue thresholds exactly as a single-process ClusterManager embedding
  /// would, and admission uses the paper's core::AdmissionOptions defaults.
  ClusterScheduler(std::vector<net::Endpoint> nodes,
                   const core::FfsVaConfig& config, SchedOptions opts = {});

  /// Place and serve every spec to completion (including any hand-offs),
  /// then stop all nodes. Blocks until done or the deadline trips.
  ClusterReport run(const std::vector<StreamSpec>& specs);

  net::NetCounters& counters() { return counters_; }

 private:
  struct StreamState {
    StreamSpec spec;           ///< Current segment (begin advances on resume).
    int node = -1;             ///< Serving node index; -1 once finished.
    bool draining = false;     ///< kEndStream sent, awaiting kStreamEnded.
    bool done = false;
    std::int64_t drain_t0_ms = 0;  ///< Hand-off latency clock.
    int pending_target = -1;   ///< Where the remainder goes (-1: natural end).
    bool forced = false;       ///< The drain in flight is the forced hand-off.
    /// Frames of the current segment ingested, per the serving node's
    /// latest snapshot.
    std::uint64_t ingested = 0;
    StreamOutcome outcome;
  };

  bool connect_all();
  bool assign(int node, const StreamSpec& spec, bool resume);
  void start_migration(std::uint32_t stream_id, int target);
  /// Inject the forced hand-off once some served stream has ingested
  /// SchedOptions::force_migration_at_fraction of its window.
  void force_migration();
  void dispatch(int node, const net::WireFrame& frame);
  void on_stream_ended(int node, const StreamEnded& ended);
  /// Perform the queued second halves of hand-offs. Called only from the
  /// top-level run() loop: assign() drains channel frames while waiting for
  /// its ack, so starting a resume from inside dispatch() would nest two
  /// recv loops on one channel and let the inner one swallow the outer ack.
  void flush_resumes();
  void poll_snapshots(double now_sec);
  void stop_all();

  std::vector<net::Endpoint> endpoints_;
  core::FfsVaConfig config_;
  SchedOptions opts_;
  net::NetCounters counters_;
  std::vector<net::ReconnectingClient> clients_;
  core::ClusterManager manager_;
  std::map<std::uint32_t, StreamState> streams_;
  /// Hand-offs whose source segment has ended, awaiting reassignment.
  std::vector<std::uint32_t> resume_queue_;
  ClusterReport report_;
  std::int64_t t0_ms_ = 0;
  std::int64_t last_reforward_ms_ = 0;
  bool forced_done_ = false;
};

/// Single-process reference: run the same specs in one serve-mode engine
/// and return the per-stream survivor sets. The distributed run must match
/// this bit-identically (offline pacing — no load-dependent ingest drops).
std::vector<StreamOutcome> run_local(const std::vector<StreamSpec>& specs,
                                     const core::FfsVaConfig& config);

/// The default spec fleet the CLI / smoke tests use: `count` streams over
/// the two workload profiles with per-stream seeds, `frames` serving frames
/// each, sized `w`x`h` (0 = profile default).
std::vector<StreamSpec> make_specs(int count, std::uint64_t frames,
                                   std::uint32_t calib, int w, int h);

}  // namespace ffsva::node
