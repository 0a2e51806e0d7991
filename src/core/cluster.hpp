// Multi-instance stream placement and re-forwarding (paper Section 4.3.1):
//
//   "when the execution speed of T-YOLO is lower than a certain level for
//    a period of time, it means this FFS-VA instance has spare ability to
//    serve extra streams. Consequently, a new stream can be considered to
//    add into the instance. In contrast, when any queue of T-YOLO or SNM
//    is longer than its predefined threshold, it means that the FFS-VA
//    instance overloads. The corresponding video stream is re-forwarded to
//    another FFS-VA instance with spare capacity immediately."
//
// ClusterManager is the pure placement policy: each instance reports its
// T-YOLO service rate and queue-overflow events; the manager admits new
// streams to instances with spare capacity and moves streams away from
// overloaded ones. It holds no threads and no sockets — embedding it in a
// real control plane (or the simulator) is the caller's job.
//
// Thread safety: a real control plane reports snapshots from sampler
// threads while placement questions arrive from an admission path, so every
// public method is serialized on one internal mutex (annotated for the
// thread-safety analysis; decision helpers are _locked private methods).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/policies.hpp"
#include "runtime/annotations.hpp"

namespace ffsva::core {

struct InstanceSnapshot;  // pipeline.hpp

struct ReforwardDecision {
  int stream_id = -1;
  int from_instance = -1;
  int to_instance = -1;
};

class ClusterManager {
 public:
  /// `config` supplies the queue thresholds behind the overload signal;
  /// `admission` the spare-capacity test.
  ClusterManager(int num_instances, const FfsVaConfig& config,
                 AdmissionOptions admission = {});

  int num_instances() const { return num_instances_; }

  /// Telemetry from instance `id` at time `now_sec`.
  void report_tyolo_service(int id, double now_sec, int frames)
      FFSVA_EXCLUDES(mu_);
  void report_queue_over_threshold(int id, double now_sec) FFSVA_EXCLUDES(mu_);

  /// Fold one live engine snapshot (FfsVaInstance::snapshot()) into the
  /// placement signals — the preferred reporting path for real instances:
  ///  * the T-YOLO served delta since the previous snapshot feeds the
  ///    admission window (a counter that went backwards re-baselines, so an
  ///    instance restart does not poison the rate);
  ///  * any stream's SNM or T-YOLO queue at/over its threshold raises the
  ///    overload signal (Section 4.3.1's re-forward trigger);
  ///  * instance health follows the snapshot: an instance with quarantined
  ///    streams stops receiving placements and becomes a re-forward source.
  void report_snapshot(int id, double now_sec, const InstanceSnapshot& snap)
      FFSVA_EXCLUDES(mu_);

  /// Health gate. Unhealthy instances never receive place_new_stream /
  /// re-forward placements and are drained by next_reforward even when
  /// their queues look fine. Set by report_snapshot; settable directly by
  /// control planes with out-of-band health signals.
  bool instance_healthy(int id) const FFSVA_EXCLUDES(mu_);
  void set_instance_health(int id, bool healthy) FFSVA_EXCLUDES(mu_);

  /// Register / remove stream membership.
  void attach_stream(int stream_id, int instance_id) FFSVA_EXCLUDES(mu_);
  void detach_stream(int stream_id) FFSVA_EXCLUDES(mu_);
  int instance_of(int stream_id) const FFSVA_EXCLUDES(mu_);
  int stream_count(int instance_id) const FFSVA_EXCLUDES(mu_);

  /// Where should a NEW stream go? Prefers an instance with demonstrated
  /// spare capacity; among candidates picks the one with the fewest
  /// streams. Returns nullopt if no instance currently shows spare
  /// capacity (caller should provision another server).
  std::optional<int> place_new_stream(double now_sec) FFSVA_EXCLUDES(mu_);

  /// If some instance is overloaded and another has spare capacity, pick
  /// one stream to move "immediately". Returns nullopt when no move is
  /// warranted. The returned stream is re-attached to the target.
  std::optional<ReforwardDecision> next_reforward(double now_sec)
      FFSVA_EXCLUDES(mu_);

  bool instance_overloaded(int id, double now_sec) const FFSVA_EXCLUDES(mu_);
  bool instance_has_spare(int id, double now_sec) FFSVA_EXCLUDES(mu_);

 private:
  struct Instance {
    AdmissionController admission;
    std::vector<int> streams;
    bool healthy = true;
    /// Snapshot-delta baseline for report_snapshot's served counter.
    std::uint64_t last_tyolo_served = 0;
    bool have_baseline = false;
    explicit Instance(const AdmissionOptions& opts)
        : admission(opts.tyolo_fps, opts.window_sec) {}
  };

  void attach_stream_locked(int stream_id, int instance_id)
      FFSVA_REQUIRES(mu_);
  void detach_stream_locked(int stream_id) FFSVA_REQUIRES(mu_);
  int stream_count_locked(int instance_id) const FFSVA_REQUIRES(mu_);
  bool overloaded_locked(int id, double now_sec) const FFSVA_REQUIRES(mu_);
  bool has_spare_locked(int id, double now_sec) FFSVA_REQUIRES(mu_);

  const int num_instances_;
  mutable runtime::Mutex mu_{runtime::rank::kClusterManager,
                             "core::ClusterManager::mu_"};
  std::vector<Instance> instances_ FFSVA_GUARDED_BY(mu_);
  std::map<int, int> stream_home_ FFSVA_GUARDED_BY(mu_);
  const FfsVaConfig config_;
};

}  // namespace ffsva::core
