// Thousand-stream placement validation (DESIGN.md §15).
//
// The cluster scheduler and this simulator share one policy object —
// core::ClusterManager — so the placement behaviour the 2-node smoke run
// exercises at small scale is validated here at the scale the paper's
// Section 4.3.1 targets: hundreds of instances' worth of streams arriving,
// being admitted to instances with demonstrated spare T-YOLO capacity, and
// being re-forwarded away from instances that overload.
//
// The model is deliberately coarser than sim/engine.cpp: each instance is a
// T-YOLO service with a fixed capacity (FPS); each stream is a demand (FPS).
// Per virtual tick the simulator synthesizes exactly the InstanceSnapshot a
// live node would report — a cumulative served counter advancing at
// min(demand, capacity), and a filter queue pinned at its threshold while
// demand exceeds capacity — and folds it through report_snapshot, the same
// entry point the socket scheduler uses. Placement and re-forward decisions
// then come from the very code under test.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/policies.hpp"

namespace ffsva::sim {

struct PlacementSetup {
  core::FfsVaConfig config;   ///< Supplies the queue thresholds.
  core::AdmissionOptions admission;
  int instances = 8;
  int streams = 1000;
  double duration_sec = 300.0;
  double dt_sec = 0.25;       ///< Snapshot cadence (virtual).
  /// Stream arrivals per virtual second (they stop once `streams` arrived).
  double arrival_per_sec = 20.0;
  /// Per-instance T-YOLO service ceiling (FPS).
  double capacity_fps = 160.0;
  /// Per-stream demand, uniform in [demand_min_fps, demand_max_fps].
  double demand_min_fps = 0.5;
  double demand_max_fps = 1.5;
  /// Hot-spot injection: at `hot_spot_at_sec` (negative = never) instance 0's
  /// capacity is multiplied by `hot_spot_factor` — a degraded server the
  /// re-forward policy must drain back under its ceiling.
  double hot_spot_at_sec = -1.0;
  double hot_spot_factor = 0.4;
  /// Re-forward decisions taken per tick, at most (a real control plane
  /// moves streams one hand-off at a time, not in bulk).
  int max_reforwards_per_tick = 4;
  std::uint64_t seed = 1;
};

struct PlacementResult {
  int placed = 0;             ///< Streams attached (== setup.streams on success).
  int policy_placed = 0;      ///< Via place_new_stream (demonstrated spare).
  int fallback_placed = 0;    ///< Round-robin while no instance showed spare.
  int reforwards = 0;         ///< Total re-forward decisions applied.
  int overloaded_final = 0;   ///< Instances with demand > capacity at the end.
  bool converged = false;     ///< No instance overloaded at the end.
  int max_stream_spread = 0;  ///< max - min per-instance stream count at end.
  std::vector<int> final_streams;      ///< Per-instance stream counts.
  std::vector<double> final_load_fps;  ///< Per-instance demand sums.
  /// Hot-spot recovery: virtual seconds from the capacity cut until the hot
  /// instance's demand fits its reduced capacity again (-1 = never / no
  /// hot spot configured), and streams moved off it after the cut.
  double hot_spot_drain_sec = -1.0;
  int hot_spot_moves = 0;
  double sim_time_sec = 0.0;
};

/// Drive core::ClusterManager under virtual time. Deterministic in `seed`.
PlacementResult simulate_placement(const PlacementSetup& setup);

}  // namespace ffsva::sim
