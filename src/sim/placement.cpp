#include "sim/placement.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/cluster.hpp"
#include "core/pipeline.hpp"

namespace ffsva::sim {
namespace {

// SplitMix64: deterministic per-stream demand draws without dragging a
// <random> engine's implementation-defined distributions into the result.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t& state, double lo, double hi) {
  const double u =
      static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;  // [0, 1)
  return lo + u * (hi - lo);
}

}  // namespace

PlacementResult simulate_placement(const PlacementSetup& setup) {
  core::ClusterManager manager(setup.instances, setup.config, setup.admission);
  PlacementResult r;

  std::uint64_t rng = setup.seed;
  std::vector<double> capacity(static_cast<std::size_t>(setup.instances),
                               setup.capacity_fps);
  // Per-instance cumulative served counter (what a live tyolo_served() shows)
  // and per-stream demand, keyed by the manager's stream ids.
  std::vector<double> served(static_cast<std::size_t>(setup.instances), 0.0);
  std::map<int, double> demand;
  std::vector<double> load(static_cast<std::size_t>(setup.instances), 0.0);

  const std::size_t tyolo_cap = core::queue_plan(setup.config, false).tyolo;

  int next_stream = 0;
  int rr = 0;  // round-robin cursor for the no-spare fallback
  double pending_arrivals = 0.0;
  bool hot_applied = false;

  const int ticks =
      static_cast<int>(std::ceil(setup.duration_sec / setup.dt_sec));
  for (int tick = 0; tick < ticks; ++tick) {
    const double now = tick * setup.dt_sec;

    if (!hot_applied && setup.hot_spot_at_sec >= 0.0 &&
        now >= setup.hot_spot_at_sec) {
      capacity[0] *= setup.hot_spot_factor;
      hot_applied = true;
    }

    // Recompute per-instance demand from the manager's own membership (the
    // manager re-attaches streams inside next_reforward, so it is the one
    // source of truth for who lives where).
    std::fill(load.begin(), load.end(), 0.0);
    for (const auto& [id, fps] : demand) {
      const int inst = manager.instance_of(id);
      if (inst >= 0) load[static_cast<std::size_t>(inst)] += fps;
    }

    // Advance the service counters and report exactly what a node would:
    // cumulative T-YOLO served, and a queue pinned at threshold while the
    // instance cannot keep up.
    for (int i = 0; i < setup.instances; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      served[ui] += std::min(load[ui], capacity[ui]) * setup.dt_sec;
      core::InstanceSnapshot snap;
      snap.running = true;
      snap.t_sec = now;
      core::StreamSnapshot s;
      s.id = 0;
      s.tyolo.in = static_cast<std::uint64_t>(served[ui]);
      s.tyolo_queue_depth = load[ui] > capacity[ui] ? tyolo_cap : 0;
      snap.streams.push_back(s);
      manager.report_snapshot(i, now, snap);
    }

    // Arrivals: place through the policy when any instance has demonstrated
    // spare capacity; otherwise fall back to round-robin (a control plane
    // must put the stream somewhere — nullopt means "provision a server").
    pending_arrivals += setup.arrival_per_sec * setup.dt_sec;
    while (pending_arrivals >= 1.0 && next_stream < setup.streams) {
      pending_arrivals -= 1.0;
      const int id = next_stream++;
      const auto placed = manager.place_new_stream(now);
      const int inst = placed ? *placed : (rr++ % setup.instances);
      if (placed) {
        ++r.policy_placed;
      } else {
        ++r.fallback_placed;
      }
      manager.attach_stream(id, inst);
      demand[id] = uniform(rng, setup.demand_min_fps, setup.demand_max_fps);
      ++r.placed;
    }

    // Re-forwarding: the manager both decides and re-attaches; the simulator
    // only observes the decision (and tracks hot-spot recovery).
    for (int n = 0; n < setup.max_reforwards_per_tick; ++n) {
      const auto dec = manager.next_reforward(now);
      if (!dec) break;
      ++r.reforwards;
      if (hot_applied && dec->from_instance == 0) ++r.hot_spot_moves;
    }

    if (hot_applied && r.hot_spot_drain_sec < 0.0) {
      double hot_load = 0.0;
      for (const auto& [id, fps] : demand) {
        if (manager.instance_of(id) == 0) hot_load += fps;
      }
      if (hot_load <= capacity[0]) {
        r.hot_spot_drain_sec = now - setup.hot_spot_at_sec;
      }
    }
    r.sim_time_sec = now + setup.dt_sec;
  }

  r.final_streams.resize(static_cast<std::size_t>(setup.instances));
  r.final_load_fps.assign(static_cast<std::size_t>(setup.instances), 0.0);
  for (int i = 0; i < setup.instances; ++i) {
    r.final_streams[static_cast<std::size_t>(i)] = manager.stream_count(i);
  }
  for (const auto& [id, fps] : demand) {
    const int inst = manager.instance_of(id);
    if (inst >= 0) r.final_load_fps[static_cast<std::size_t>(inst)] += fps;
  }
  for (int i = 0; i < setup.instances; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (r.final_load_fps[ui] > capacity[ui]) ++r.overloaded_final;
  }
  r.converged = r.overloaded_final == 0;
  const auto [mn, mx] =
      std::minmax_element(r.final_streams.begin(), r.final_streams.end());
  r.max_stream_spread = *mx - *mn;
  return r;
}

}  // namespace ffsva::sim
