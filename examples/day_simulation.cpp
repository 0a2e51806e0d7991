// A day in the life of an FFS-VA deployment.
//
// Ties together the long-horizon machinery: a diurnal TOR schedule drives
// per-hour workload intensity across a fleet of cameras; the calibrated
// simulator evaluates each hour's load on a two-server cluster; the
// ClusterManager admits and re-forwards streams between instances as the
// day heats up (paper Section 4.3.1's control loop); and a
// SceneChangeMonitor demo shows the Section 5.5 "scene switch" detector
// firing when a camera is bumped mid-day.
//
// Build & run:  ./build/examples/day_simulation
#include <cstdio>

#include "core/cluster.hpp"
#include "detect/scene_change.hpp"
#include "runtime/rng.hpp"
#include "sim/ffsva_sim.hpp"
#include "video/tor_schedule.hpp"

using namespace ffsva;

int main() {
  constexpr int kCameras = 36;
  constexpr int kInstances = 2;

  // --- The day -------------------------------------------------------------
  video::TorScheduleConfig tor_cfg;
  tor_cfg.pattern = video::TorPattern::kDiurnal;
  tor_cfg.base_tor = 0.10;
  tor_cfg.amplitude = 0.9;
  video::TorSchedule schedule(tor_cfg, 7);

  core::FfsVaConfig config;
  config.batch_policy = core::BatchPolicy::kFeedback;
  core::ClusterManager cluster(kInstances, config);
  // Deliberately unbalanced initial placement (as deployments grow
  // organically): instance 0 carries two thirds of the cameras.
  for (int cam = 0; cam < kCameras; ++cam) {
    cluster.attach_stream(cam, (cam % 3) < 2 ? 0 : 1);
  }

  std::printf("%d cameras, %d FFS-VA instances, diurnal TOR %.2f +/- %.0f%%\n\n",
              kCameras, kInstances, tor_cfg.base_tor, 100 * tor_cfg.amplitude);
  std::printf("%-6s %-6s | %-22s | %-10s %-10s\n", "hour", "TOR",
              "per-instance capacity", "placement", "action");
  std::printf("--------------------------------------------------------------\n");

  runtime::Xoshiro256 rng(99);
  for (int hour = 0; hour < 24; hour += 2) {
    const double tor = schedule.tor_at(hour * 3600.0);

    // Capacity of one instance at this hour's TOR.
    const auto params = sim::MarkovParams::for_tor(tor);
    sim::SimSetup probe;
    probe.config = config;
    probe.online = true;
    probe.duration_sec = 45.0;
    probe.frames_per_stream = 1000000;
    probe.make_outcomes = [&params](int i) {
      return std::make_unique<sim::MarkovOutcomes>(params,
                                                   500u + static_cast<unsigned>(i));
    };
    const int capacity = sim::max_realtime_streams(probe, 1, 48, 0.01);

    // Feed the cluster telemetry consistent with this hour and rebalance.
    const double now = hour * 3600.0;
    const char* action = "steady";
    for (int inst = 0; inst < kInstances; ++inst) {
      const int load = cluster.stream_count(inst);
      // T-YOLO service rate per stream: frames surviving SDD+SNM
      // (in-scene frames pass almost fully; background only via the
      // distractor-motion residue).
      const double tyolo_fps =
          30.0 * load * (tor * 0.95 + (1.0 - tor) * 0.35 * 0.12);
      for (double t = now - 6.0; t <= now; t += 0.5) {
        cluster.report_tyolo_service(inst, t, static_cast<int>(tyolo_fps / 2));
      }
      if (load > capacity) {
        cluster.report_queue_over_threshold(inst, now);
        action = "overload reported";
      }
    }
    int moved = 0;
    while (auto d = cluster.next_reforward(now + 0.001 * moved)) {
      ++moved;
      if (moved >= 8) break;
    }
    if (moved > 0) action = "re-forwarded";

    std::printf("%02d:00  %-6.3f | %2d streams/instance     | %2d / %-2d    %s%s\n",
                hour, tor, capacity, cluster.stream_count(0), cluster.stream_count(1),
                action, moved ? "" : "");
  }

  // --- Scene switch (Section 5.5) -------------------------------------------
  std::printf("\nScene-switch monitor (camera 7 gets bumped at frame 5000):\n");
  detect::SceneChangeConfig scc;
  scc.window_frames = 900;
  scc.confirm_frames = 450;
  detect::SceneChangeMonitor monitor(scc, /*background_level=*/6.0);
  int fired_at = -1;
  for (int frame = 0; frame < 12000; ++frame) {
    double distance;
    if (frame < 5000) {
      const bool scene = (frame % 300) < 60;  // normal traffic
      distance = scene ? rng.uniform(150.0, 400.0) : rng.uniform(3.0, 9.0);
    } else {
      distance = rng.uniform(90.0, 200.0);  // new viewpoint: floor shifted
    }
    if (monitor.observe(distance) && fired_at < 0) fired_at = frame;
  }
  if (fired_at >= 0) {
    std::printf("  detected at frame %d (%.0f s after the bump) -> re-specialize\n",
                fired_at, (fired_at - 5000) / 30.0);
  } else {
    std::printf("  not detected (unexpected)\n");
  }
  std::printf("\nDone. See bench_fig6_scalability for the TOR-capacity curve this\n"
              "planner samples, and detect/scene_change.hpp for the monitor.\n");
  return 0;
}
