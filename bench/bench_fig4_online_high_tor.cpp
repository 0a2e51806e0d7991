// Figure 4 — throughput and latency vs number of streams, TOR 1.000.
//
// Paper: "SDDs and SNMs filter out fewer video frames and most of the
// frames are still fed to the T-YOLO for filtering ... FFS-VA can only
// support 5-6 video streams in real time" and the offline throughput drops
// close to the YOLOv2 baseline.
//
// Workload: the coral (person) profile at TOR 1.0, with the evaluation's
// crowd-intensity threshold NumberofObjects = 4 — the event of interest in
// a crowd scene is "more people than usual", so the T-YOLO stage still
// filters frames whose detected person count stays below the threshold.
#include "common.hpp"

using namespace ffsva;

int main() {
  bench::print_header(
      "FIGURE 4 -- online throughput & latency vs #streams (TOR = 1.000)");

  std::printf("Specializing coral stream and recording real-filter trace...\n");
  auto cfg = video::coral_profile();
  cfg.width = 256;
  cfg.height = 144;
  const int number_of_objects = 4;
  auto stream = bench::build_stream(cfg, 1.0, 77, 1000, 1500, 6);
  const auto thresholds = core::thresholds_of(stream.models, number_of_objects);
  const auto params = sim::MarkovParams::from_trace(stream.trace, thresholds);
  std::printf(
      "Trace-calibrated model: tor=%.3f  pass(in): sdd %.2f snm %.2f tyolo %.2f\n\n",
      params.tor, params.sdd_in, params.snm_in, params.ty_in);

  core::FfsVaConfig fb_cfg;
  fb_cfg.batch_policy = core::BatchPolicy::kFeedback;
  fb_cfg.number_of_objects = number_of_objects;
  core::FfsVaConfig dyn_cfg = fb_cfg;
  dyn_cfg.batch_policy = core::BatchPolicy::kDynamic;

  std::printf("%-9s | %-28s | %-28s | %-20s\n", "", "FFS-VA (feedback queue)",
              "FFS-VA (dynamic batch)", "YOLOv2 baseline");
  std::printf("%-9s | %9s %8s %8s | %9s %8s %8s | %9s %9s\n", "#streams",
              "thr(FPS)", "drop", "p50(ms)", "thr(FPS)", "drop", "p50(ms)",
              "thr(FPS)", "drop");
  bench::print_rule();
  for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 10}) {
    const auto fb = sim::simulate_ffsva(
        bench::sim_setup_from(params, fb_cfg, n, true, 100000, 90.0));
    const auto dyn = sim::simulate_ffsva(
        bench::sim_setup_from(params, dyn_cfg, n, true, 100000, 90.0));
    const auto base = sim::simulate_baseline(
        bench::sim_setup_from(params, fb_cfg, n, true, 100000, 90.0));
    std::printf("%-9d | %9.1f %7.2f%% %8.0f | %9.1f %7.2f%% %8.0f | %9.1f %8.2f%%\n",
                n, fb.throughput_fps, 100 * fb.drop_rate,
                fb.output_latency_ms.p50(), dyn.throughput_fps,
                100 * dyn.drop_rate, dyn.output_latency_ms.p50(),
                base.throughput_fps, 100 * base.drop_rate);
  }

  bench::print_rule();
  const int fb_max = sim::max_realtime_streams(
      bench::sim_setup_from(params, fb_cfg, 1, true, 100000, 90.0), 1, 16, 0.01);
  std::printf("Max real-time streams at TOR 1.0: %d (paper: 5-6)\n", fb_max);

  // Offline at TOR 1.0: close to the baseline (Figure 4 discussion).
  const auto off = sim::simulate_ffsva(
      bench::sim_setup_from(params, fb_cfg, 1, false, 5000));
  const auto off_base = sim::simulate_baseline(
      bench::sim_setup_from(params, fb_cfg, 1, false, 5000));
  std::printf("Offline single stream: FFS-VA %.0f FPS vs baseline %.0f FPS "
              "(paper: 'close to YOLOv2')\n",
              off.throughput_fps, off_base.throughput_fps);
  return 0;
}
