// Figure 3 — throughput and latency vs number of video streams, TOR 0.103.
//
// Paper: FFS-VA supports up to 30 concurrent 30-FPS streams (7x the
// YOLOv2 baseline's 4); the dynamic batch variant supports ~20% fewer but
// halves latency; latencies reach seconds near the limit.
//
// Method: specialize real filters on a jackson-profile stream at TOR 0.103,
// record a real-filter trace, calibrate the Markov outcome model from it,
// then sweep stream counts in the discrete-event simulator (calibrated to
// the paper's device speeds; see DESIGN.md).
#include "common.hpp"

using namespace ffsva;

int main() {
  bench::print_header(
      "FIGURE 3 -- online throughput & latency vs #streams (TOR ~= 0.103)");

  std::printf("Specializing stream and recording real-filter trace...\n");
  auto stream = bench::build_stream(video::jackson_profile(), 0.103, 42, 1000, 2000, 6);
  const auto thresholds = core::thresholds_of(stream.models, 1);
  const auto params = sim::MarkovParams::from_trace(stream.trace, thresholds);
  std::printf("Trace-calibrated model: tor=%.3f scene_len=%.0f  "
              "pass(in/out): sdd %.2f/%.2f snm %.2f/%.2f tyolo %.2f/%.2f\n\n",
              params.tor, params.mean_scene_len, params.sdd_in, params.sdd_out,
              params.snm_in, params.snm_out, params.ty_in, params.ty_out);

  core::FfsVaConfig fb_cfg;
  fb_cfg.batch_policy = core::BatchPolicy::kFeedback;
  core::FfsVaConfig dyn_cfg;
  dyn_cfg.batch_policy = core::BatchPolicy::kDynamic;

  std::printf("%-9s | %-28s | %-28s | %-20s\n", "", "FFS-VA (feedback queue)",
              "FFS-VA (dynamic batch)", "YOLOv2 baseline");
  std::printf("%-9s | %9s %8s %8s | %9s %8s %8s | %9s %9s\n", "#streams",
              "thr(FPS)", "drop", "p50(ms)", "thr(FPS)", "drop", "p50(ms)",
              "thr(FPS)", "drop");
  bench::print_rule();
  for (int n : {1, 2, 4, 8, 12, 16, 20, 24, 26, 28, 30, 32}) {
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
  const auto probe = bench::sim_setup_from(params, fb_cfg, 1, true, 100000, 90.0);
  const int base_max = sim::max_realtime_streams(probe, 1, 12, 0.01, true);
  const int fb_max = sim::max_realtime_streams(
      bench::sim_setup_from(params, fb_cfg, 1, true, 100000, 90.0), 1, 48, 0.01);
  const int dyn_max = sim::max_realtime_streams(
      bench::sim_setup_from(params, dyn_cfg, 1, true, 100000, 90.0), 1, 48, 0.01);
  std::printf("Max real-time streams: baseline=%d  feedback=%d  dynamic=%d\n",
              base_max, fb_max, dyn_max);
  std::printf("Paper:                 baseline=4  FFS-VA~=30 (dynamic ~20%% fewer)\n");
  std::printf("Speedup over baseline: %.1fx (paper: ~7x)\n",
              static_cast<double>(fb_max) / std::max(1, base_max));
  return 0;
}
