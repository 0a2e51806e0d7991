// Section 5.2 headline — offline analysis of a single stream.
//
// Paper: "the maximum throughput FFS-VA can support is 404 FPS, which is 3x
// that supported by YOLOv2. Compared with YOLOv2 the total execution time
// is reduced by 72.3%. In addition, for a 55 GB video file, the entire
// system uses less than 8 GB CPU memory."
#include "common.hpp"

using namespace ffsva;

int main() {
  bench::print_header("HEADLINE -- offline single-stream throughput (TOR ~= 0.103)");

  std::printf("Specializing stream and recording real-filter trace...\n");
  auto stream = bench::build_stream(video::jackson_profile(), 0.103, 42, 1000, 2000, 6);
  const auto thresholds = core::thresholds_of(stream.models, 1);
  const auto params = sim::MarkovParams::from_trace(stream.trace, thresholds);

  const std::int64_t frames = 10000;
  double base_time = 0.0;
  std::printf("\n%-26s %10s %12s %12s %10s\n", "system", "thr(FPS)", "exec time(s)",
              "mean lat(ms)", "gpu0 util");
  bench::print_rule();
  {
    core::FfsVaConfig cfg;
    const auto r = sim::simulate_baseline(
        bench::sim_setup_from(params, cfg, 1, false, frames));
    base_time = r.sim_time_sec;
    std::printf("%-26s %10.0f %12.1f %12.0f %10s\n", "YOLOv2 (both GPUs)",
                r.throughput_fps, r.sim_time_sec, r.output_latency_ms.mean(), "-");
  }
  for (const auto policy : {core::BatchPolicy::kStatic, core::BatchPolicy::kFeedback,
                            core::BatchPolicy::kDynamic}) {
    core::FfsVaConfig cfg;
    cfg.batch_policy = policy;
    const auto r = sim::simulate_ffsva(
        bench::sim_setup_from(params, cfg, 1, false, frames));
    std::printf("FFS-VA (%-9s batch) %11.0f %12.1f %12.0f %9.2f\n",
                to_string(policy), r.throughput_fps, r.sim_time_sec,
                r.output_latency_ms.mean(), r.gpu0_utilization);
    if (policy == core::BatchPolicy::kFeedback) {
      std::printf("  -> speedup %.2fx over YOLOv2 (paper: 3x); execution time "
                  "reduced by %.1f%% (paper: 72.3%%)\n",
                  base_time / r.sim_time_sec,
                  100.0 * (1.0 - r.sim_time_sec / base_time));
    }
  }

  // Memory: the pipeline holds only bounded queues of frames.
  {
    core::FfsVaConfig cfg;
    const core::QueuePlan plan = core::queue_plan(cfg, /*online=*/false);
    const std::size_t frame_bytes =
        static_cast<std::size_t>(stream.cfg.width) * stream.cfg.height * 3;
    const std::size_t in_flight = plan.sdd + plan.snm + plan.tyolo + plan.ref +
                                  2 * static_cast<std::size_t>(cfg.batch_size);
    std::printf("\nBounded frame memory: ~%zu frames in flight x %zu KB/frame "
                "= %.1f MB per stream\n",
                in_flight, frame_bytes / 1024,
                static_cast<double>(in_flight * frame_bytes) / 1e6);
    std::printf("(paper: < 8 GB CPU memory while analyzing a 55 GB file --\n"
                " memory is bounded by queue depths, not by file size)\n");
  }
  return 0;
}
