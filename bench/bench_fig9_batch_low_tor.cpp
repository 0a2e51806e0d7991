// Figure 9 — throughput and latency under different batch mechanisms,
// TOR 0.203, 10 video streams.
//
// Paper: (a) static batch throughput keeps growing with BatchSize;
// feedback-queue dips slightly (~8%) at large BatchSize because frames wait
// for the queue-full level; dynamic batch trades ~16% throughput for
// (b) ~50% lower and nearly flat average latency.
//
// Also includes the feedback-queue threshold ablation from DESIGN.md.
#include "common.hpp"

using namespace ffsva;

int main() {
  bench::print_header(
      "FIGURE 9 -- batch mechanisms at TOR ~= 0.203 (10 streams, offline)");
  const auto params = sim::MarkovParams::for_tor(0.203);

  std::printf("%-10s | %-21s | %-21s | %-21s\n", "", "static batch",
              "feedback queue", "dynamic batch");
  std::printf("%-10s | %9s %9s | %9s %9s | %9s %9s\n", "BatchSize", "thr(FPS)",
              "lat(ms)", "thr(FPS)", "lat(ms)", "thr(FPS)", "lat(ms)");
  bench::print_rule();
  for (int bs : {1, 2, 4, 8, 12, 16, 20, 24, 30}) {
    double thr[3], lat[3];
    for (const auto policy : {core::BatchPolicy::kStatic, core::BatchPolicy::kFeedback,
                              core::BatchPolicy::kDynamic}) {
      core::FfsVaConfig cfg;
      cfg.batch_policy = policy;
      cfg.batch_size = bs;
      const auto r = sim::simulate_ffsva(
          bench::sim_setup_from(params, cfg, 10, false, 4000));
      thr[static_cast<int>(policy)] = r.throughput_fps;
      lat[static_cast<int>(policy)] = r.output_latency_ms.mean();
    }
    std::printf("%-10d | %9.0f %9.0f | %9.0f %9.0f | %9.0f %9.0f\n", bs, thr[0],
                lat[0], thr[1], lat[1], thr[2], lat[2]);
  }

  // Figure 9b's latency story lives in the paced (online) regime: with
  // 30-FPS arrivals the SNM queue is shallow, so the feedback mechanism
  // waits to assemble min(BatchSize, queue threshold) frames while the
  // dynamic batch takes whatever is present — "the dynamic batch mechanism
  // reduces the average latency by 50%" (Section 4.3.2).
  bench::print_header("FIGURE 9b (paced) -- latency at 10 online 30-FPS streams");
  std::printf("%-10s | %12s | %12s | %12s\n", "BatchSize", "static(ms)",
              "feedback(ms)", "dynamic(ms)");
  bench::print_rule();
  for (int bs : {1, 2, 4, 8, 12, 16, 20, 24, 30}) {
    double lat[3];
    for (const auto policy : {core::BatchPolicy::kStatic, core::BatchPolicy::kFeedback,
                              core::BatchPolicy::kDynamic}) {
      core::FfsVaConfig cfg;
      cfg.batch_policy = policy;
      cfg.batch_size = bs;
      const auto r = sim::simulate_ffsva(
          bench::sim_setup_from(params, cfg, 10, true, 100000, 60.0));
      lat[static_cast<int>(policy)] = r.output_latency_ms.mean();
    }
    std::printf("%-10d | %12.0f | %12.0f | %12.0f\n", bs, lat[0], lat[1], lat[2]);
  }
  std::printf("(paper: feedback latency grows with BatchSize; dynamic stays flat,\n"
              " ~50%% lower on average)\n");

  bench::print_header("ABLATION -- feedback-queue thresholds {SDD, SNM, T-YOLO}");
  std::printf("%-16s %10s %10s\n", "thresholds", "thr(FPS)", "lat(ms)");
  bench::print_rule();
  for (const auto& [sdd, snm, ty] :
       {std::tuple{1, 4, 1}, std::tuple{2, 10, 2}, std::tuple{4, 20, 4},
        std::tuple{8, 40, 8}}) {
    core::FfsVaConfig cfg;
    cfg.batch_policy = core::BatchPolicy::kFeedback;
    cfg.batch_size = 16;
    cfg.sdd_queue_depth = sdd;
    cfg.snm_queue_depth = snm;
    cfg.tyolo_queue_depth = ty;
    const auto r =
        sim::simulate_ffsva(bench::sim_setup_from(params, cfg, 10, false, 4000));
    std::printf("{%d,%2d,%d}%9s %10.0f %10.0f\n", sdd, snm, ty, "",
                r.throughput_fps, r.output_latency_ms.mean());
  }
  std::printf("(paper fixes {2,10,2}: small thresholds cut latency, large ones\n"
              " raise throughput at the cost of latency)\n");
  return 0;
}
