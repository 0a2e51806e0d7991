// Figure 10 — throughput and latency under different batch mechanisms,
// TOR 0.980.
//
// Paper: at high TOR most frames reach T-YOLO regardless of BatchSize, so
// BatchSize barely moves throughput; the dynamic batch mechanism still has
// the lower, flat average latency and "should be considered first".
#include "common.hpp"

using namespace ffsva;

int main() {
  bench::print_header(
      "FIGURE 10 -- batch mechanisms at TOR ~= 0.980 (10 streams, offline)");
  auto params = sim::MarkovParams::for_tor(0.98);

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
          bench::sim_setup_from(params, cfg, 10, false, 2500));
      thr[static_cast<int>(policy)] = r.throughput_fps;
      lat[static_cast<int>(policy)] = r.output_latency_ms.mean();
    }
    std::printf("%-10d | %9.0f %9.0f | %9.0f %9.0f | %9.0f %9.0f\n", bs, thr[0],
                lat[0], thr[1], lat[1], thr[2], lat[2]);
  }
  std::printf("(paper: BatchSize has little effect on throughput at high TOR;\n"
              " dynamic batching keeps the average latency low and flat)\n");
  return 0;
}
