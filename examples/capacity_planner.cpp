// Capacity planner: size an FFS-VA deployment before buying hardware.
//
// Given the expected target-object ratio of your cameras, this example uses
// the calibrated discrete-event simulator to answer the operator questions
// the paper's evaluation answers for its own testbed: how many live streams
// one dual-GPU server sustains, which batch policy to run, and what
// latency to expect at the chosen operating point.
//
// Build & run:  ./build/examples/capacity_planner [tor]
#include <cstdio>
#include <cstdlib>

#include "sim/ffsva_sim.hpp"

using namespace ffsva;

namespace {

sim::SimSetup make_setup(double tor, core::BatchPolicy policy, int streams) {
  sim::SimSetup s;
  s.config.batch_policy = policy;
  s.num_streams = streams;
  s.online = true;
  s.duration_sec = 90.0;
  s.frames_per_stream = 1000000;
  s.make_outcomes = [tor](int i) {
    return std::make_unique<sim::MarkovOutcomes>(sim::MarkovParams::for_tor(tor),
                                                 77u + static_cast<unsigned>(i));
  };
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const double tor = argc > 1 ? std::atof(argv[1]) : 0.10;
  std::printf("Capacity plan for cameras with TOR ~= %.2f on one server\n"
              "(dual Xeon + 2 GPUs, models calibrated per detect/cost_model.hpp)\n\n",
              tor);

  std::printf("%-18s %12s %14s %14s\n", "policy", "max streams", "p50 lat (ms)",
              "p99 lat (ms)");
  printf("---------------------------------------------------------------\n");
  int best_streams = 0;
  for (const auto policy :
       {core::BatchPolicy::kFeedback, core::BatchPolicy::kDynamic}) {
    const int mx = sim::max_realtime_streams(make_setup(tor, policy, 1), 1, 64, 0.01);
    const auto at_max = sim::simulate_ffsva(make_setup(tor, policy, std::max(1, mx)));
    std::printf("%-18s %12d %14.0f %14.0f\n", to_string(policy), mx,
                at_max.output_latency_ms.p50(), at_max.output_latency_ms.p99());
    best_streams = std::max(best_streams, mx);
  }
  {
    const int mx =
        sim::max_realtime_streams(make_setup(tor, core::BatchPolicy::kFeedback, 1), 1,
                                  12, 0.01, /*baseline=*/true);
    std::printf("%-18s %12d %14s %14s\n", "YOLOv2 only", mx, "-", "-");
  }

  std::printf("\nServers needed per 100 cameras: %d (vs %d without filtering)\n",
              (100 + best_streams - 1) / std::max(1, best_streams),
              (100 + 3) / 4);

  // Derating curve: how head-room shrinks as the streets get busier.
  std::printf("\nDerating with TOR (feedback policy):\n  TOR     streams\n");
  for (double t : {tor, tor * 1.5, tor * 2.0, tor * 3.0}) {
    if (t > 1.0) break;
    const int mx = sim::max_realtime_streams(
        make_setup(t, core::BatchPolicy::kFeedback, 1), 1, 64, 0.01);
    std::printf("  %-7.2f %d\n", t, mx);
  }
  std::printf("\nRule of thumb from the paper: provision extra GPUs for\n"
              "latency-sensitive scenes and peak-TOR periods (Section 5.5).\n");
  return 0;
}
