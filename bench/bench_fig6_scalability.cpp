// Figure 6 — (a) maximum scalability as a function of TOR and (b) load
// balance across streams.
//
// Paper: the maximum number of supported streams grows as TOR falls; with
// TORs distributed evenly in [0, 40%] the per-stream (offline) execution
// times are nearly equal except at very low TOR — the global feedback queue
// and the per-cycle T-YOLO extraction cap keep streams balanced.
//
// Also includes the num_tyolo ablation (the per-cycle extraction cap) that
// DESIGN.md calls out.
#include "common.hpp"

using namespace ffsva;

int main() {
  bench::print_header("FIGURE 6a -- maximum real-time streams vs TOR");
  core::FfsVaConfig cfg;
  cfg.batch_policy = core::BatchPolicy::kFeedback;

  std::printf("%-8s %12s\n", "TOR", "max streams");
  bench::print_rule();
  for (double tor : {0.05, 0.103, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0}) {
    const auto params = sim::MarkovParams::for_tor(tor);
    const int mx = sim::max_realtime_streams(
        bench::sim_setup_from(params, cfg, 1, true, 100000, 90.0), 1, 64, 0.01);
    std::printf("%-8.3f %12d\n", tor, mx);
  }
  std::printf("(paper: ~30 at TOR~0.1 falling to 5-6 at TOR 1.0)\n");

  bench::print_header(
      "FIGURE 6b -- load balance (normalized execution time per stream)");
  // Ten offline streams with TORs evenly spread over [0, 0.4].
  {
    const int n = 10;
    sim::SimSetup setup;
    setup.config = cfg;
    setup.num_streams = n;
    setup.online = false;
    setup.frames_per_stream = 4000;
    setup.make_outcomes = [&](int i) {
      const double tor = 0.4 * static_cast<double>(i) / (n - 1);
      return std::make_unique<sim::MarkovOutcomes>(sim::MarkovParams::for_tor(tor),
                                                   700u + static_cast<unsigned>(i));
    };
    const auto r = sim::simulate_ffsva(setup);
    double max_finish = 0;
    for (const auto& s : r.streams)
      max_finish = std::max(max_finish, s.finish_time_sec);
    std::printf("%-8s %-8s %16s\n", "stream", "TOR", "normalized time");
    bench::print_rule();
    for (int i = 0; i < n; ++i) {
      std::printf("%-8d %-8.2f %16.3f\n", i, 0.4 * i / (n - 1),
                  r.streams[static_cast<std::size_t>(i)].finish_time_sec / max_finish);
    }
    std::printf("(paper: near-equal except the very low-TOR streams)\n");
  }

  bench::print_header(
      "ABLATION -- num_tyolo (per-stream extraction cap per T-YOLO cycle)");
  std::printf("%-10s %12s %14s\n", "num_tyolo", "max streams", "p50 lat @20 (ms)");
  bench::print_rule();
  const auto params = sim::MarkovParams::for_tor(0.103);
  for (int cap : {1, 2, 4, 8, 16}) {
    core::FfsVaConfig c = cfg;
    c.num_tyolo = cap;
    const int mx = sim::max_realtime_streams(
        bench::sim_setup_from(params, c, 1, true, 100000, 90.0), 1, 48, 0.01);
    const auto at20 =
        sim::simulate_ffsva(bench::sim_setup_from(params, c, 20, true, 100000, 90.0));
    std::printf("%-10d %12d %14.0f\n", cap, mx, at20.output_latency_ms.p50());
  }
  return 0;
}
