// Ablation — deep compression of the stream-specialized models
// (paper Section 5.5, "Error Rate" remedy: "Deep compression (e.g.,
// pruning, sparsity constraint) can transform a larger but more accurate
// NN model to a tiny model without compromising the accuracy of the
// prediction, resulting in a 3x throughput improvement").
//
// We compress the trained SNM (the model the GPU re-uploads on every
// stream switch) and measure: (1) how far it can be pruned/quantized
// before its filtering decisions drift, and (2) what the smaller upload
// does to end-to-end pipeline capacity via the calibrated simulator
// (switch cost scales with model bytes).
#include "common.hpp"
#include "nn/compress.hpp"

#include <sstream>

using namespace ffsva;

int main() {
  bench::print_header("ABLATION -- deep compression of the specialized SNM (Sec. 5.5)");

  std::printf("Training the SNM on a jackson stream (TOR ~= 0.25)...\n");
  auto s = bench::build_stream(video::jackson_profile(), 0.25, 91, 1200, 1500, 8);
  const double t_pre = s.models.snm->t_pre();

  // Baseline decisions over the eval trace.
  std::vector<bool> base_decision;
  base_decision.reserve(s.trace.size());
  for (const auto& r : s.trace) base_decision.push_back(r.snm_score >= t_pre);

  // Snapshot the trained weights so each sweep point starts clean.
  std::stringstream snapshot;
  s.models.snm->save(snapshot);

  std::printf("\n%-22s %10s %12s %14s\n", "compression", "agree", "FN drift",
              "model KB");
  bench::print_rule();
  struct Point {
    const char* name;
    double sparsity;
    int bits;  // 0 = keep fp32
  };
  for (const Point pt : {Point{"none (fp32)", 0.0, 0}, Point{"prune 30%", 0.3, 0},
                         Point{"prune 50%", 0.5, 0}, Point{"prune 70%", 0.7, 0},
                         Point{"prune 90%", 0.9, 0}, Point{"8-bit", 0.0, 8},
                         Point{"prune 50% + 8-bit", 0.5, 8},
                         Point{"prune 70% + 8-bit", 0.7, 8}}) {
    snapshot.clear();
    snapshot.seekg(0);
    s.models.snm->load(snapshot);
    auto& net = s.models.snm->network();
    double bytes = static_cast<double>(net.num_parameters()) * sizeof(float);
    if (pt.sparsity > 0) {
      prune_by_magnitude(net, pt.sparsity);
      bytes *= (1.0 - pt.sparsity);  // CSR-style storage of survivors
    }
    if (pt.bits > 0) {
      const auto q = nn::quantize_weights(net, pt.bits);
      bytes = bytes * pt.bits / 32.0 +
              (q.model_bytes_quant - q.total_weights * pt.bits / 8.0);
    }

    // Re-score the eval frames with the compressed model.
    std::int64_t agree = 0, new_fn = 0;
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
      const std::int64_t frame = s.eval_begin + static_cast<std::int64_t>(i);
      const double c = s.models.snm->predict(s.sim->render(frame).image);
      const bool pass = c >= t_pre;
      agree += pass == base_decision[i];
      if (!pass && base_decision[i] && s.trace[i].ref_positive) ++new_fn;
    }
    std::printf("%-22s %9.1f%% %12lld %14.1f\n", pt.name,
                100.0 * static_cast<double>(agree) /
                    static_cast<double>(s.trace.size()),
                static_cast<long long>(new_fn), bytes / 1024.0);
  }

  // System effect: smaller SNM upload -> smaller GPU0 switch cost ->
  // cheaper small (dynamic) batches. Evaluated in the GPU0-bound regime
  // (many low-TOR streams under dynamic batching, where per-batch model
  // switching is the dominant overhead).
  bench::print_header("System effect of a compressed SNM (simulator, TOR ~= 0.1)");
  const auto params = sim::MarkovParams::for_tor(0.103);
  std::printf("%-28s %12s %14s %10s\n", "SNM switch cost", "max streams",
              "p50 lat @16 (ms)", "gpu0 @16");
  bench::print_rule();
  for (const double scale : {1.0, 0.5, 0.25, 0.125}) {
    core::FfsVaConfig cfg;
    cfg.batch_policy = core::BatchPolicy::kDynamic;
    cfg.batch_size = 8;
    sim::SimSetup setup = bench::sim_setup_from(params, cfg, 1, true, 100000, 90.0);
    setup.costs.snm.switch_ms = detect::calibrated::snm().switch_ms * scale;
    const int mx = sim::max_realtime_streams(setup, 1, 48, 0.01);
    auto at16 = setup;
    at16.num_streams = 16;
    const auto r = sim::simulate_ffsva(at16);
    std::printf("x%-27.3f %12d %14.0f %10.2f\n", scale, mx,
                r.output_latency_ms.p50(), r.gpu0_utilization);
  }
  std::printf("(a 4-8x smaller model upload cheapens the per-batch model switch\n"
              " that dynamic batching amortizes -- the Section 5.5 trade-off)\n");
  return 0;
}
