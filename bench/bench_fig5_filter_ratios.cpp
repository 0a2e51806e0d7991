// Figure 5 — the ratio of frames executed in each filter.
//
// Paper: car detection at TOR 0.435 and person detection at TOR 0.259;
// caption: "the execution speed of the four filters is about 20K FPS,
// 2K FPS, 200 FPS, and 56 FPS respectively". SDD filters little when the
// scene is busy; SNM's share tracks TOR; T-YOLO "can all work well in any
// case".
//
// Method: real filters over real traces; the printed ratio for stage S is
// (frames actually executed by S) / (all frames).
#include "common.hpp"

using namespace ffsva;

static void report(const char* name, bench::CalibratedStream& s, int n_objects) {
  const auto t = core::thresholds_of(s.models, n_objects);
  const auto stats = core::evaluate_trace(s.trace, t);
  const double n = static_cast<double>(stats.total);
  std::printf("%-22s %8.3f %8.3f %8.3f %8.3f %8.3f\n", name, 1.0,
              stats.sdd_pass / n, stats.snm_pass / n, stats.output / n,
              stats.error_rate);
}

int main() {
  bench::print_header("FIGURE 5 -- ratio of frames executed in each filter");
  std::printf(
      "(fraction of all frames reaching each stage; real filters on real traces)\n\n");
  std::printf("%-22s %8s %8s %8s %8s %8s\n", "workload", "SDD", "SNM", "T-YOLO",
              "RefNN", "err");
  bench::print_rule();

  {
    auto s = bench::build_stream(video::jackson_profile(), 0.435, 51, 1000, 2500, 6);
    report("car    (TOR=0.435)", s, 1);
  }
  {
    auto cfg = video::coral_profile();
    cfg.width = 256;
    cfg.height = 144;
    auto s = bench::build_stream(cfg, 0.259, 52, 1000, 2500, 6);
    report("person (TOR=0.259)", s, 1);
  }

  bench::print_rule();
  std::printf(
      "Calibrated filter service speeds used by the performance simulator\n"
      "(per-frame inference + resize, from detect/cost_model.hpp):\n");
  const auto sdd = detect::calibrated::sdd();
  const auto snm = detect::calibrated::snm();
  const auto ty = detect::calibrated::tyolo();
  const auto ref = detect::calibrated::yolov2();
  auto fps = [](const detect::ModelCost& c) {
    return 1e6 / (c.per_frame_us + c.resize_us);
  };
  std::printf("  SDD %.0f FPS, SNM %.0f FPS, T-YOLO %.0f FPS, YOLOv2 %.0f FPS\n",
              fps(sdd), fps(snm), fps(ty), fps(ref));
  std::printf("  (paper: ~20K, ~2K, ~200, ~56 FPS)\n");
  return 0;
}
