// Table 2 — statistics of error frames in 5000 consecutive video frames
// (car detection, TOR ~= 0.25).
//
// Paper:
//   An isolated single error frame                 3
//   2-3 isolated-continuous error frames           5
//   Continuously-error frames less than 30        73
//   Continuously-error frames more than 30       140
//   ... "only about 50 frames out of 5000 are those with actual scene
//   losses"; most long runs come from a partially appeared vehicle waiting
//   at a stop line.
#include "common.hpp"
#include "core/accuracy.hpp"

using namespace ffsva;

int main() {
  bench::print_header(
      "TABLE 2 -- statistics of error frames in 5000 consecutive frames");
  std::printf("Specializing car stream (TOR ~= 0.25) and tracing 5000 frames...\n\n");

  auto s = bench::build_stream(video::jackson_profile(), 0.25, 65, 1500, 5000, 8);
  // Relaxed filtering conditions (Section 3.3): "set the real filtering
  // threshold slightly below the target threshold and forward a little more
  // frames to the follow-up filters" — the operating point under which the
  // paper reports its <2% scene-loss accuracy.
  s.models.snm->set_filter_degree(0.15);
  const auto thresholds = core::thresholds_of(s.models, 1);
  const auto fn = core::false_negative_mask(s.trace, thresholds);
  const auto runs = core::classify_error_runs(fn);
  const auto stats = core::evaluate_trace(s.trace, thresholds);

  std::printf("%-48s %10s %10s\n", "Error frame category", "measured", "paper");
  bench::print_rule();
  std::printf("%-48s %10lld %10d\n", "An isolated single error frame",
              static_cast<long long>(runs.isolated_single), 3);
  std::printf("%-48s %10lld %10d\n", "2-3 isolated-continuous error frames",
              static_cast<long long>(runs.isolated_2_3), 5);
  std::printf("%-48s %10lld %10d\n", "Continuously-error frames less than 30",
              static_cast<long long>(runs.continuous_under_30), 73);
  std::printf("%-48s %10lld %10d\n", "Continuously-error frames more than 30",
              static_cast<long long>(runs.continuous_30_plus), 140);
  bench::print_rule();
  std::printf("%-48s %10lld\n", "Total false-negative frames",
              static_cast<long long>(runs.total()));
  std::printf("%-48s %9.3f%%\n", "Frame-level error rate", 100 * stats.error_rate);

  // Scene-level accuracy: the metric users actually care about (Sec. 3.3).
  const auto pass = core::pass_mask(s.trace, thresholds);
  const auto scene = core::scene_level_accuracy(s.sim->intervals(), pass, s.eval_begin);
  std::printf("%-48s %6d of %d (%.1f%%)\n", "Scenes caught", scene.caught,
              scene.scenes, 100.0 * (1.0 - scene.loss_rate));
  std::printf("(paper: actual scene losses < 2%%)\n");
  return 0;
}
