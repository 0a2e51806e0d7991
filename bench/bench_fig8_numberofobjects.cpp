// Figure 8 — number of output frames and error rate as a function of
// NumberofObjects.
//
// Paper: (a) car detection, TOR 0.197 — output drops steeply (~80%) by
// N=3 because the road scene holds at most ~3 cars; (b) person detection,
// TOR 1.000 — output decreases gradually and approaches 0 past N~12; the
// error rate is relatively high because T-YOLO undercounts small dense
// persons, and tolerating 1-2 miscounted objects cuts the error by 80.7% /
// 94.8% at a 12.6% / 22.2% filtering-efficiency cost (Section 5.3.3).
//
// Method: real filters, recorded traces; N swept as a threshold. The
// "tolerance" rows relax the executed threshold to N - tol while the error
// is still judged against the user's intent N (ref_count >= N).
#include "common.hpp"

using namespace ffsva;

namespace {

struct Point {
  std::int64_t output = 0;
  std::int64_t fn = 0;
  double error = 0.0;
};

/// Cascade with the executed T-YOLO threshold relaxed by `tol`, error
/// measured against intent `n`.
Point eval_with_tolerance(const std::vector<core::FrameRecord>& trace,
                          const core::CascadeThresholds& base, int n, int tol) {
  Point p;
  core::CascadeThresholds t = base;
  t.number_of_objects = std::max(1, n - tol);
  for (const auto& r : trace) {
    const bool pass = core::apply_cascade(r, t) == core::FilteredAt::kNone;
    p.output += pass;
    if (r.ref_count >= n && !pass) ++p.fn;
  }
  p.error = static_cast<double>(p.fn) / static_cast<double>(trace.size());
  return p;
}

void sweep(const char* title, bench::CalibratedStream& s, int max_n) {
  const auto base = core::thresholds_of(s.models, 1);
  std::printf("\n%s   (%zu frames)\n", title, s.trace.size());
  std::printf("%-4s %14s %12s | %20s | %20s\n", "N", "output frames", "error",
              "tol=1: out / err", "tol=2: out / err");
  bench::print_rule();
  for (int n = 1; n <= max_n; ++n) {
    const auto strict = eval_with_tolerance(s.trace, base, n, 0);
    const auto tol1 = eval_with_tolerance(s.trace, base, n, 1);
    const auto tol2 = eval_with_tolerance(s.trace, base, n, 2);
    std::printf("%-4d %14lld %12.4f | %10lld / %7.4f | %10lld / %7.4f\n", n,
                static_cast<long long>(strict.output), strict.error,
                static_cast<long long>(tol1.output), tol1.error,
                static_cast<long long>(tol2.output), tol2.error);
  }
}

}  // namespace

int main() {
  bench::print_header("FIGURE 8 -- output frames & error rate vs NumberofObjects");

  {
    auto s = bench::build_stream(video::jackson_profile(), 0.197, 63, 1200, 5000, 8);
    sweep("(a) car detection, TOR ~= 0.197", s, 5);
    std::printf(
        "(paper: ~80%% fewer output frames by N=3 -- the scene holds <=3 cars)\n");
  }
  {
    auto cfg = video::coral_profile();
    cfg.width = 256;
    cfg.height = 144;
    auto s = bench::build_stream(cfg, 1.0, 64, 1200, 5000, 8);
    sweep("(b) person detection, TOR = 1.000", s, 14);
    std::printf(
        "(paper: gradual decrease, ~0 past N~12; tolerating 1-2 objects cuts the\n"
        " error by 80.7%% / 94.8%% for a 12.6%% / 22.2%% efficiency cost)\n");
  }
  return 0;
}
