// Self-tests of the benchmark's own checks: the verdict gate and per-seed
// determinism of the inputs.
#include <cstdio>

#include "core/config.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace enginebench {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void test_verdict_gate() {
  const std::set<FrameKey> expected = {{0, 1}, {0, 3}, {1, 2}};
  check(verdict_gate(expected, {{0, 1}, {1, 2}, {0, 3}}, 0).mismatches == 0,
        "gate: same set in any order passes");
  const auto missing = verdict_gate(expected, {{0, 1}, {1, 2}}, 0);
  check(missing.missing == 1 && missing.mismatches == 1, "gate: missing frame flagged");
  check(verdict_gate(expected, {{0, 1}, {1, 2}}, 1).mismatches == 0,
        "gate: missing frame allowed for by a counted ingest drop");
  const auto extra = verdict_gate(expected, {{0, 1}, {0, 3}, {1, 2}, {1, 5}}, 3);
  check(extra.extra == 1 && extra.mismatches == 1,
        "gate: extra frame flagged even with ingest drops");
  check(verdict_gate(expected, {{0, 1}, {0, 1}, {0, 3}, {1, 2}}, 0).mismatches == 1,
        "gate: duplicated frame flagged");
  check(verdict_gate(expected, {{2, 1}, {0, 3}, {1, 2}}, 0).mismatches == 2,
        "gate: frame on the wrong stream is both extra and missing");
}

void test_determinism() {
  WorkloadSpec spec = find_workload("offline_busy");
  spec.frames_per_stream = 24;  // small: this checks generation, not speed
  const auto funnel = [&](std::uint64_t seed, std::vector<double>& fp) {
    auto in = make_inputs(spec, seed);
    fp = in->fingerprint;
    const Expected e = sequential_cascade(*in, core::FfsVaConfig{}.number_of_objects);
    std::vector<int> counts;
    for (const auto* stage : {&e.sdd_pass, &e.snm_pass, &e.emitted}) {
      for (const auto& s : *stage) {
        int n = 0;
        for (char c : s) n += c;
        counts.push_back(n);
      }
    }
    return counts;
  };
  std::vector<double> fa, fb, fc;
  const auto a = funnel(11, fa);
  const auto b = funnel(11, fb);
  const auto c = funnel(12, fc);
  check(a == b && fa == fb, "same seed: identical inputs and funnel counts");
  check(fa != fc, "another seed: other inputs");
}

}  // namespace

int self_test() {
  test_verdict_gate();
  test_determinism();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}

}  // namespace enginebench
