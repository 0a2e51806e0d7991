// Pure helpers of the engine benchmark: the median of per-run figures, and
// the verdict gate that compares the engine's emitted frames with the
// sequential cascade. Header-only and free of engine types, so the
// self-tests exercise exactly what the measured runs use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace enginebench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One emitted or expected frame: (stream, frame index).
using FrameKey = std::pair<int, std::int64_t>;

struct VerdictReport {
  std::uint64_t expected = 0;  ///< Frames the sequential cascade emits.
  std::uint64_t emitted = 0;   ///< Frames the engine emitted.
  std::uint64_t missing = 0;   ///< Expected but not emitted.
  std::uint64_t extra = 0;     ///< Emitted but not expected (or emitted twice).
  /// Missing frames not explained by counted ingest drops, plus every extra
  /// frame: the gate's failure count.
  std::uint64_t mismatches = 0;
};

/// Compare the engine's emitted frames with the sequential cascade's
/// survivors. A frame the engine dropped at ingest (online overload) never
/// reached a filter, so up to `ingest_drops` missing frames are allowed for;
/// any extra or duplicated frame is always a mismatch.
inline VerdictReport verdict_gate(const std::set<FrameKey>& expected,
                                  const std::vector<FrameKey>& emitted,
                                  std::uint64_t ingest_drops) {
  VerdictReport r;
  r.expected = expected.size();
  r.emitted = emitted.size();
  std::set<FrameKey> seen;
  for (const FrameKey& k : emitted) {
    if (!expected.count(k) || !seen.insert(k).second) ++r.extra;
  }
  r.missing = r.expected - (r.emitted - r.extra);
  r.mismatches = r.extra + (r.missing > ingest_drops ? r.missing - ingest_drops : 0);
  return r;
}

}  // namespace enginebench
