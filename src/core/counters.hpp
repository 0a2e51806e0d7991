// The per-stream counter schema, declared once (DESIGN.md §12).
//
// StreamCounters is what the engine counts for each stream and what the
// simulator counts for each simulated stream. for_each_field() names every
// field exactly once, in wire order, with its registry name and the metrics
// JSONL section it is exported in. Everything else walks that list: summing
// streams (operator+=), the snapshot wire (node/protocol.cpp; reordering or
// adding a field changes the layout and bumps net::kWireVersion), the
// engine's registry (FfsVaInstance::wire_metrics) and the simulator's
// metrics rows (sim/ffsva_sim.cpp). So the engine and the simulator export
// the same names in the same sections by construction.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "runtime/stats.hpp"

namespace ffsva::core {

/// Per-stream fault accounting (DESIGN.md Section 9). Faults are bounded,
/// observable events: every retry, restart, degraded frame, and quarantine
/// lands in exactly one of these counters.
struct FaultStats {
  std::uint64_t decode_errors = 0;    ///< SourceErrors raised by next().
  std::uint64_t retries = 0;          ///< Transient-error retries attempted.
  std::uint64_t restarts = 0;         ///< Source restarts attempted.
  std::uint64_t degraded_frames = 0;  ///< Frames a throwing model degraded.
  std::uint64_t discarded_frames = 0; ///< In-flight frames dumped by quarantine.
  std::uint64_t cancelled_calls = 0;  ///< Wedged calls the watchdog cancelled.
  std::uint64_t poisoned_frames = 0;  ///< Frames dropped after wedging two stages.
  bool quarantined = false;           ///< Stream was quarantined by the watchdog.

  bool any() const;
  /// Sums every counter; `quarantined` becomes "any stream quarantined".
  FaultStats& operator+=(const FaultStats& o);
  bool operator==(const FaultStats&) const = default;
};

/// Codec-aware ingest accounting (DecodePolicy, DESIGN.md §13). decode_full
/// ticks on every policy (it is simply "frames reconstructed"); the other
/// counters move only on the hinted fast path.
struct IngestStats {
  std::uint64_t decode_full = 0;     ///< Frames fully reconstructed.
  std::uint64_t decode_skipped = 0;  ///< Hint-dropped frames never decoded.
  std::uint64_t hint_passes = 0;     ///< Hint-decided SDD passes (no pixel SDD).
  std::uint64_t hint_fallbacks = 0;  ///< Borderline frames: pixel SDD ran.
  double compression_ratio = 0.0;    ///< Source bitstream raw/encoded (0 = n/a).
  bool operator==(const IngestStats&) const = default;
};

/// The per-stream counters: a finished run's StreamStats, a live
/// StreamSnapshot, the snapshot wire payload and the simulator's per-stream
/// results are all built on it.
struct StreamCounters {
  runtime::StageCounters prefetch;  ///< in = source frames, passed = ingested.
  runtime::StageCounters sdd;
  runtime::StageCounters snm;
  runtime::StageCounters tyolo;
  runtime::StageCounters ref;       ///< in = frames reaching reference model.
  std::uint64_t dropped_at_ingest = 0;
  IngestStats ingest;
  FaultStats fault;

  /// Sums every counter; compression_ratio keeps the largest.
  StreamCounters& operator+=(const StreamCounters& o);
  bool operator==(const StreamCounters&) const = default;
};

/// The metrics JSONL section a field is exported in.
enum class Section : std::uint8_t {
  kCounter,  ///< "counters", with a rate per sampling interval.
  kGauge,    ///< "gauges".
  kNone,     ///< Not exported.
};

/// One field of the schema.
struct Field {
  const char* name;  ///< Registry name.
  Section section;
  /// Set on a stage's `.in` field, whose `.passed` field is visited next:
  /// the registry name of the stage's drop count (in − passed).
  const char* drop = nullptr;
};

/// `T` is (or derives from) the counter struct `S`, const or not.
template <typename T, typename S>
concept CountersOf = std::derived_from<std::remove_const_t<T>, S>;

/// Calls `v(field, x...)` for every field of FaultStats, in wire order, where
/// `x...` is that field of each of `f...`: several structs are walked in
/// lockstep, which is how operator+= pairs them.
template <typename V, CountersOf<FaultStats>... F>
void for_each_field(V&& v, F&... f) {
  v(Field{"fault.decode_errors", Section::kGauge}, f.decode_errors...);
  v(Field{"fault.retries", Section::kGauge}, f.retries...);
  v(Field{"fault.restarts", Section::kGauge}, f.restarts...);
  v(Field{"fault.degraded_frames", Section::kGauge}, f.degraded_frames...);
  v(Field{"fault.discarded_frames", Section::kGauge}, f.discarded_frames...);
  v(Field{"fault.cancelled_calls", Section::kGauge}, f.cancelled_calls...);
  v(Field{"fault.poisoned_frames", Section::kGauge}, f.poisoned_frames...);
  v(Field{"streams.quarantined", Section::kGauge}, f.quarantined...);
}

/// The same for every field of StreamCounters, FaultStats's last.
template <typename V, CountersOf<StreamCounters>... C>
void for_each_field(V&& v, C&... c) {
  v(Field{"prefetch.in", Section::kGauge}, c.prefetch.in...);
  v(Field{"prefetch.passed", Section::kGauge}, c.prefetch.passed...);
  v(Field{"sdd.in", Section::kCounter, "drop.sdd"}, c.sdd.in...);
  v(Field{"sdd.passed", Section::kCounter}, c.sdd.passed...);
  v(Field{"snm.in", Section::kCounter, "drop.snm"}, c.snm.in...);
  v(Field{"snm.passed", Section::kCounter}, c.snm.passed...);
  v(Field{"tyolo.in", Section::kCounter, "drop.tyolo"}, c.tyolo.in...);
  v(Field{"tyolo.passed", Section::kCounter}, c.tyolo.passed...);
  v(Field{"ref.in", Section::kCounter, "drop.ref"}, c.ref.in...);
  v(Field{"ref.passed", Section::kCounter}, c.ref.passed...);
  v(Field{"drop.ingest", Section::kGauge}, c.dropped_at_ingest...);
  v(Field{"decode.full", Section::kGauge}, c.ingest.decode_full...);
  v(Field{"decode.skipped", Section::kGauge}, c.ingest.decode_skipped...);
  v(Field{"sdd.hint_pass", Section::kGauge}, c.ingest.hint_passes...);
  v(Field{"sdd.hint_fallback", Section::kGauge}, c.ingest.hint_fallbacks...);
  v(Field{"ingest.compression_ratio", Section::kNone}, c.ingest.compression_ratio...);
  for_each_field(v, c.fault...);
}

namespace counters_detail {
/// How streams sum: counts add, the compression ratio keeps the largest, and
/// a flag reads "set on any stream".
inline constexpr auto fold = [](const Field&, auto& sum, const auto& x) {
  using T = std::remove_cvref_t<decltype(sum)>;
  if constexpr (std::is_same_v<T, bool>) {
    sum = sum || x;
  } else if constexpr (std::is_same_v<T, double>) {
    sum = std::max(sum, x);
  } else {
    sum += x;
  }
};

/// Field `at` (in visit order) of `c` as a count; a flag reads 0 or 1.
inline std::uint64_t count_at(const StreamCounters& c, std::size_t at) {
  std::uint64_t n = 0;
  std::size_t i = 0;
  for_each_field(
      [&](const Field&, const auto& x) {
        if (i++ == at) n = static_cast<std::uint64_t>(x);
      },
      c);
  return n;
}
}  // namespace counters_detail

inline bool FaultStats::any() const {
  bool any = false;
  for_each_field([&any](const Field&, const auto& x) { any = any || x != 0; }, *this);
  return any;
}

inline FaultStats& FaultStats::operator+=(const FaultStats& o) {
  for_each_field(counters_detail::fold, *this, o);
  return *this;
}

inline StreamCounters& StreamCounters::operator+=(const StreamCounters& o) {
  for_each_field(counters_detail::fold, *this, o);
  return *this;
}

/// Calls `emit(name, section, read)` for every metric the schema exports,
/// where `read(c)` is the metric's value for one stream's counters `c`; the
/// engine registry and the simulator each sum it over their streams. A flag
/// reads 0 or 1, so streams.quarantined counts the quarantined streams. A
/// stage's drop count saturates: a live read may see `passed` ahead of `in`.
template <typename Emit>
void for_each_metric(Emit&& emit) {
  std::size_t i = 0;
  const StreamCounters layout;
  for_each_field(
      [&](const Field& f, const auto&) {
        const std::size_t at = i++;
        if (f.section == Section::kNone) return;
        emit(f.name, f.section, [at](const StreamCounters& c) {
          return counters_detail::count_at(c, at);
        });
        if (f.drop == nullptr) return;
        emit(f.drop, f.section, [at](const StreamCounters& c) {
          const std::uint64_t in = counters_detail::count_at(c, at);
          const std::uint64_t passed = counters_detail::count_at(c, at + 1);
          return in > passed ? in - passed : std::uint64_t{0};
        });
      },
      layout);
}

}  // namespace ffsva::core
