// Engine benchmark: end-to-end and per-layer costs of the threaded
// core::FfsVaInstance on two offline workloads of four desynchronised
// streams each.
//
//   engine_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--git-rev REV]
//   engine_bench --self-test
//
// Every invocation sets its inputs up several times from the seed, then
// runs a fresh engine over them again and again for S seconds, checking
// every run's emitted frames against the sequential cascade. --trace 0
// reports the end-to-end metrics of those untraced runs. --trace 1
// alternates untraced and traced runs, probes each layer afterwards, and
// reports the per-layer metrics. The last line of standard output is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// run.py builds this binary and runs it; see BENCHMARK.json at the root.
//
// Two choices keep the figures comparable from run to run on a shared
// host. Every seed offers the same frames of one fixed camera, cut into
// four streams at seed-chosen points (workload.cpp), so seeds differ in how
// work is spread over streams, not in how much there is. And each time
// figure is the median over the many short runs that fill an invocation's
// --seconds, which should be long enough to outlast most of the spells in
// which a shared host runs slow; each run's share of host steal
// (/proc/stat) is printed, so a noisy invocation can be told apart.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "runtime/parallel_for.hpp"
#include "stats.hpp"
#include "workload.hpp"

#ifndef ENGINEBENCH_BUILD_TYPE
#define ENGINEBENCH_BUILD_TYPE "unknown"
#endif

namespace enginebench {

int self_test();  // selftest.cpp

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per invocation; set-up time is taken over all of them.
constexpr int kSetups = 3;
/// Untraced runs per invocation never fall below this, however slow.
constexpr int kMinRuns = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string git_rev = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--git-rev") {
      a.git_rev = v;
    } else {
      return false;
    }
  }
  return a.self_test || (!a.workload.empty() && a.seconds > 0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Metrics in output order, each with its unit.
class MetricSet {
 public:
  /// A value that could not be computed is reported as 0 and fails the run.
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::printf("# FAIL: %s could not be computed\n", name.c_str());
      computed_ = false;
      value = 0.0;
    }
    rows_.push_back({name, value, unit});
  }
  bool computed() const { return computed_; }
  std::string json() const {
    std::ostringstream os;
    os.precision(10);
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i) os << ", ";
      os << "\"" << rows_[i].name << "\": {\"value\": " << rows_[i].value
         << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }
  void print_table() const {
    for (const auto& r : rows_) {
      std::printf("  %-36s %14.4f %s\n", r.name.c_str(), r.value, r.unit);
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
  bool computed_ = true;
};

double fps_of(const RunResult& r) { return static_cast<double>(r.ingested) / r.wall_s; }
double wall_ms_per_kframe(const RunResult& r) {
  return r.ingested ? r.wall_s * 1e6 / static_cast<double>(r.ingested) : 0.0;
}
double cpu_ms_per_kframe(const RunResult& r) {
  return r.ingested ? r.cpu_s * 1e6 / static_cast<double>(r.ingested) : 0.0;
}

/// Sum of span durations (µs) whose name is one of `names`.
double span_us(const std::vector<telemetry::Span>& spans,
               std::initializer_list<const char*> names) {
  double us = 0.0;
  for (const auto& s : spans) {
    for (const char* n : names) {
      if (std::strcmp(s.name, n) == 0) {
        us += static_cast<double>(s.t_end_us - s.t_start_us);
        break;
      }
    }
  }
  return us;
}

/// Gaps between one next() span's end and the following one's start on the
/// same stream: the time the prefetch thread spent in the engine between
/// pulls, i.e. backpressure. Returns {sum in ms, number of gaps}.
std::pair<double, std::uint64_t> source_wait(const std::vector<telemetry::Span>& spans) {
  std::map<int, std::vector<const telemetry::Span*>> by_stream;
  for (const auto& s : spans) by_stream[s.stream].push_back(&s);
  double ms = 0.0;
  std::uint64_t gaps = 0;
  for (auto& [stream, v] : by_stream) {
    std::sort(v.begin(), v.end(),
              [](const auto* a, const auto* b) { return a->frame < b->frame; });
    for (std::size_t k = 0; k + 1 < v.size(); ++k) {
      ms += static_cast<double>(v[k + 1]->t_start_us - v[k]->t_end_us) * 1e-3;
      ++gaps;
    }
  }
  return {ms, gaps};
}

/// Mean of a registry histogram summed over runs (exact: sum / count).
double histogram_mean(const std::vector<RunResult>& runs, const char* name) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& r : runs) {
    if (const auto* h = r.metrics.histogram(name)) {
      sum += h->sum;
      count += h->count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

/// Per-layer metrics from the traced runs, the layer probes and the set-up.
void add_layer_metrics(MetricSet& m, const WorkloadSpec& spec, const Inputs& in,
                       const Expected& expected, const std::vector<RunResult>& plain,
                       const std::vector<RunResult>& traced, double plain_cpu_kf,
                       const std::vector<SetupTimes>& setups) {
  const LayerProbe probe = probe_layers(spec, in, expected);
  double wall_us = 0.0, sdd_us = 0.0, gpu0_us = 0.0, ref_us = 0.0, wait_ms = 0.0;
  double qn = 0.0, qsdd = 0.0, qsnm = 0.0, qty = 0.0, qref = 0.0;
  std::uint64_t gaps = 0;
  int pool = 1;
  std::vector<double> traced_cpu;
  for (const auto& r : traced) {
    wall_us += r.wall_s * 1e6;
    sdd_us += span_us(r.engine_spans, {"sdd.filter"});
    gpu0_us += span_us(r.engine_spans, {"snm.batch", "tyolo.batch"});
    ref_us += span_us(r.engine_spans, {"ref.batch", "ref.detect"});
    const auto [ms, n] = source_wait(r.source_spans);
    wait_ms += ms;
    gaps += n;
    const double k = r.queues.samples;
    qn += k;
    qsdd += r.queues.sdd * k;
    qsnm += r.queues.snm * k;
    qty += r.queues.tyolo * k;
    qref += r.queues.ref * k;
    pool = r.sdd_pool;
    traced_cpu.push_back(cpu_ms_per_kframe(r));
  }
  const auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };

  // Funnel counts are exact and the same in every run.
  const core::StreamStats& f = plain.front().funnel;
  std::uint64_t ref_positive = 0, emitted = 0;
  double cpu_s = 0.0, run_wall_s = 0.0;
  for (const auto& r : plain) {
    ref_positive += r.ref_positive;
    emitted += r.verdict.emitted;
    cpu_s += r.cpu_s;
    run_wall_s += r.wall_s;
  }
  // Engine CPU the probed layer costs account for, per 1000 ingested frames.
  const double explained_us =
      (spec.stored ? probe.decode.cpu_us * static_cast<double>(f.prefetch.in) : 0.0) +
      probe.sdd.cpu_us * static_cast<double>(f.sdd.in) +
      probe.snm_batch16.cpu_us * static_cast<double>(f.snm.in) +
      probe.tyolo.cpu_us * static_cast<double>(f.tyolo.in) +
      probe.ref_batch8.cpu_us * static_cast<double>(f.ref.in);
  const double ingested = static_cast<double>(f.prefetch.passed);
  const double nproc = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<double> render, specialize, encode;
  for (const auto& t : setups) {
    render.push_back(t.render_s);
    specialize.push_back(t.specialize_s);
    encode.push_back(t.encode_s);
  }
  const double traced_cpu_kf = median(traced_cpu);

  m.add("video.decode_us_per_frame", probe.decode.wall_us, "us");
  m.add("video.source_wait_ms_per_frame", gaps ? wait_ms / static_cast<double>(gaps) : 0.0, "ms");
  m.add("detect.sdd.distance_us", probe.sdd.wall_us, "us");
  m.add("detect.snm.batch16_us_per_frame", probe.snm_batch16.wall_us, "us");
  m.add("detect.tyolo.detect_us", probe.tyolo.wall_us, "us");
  m.add("detect.ref.batch8_us_per_frame", probe.ref_batch8.wall_us, "us");
  m.add("detect.sdd.pass_rate", ratio(f.sdd.passed, f.sdd.in), "ratio");
  m.add("detect.snm.pass_rate", ratio(f.snm.passed, f.snm.in), "ratio");
  m.add("detect.tyolo.pass_rate", ratio(f.tyolo.passed, f.tyolo.in), "ratio");
  m.add("detect.ref.positive_rate", ratio(ref_positive, emitted), "ratio");
  m.add("nn.gemm_gflops", probe.gemm_gflops, "GFLOP/s");
  m.add("runtime.parallel_for_dispatch_us", probe.parallel_for_dispatch_us, "us");
  m.add("core.busy.sdd_pool", share(sdd_us, wall_us * pool), "ratio");
  m.add("core.busy.gpu0", share(gpu0_us, wall_us), "ratio");
  m.add("core.busy.ref", share(ref_us, wall_us), "ratio");
  m.add("core.queue.sdd_mean", share(qsdd, qn), "frames");
  m.add("core.queue.snm_mean", share(qsnm, qn), "frames");
  m.add("core.queue.tyolo_mean", share(qty, qn), "frames");
  m.add("core.queue.ref_mean", share(qref, qn), "frames");
  m.add("core.snm_batch_mean", histogram_mean(traced, "executor.batch_size"), "frames");
  m.add("core.ref_batch_mean", histogram_mean(traced, "executor.ref_batch_size"), "frames");
  m.add("core.tyolo_take_mean", histogram_mean(traced, "executor.tyolo_take"), "frames");
  m.add("core.cpu_utilization", share(cpu_s, run_wall_s * nproc), "ratio");
  m.add("core.unexplained_cpu_ms_per_kframe",
        plain_cpu_kf - share(explained_us, ingested), "ms");
  m.add("setup.render_s", median(render), "s");
  m.add("setup.specialize_s", median(specialize), "s");
  m.add("setup.encode_s", median(encode), "s");
  m.add("trace.overhead_pct", 100.0 * share(traced_cpu_kf - plain_cpu_kf, plain_cpu_kf), "%");
}

int run_benchmark(const Args& args) {
  const WorkloadSpec spec = find_workload(args.workload);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const CpuJiffies start = read_cpu_jiffies();
  const char* threads_env = std::getenv("FFSVA_THREADS");
  std::printf("# header {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
              "\"trace\": %d, \"git_rev\": \"%s\", \"build_type\": \"%s\", "
              "\"nproc\": %ld, \"ffsva_threads\": \"%s\", \"compute_parallelism\": %d}\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.git_rev.c_str(),
              ENGINEBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
              threads_env ? threads_env : "", runtime::compute_parallelism());

  // --- set-up, several times; every set-up must produce the same inputs --
  // Freed heap goes back to the OS between set-ups and runs, so peak RSS
  // is one set of inputs plus one run, however many runs fit the time.
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s, setup_steal;
  std::unique_ptr<Inputs> in;
  std::vector<double> fingerprint;
  bool deterministic = true;
  for (int k = 0; k < kSetups; ++k) {
    in.reset();
    malloc_trim(0);
    const CpuJiffies j0 = read_cpu_jiffies();
    in = make_inputs(spec, args.seed);
    setup_steal.push_back(steal_share(j0, read_cpu_jiffies()));
    setups.push_back(in->times);
    setup_s.push_back(in->times.total_s());
    if (k == 0) fingerprint = in->fingerprint;
    deterministic = deterministic && in->fingerprint == fingerprint;
  }
  decode_windows(*in);
  const Expected expected = sequential_cascade(*in, core::FfsVaConfig{}.number_of_objects);
  const std::set<FrameKey> expected_keys = expected_set(expected);

  // --- measured runs ------------------------------------------------------
  // Whole-window runs, each on a fresh instance, until the time is spent.
  // Traced invocations alternate untraced and traced runs, so the tracing
  // overhead compares like with like.
  std::vector<RunResult> plain, traced;
  const auto t0 = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  for (int k = 0; static_cast<int>(plain.size()) < kMinRuns || elapsed() < args.seconds; ++k) {
    malloc_trim(0);
    const bool trace_run = args.trace && k % 2 == 1;
    (trace_run ? traced : plain).push_back(run_engine(spec, *in, expected_keys, trace_run));
  }

  // --- gate ---------------------------------------------------------------
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  for (const auto* runs : {&plain, &traced}) {
    for (const auto& r : *runs) {
      attempted += r.offered;
      mismatches += r.verdict.mismatches;
      failed += r.verdict.mismatches + r.ingest_drops + r.degraded;
      std::printf("# run%s: %.3f s, %llu frames, %.1f fps, %.1f cpu ms/kframe, "
                  "emitted %llu/%llu, missing %llu, extra %llu, drops %llu, "
                  "degraded %llu, steal %.1f%%\n",
                  runs == &traced ? " (traced)" : "", r.wall_s,
                  static_cast<unsigned long long>(r.ingested), fps_of(r),
                  cpu_ms_per_kframe(r),
                  static_cast<unsigned long long>(r.verdict.emitted),
                  static_cast<unsigned long long>(r.verdict.expected),
                  static_cast<unsigned long long>(r.verdict.missing),
                  static_cast<unsigned long long>(r.verdict.extra),
                  static_cast<unsigned long long>(r.ingest_drops),
                  static_cast<unsigned long long>(r.degraded), 100.0 * r.steal_share);
    }
  }
  bool correct = deterministic && failed == 0;
  if (!deterministic) std::printf("# FAIL: repeated set-ups produced different inputs\n");

  // --- figures: medians over the runs -------------------------------------
  // fps is the inverse of the median wall time per frame.
  std::vector<double> steal, wall_kf, cpu_kf;
  for (const auto& r : plain) {
    steal.push_back(r.steal_share);
    wall_kf.push_back(wall_ms_per_kframe(r));
    cpu_kf.push_back(cpu_ms_per_kframe(r));
  }
  const double wall_ms_kf = median(wall_kf);
  const double cpu_ms_kf = median(cpu_kf);
  std::printf("# medians: steal %.1f%% (runs) %.1f%% (set-ups)\n", 100.0 * median(steal),
              100.0 * median(setup_steal));

  MetricSet m;
  if (!args.trace) {
    m.add("fps", wall_ms_kf > 0 ? 1e6 / wall_ms_kf : NAN, "1/s");
    m.add("setup_s", median(setup_s), "s");
    m.add("cpu_ms_per_kframe", cpu_ms_kf, "ms");
    m.add("verdict_agreement", 1.0 - ratio(mismatches, attempted), "ratio");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    add_layer_metrics(m, spec, *in, expected, plain, traced, cpu_ms_kf, setups);
  }
  correct = correct && m.computed();

  const CpuJiffies end = read_cpu_jiffies();
  std::printf("# host: steal %llu jiffies (%.1f%% of all CPU time), user %llu jiffies\n",
              static_cast<unsigned long long>(end.steal - start.steal),
              100.0 * steal_share(start, end),
              static_cast<unsigned long long>(end.user - start.user));
  const core::StreamStats& f = plain.front().funnel;
  std::printf("# funnel per run: %llu frames, sdd passed %llu, snm passed %llu, "
              "tyolo passed %llu; %zu runs\n",
              static_cast<unsigned long long>(f.sdd.in),
              static_cast<unsigned long long>(f.sdd.passed),
              static_cast<unsigned long long>(f.snm.passed),
              static_cast<unsigned long long>(f.tyolo.passed),
              plain.size() + traced.size());
  m.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  return 0;
}

}  // namespace
}  // namespace enginebench

int main(int argc, char** argv) {
  enginebench::Args args;
  if (!enginebench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: engine_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--git-rev REV] | --self-test\n");
    return 2;
  }
  if (args.self_test) return enginebench::self_test();
  try {
    return enginebench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine_bench: %s\n", e.what());
    return 1;
  }
}
