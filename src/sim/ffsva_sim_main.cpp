// ffsva_sim: command-line front end for the discrete-event FFS-VA
// simulator, with live-telemetry export.
//
//   ffsva_sim --streams 16 --frames 2000 --offline
//             --metrics-out metrics.jsonl --metrics-interval-ms 100
//             --trace-out trace.json
//
// --metrics-out appends one JSONL row per (virtual) interval — the same
// schema the threaded engine's exporter writes. --trace-out writes a
// chrome://tracing / Perfetto-loadable JSON timeline of the simulated
// stages (lanes: GPU0, GPU1, CPU pool). A one-line result summary goes to
// stdout as JSON.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "sim/ffsva_sim.hpp"
#include "sim/placement.hpp"
#include "telemetry/spans.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --streams N             concurrent streams (default 8)\n"
               "  --frames N              frames per stream (default 2000)\n"
               "  --online | --offline    pacing mode (default online)\n"
               "  --fps F                 online ingest rate (default 30)\n"
               "  --duration S            online stream seconds (default 120)\n"
               "  --tor R                 target-occurrence ratio (default 0.1)\n"
               "  --baseline              YOLOv2-only baseline, no filtering\n"
               "  --label S               label stamped into metrics rows\n"
               "  --metrics-out PATH      append metrics JSONL rows\n"
               "  --metrics-interval-ms N sampling period, virtual ms (default 100)\n"
               "  --trace-out PATH        write chrome://tracing JSON\n"
               "placement mode (cluster policy at scale, DESIGN.md §15):\n"
               "  --placement             run the placement simulation instead\n"
               "  --instances N           FFS-VA instances (default 8)\n"
               "  --capacity-fps F        per-instance T-YOLO ceiling (160)\n"
               "  --arrival-per-sec F     stream arrival rate (default 20)\n"
               "  --hot-spot-at S         cut instance 0's capacity at S sec\n"
               "  --seed N                demand/arrival seed (default 1)\n",
               argv0);
}

int run_placement(const ffsva::sim::PlacementSetup& setup) {
  const auto r = ffsva::sim::simulate_placement(setup);
  std::printf(
      "{\"instances\":%d,\"streams\":%d,\"placed\":%d,\"policy_placed\":%d,"
      "\"fallback_placed\":%d,\"reforwards\":%d,\"converged\":%s,"
      "\"overloaded_final\":%d,\"max_stream_spread\":%d,"
      "\"hot_spot_drain_sec\":%.2f,\"hot_spot_moves\":%d,"
      "\"sim_time_sec\":%.1f}\n",
      setup.instances, setup.streams, r.placed, r.policy_placed,
      r.fallback_placed, r.reforwards, r.converged ? "true" : "false",
      r.overloaded_final, r.max_stream_spread, r.hot_spot_drain_sec,
      r.hot_spot_moves, r.sim_time_sec);
  return r.placed == setup.streams && r.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ffsva;

  sim::SimSetup setup;
  setup.num_streams = 8;
  setup.frames_per_stream = 2000;
  setup.online = true;
  double tor = 0.1;
  bool baseline = false;
  bool placement = false;
  sim::PlacementSetup pl;
  std::string metrics_out, trace_out;

  const auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--streams")) {
      setup.num_streams = std::atoi(need_value(i++));
    } else if (!std::strcmp(a, "--frames")) {
      setup.frames_per_stream = std::atoll(need_value(i++));
    } else if (!std::strcmp(a, "--online")) {
      setup.online = true;
    } else if (!std::strcmp(a, "--offline")) {
      setup.online = false;
    } else if (!std::strcmp(a, "--fps")) {
      setup.config.online_fps = std::atof(need_value(i++));
    } else if (!std::strcmp(a, "--duration")) {
      setup.duration_sec = std::atof(need_value(i++));
    } else if (!std::strcmp(a, "--tor")) {
      tor = std::atof(need_value(i++));
    } else if (!std::strcmp(a, "--baseline")) {
      baseline = true;
    } else if (!std::strcmp(a, "--placement")) {
      placement = true;
    } else if (!std::strcmp(a, "--instances")) {
      pl.instances = std::atoi(need_value(i++));
    } else if (!std::strcmp(a, "--capacity-fps")) {
      pl.capacity_fps = std::atof(need_value(i++));
    } else if (!std::strcmp(a, "--arrival-per-sec")) {
      pl.arrival_per_sec = std::atof(need_value(i++));
    } else if (!std::strcmp(a, "--hot-spot-at")) {
      pl.hot_spot_at_sec = std::atof(need_value(i++));
    } else if (!std::strcmp(a, "--seed")) {
      pl.seed = static_cast<std::uint64_t>(std::atoll(need_value(i++)));
    } else if (!std::strcmp(a, "--label")) {
      setup.metrics_label = need_value(i++);
    } else if (!std::strcmp(a, "--metrics-out")) {
      metrics_out = need_value(i++);
    } else if (!std::strcmp(a, "--metrics-interval-ms")) {
      setup.metrics_interval_ms = std::atoi(need_value(i++));
    } else if (!std::strcmp(a, "--trace-out")) {
      trace_out = need_value(i++);
    } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], a);
      usage(argv[0]);
      return 2;
    }
  }
  if (setup.num_streams < 1 || setup.frames_per_stream < 1) {
    std::fprintf(stderr, "%s: --streams and --frames must be >= 1\n", argv[0]);
    return 2;
  }
  if (placement) {
    pl.streams = setup.num_streams;
    pl.duration_sec = setup.duration_sec;
    return run_placement(pl);
  }
  setup.make_outcomes = [tor](int stream) {
    return std::make_unique<sim::MarkovOutcomes>(
        sim::MarkovParams::for_tor(tor), 17u + static_cast<unsigned>(stream));
  };

  std::ofstream metrics_file;
  if (!metrics_out.empty()) {
    metrics_file.open(metrics_out, std::ios::app);
    if (!metrics_file) {
      std::fprintf(stderr, "%s: cannot open %s\n", argv[0], metrics_out.c_str());
      return 1;
    }
    setup.metrics_sink = &metrics_file;
  }
  telemetry::TraceBuffer trace_buf;
  if (!trace_out.empty()) {
    trace_buf.enable();
    setup.trace = &trace_buf;
  }

  const sim::SimResult r =
      baseline ? sim::simulate_baseline(setup) : sim::simulate_ffsva(setup);

  if (!trace_out.empty()) {
    trace_buf.disable();
    if (!trace_buf.write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], trace_out.c_str());
      return 1;
    }
  }

  std::printf(
      "{\"streams\":%d,\"online\":%s,\"sim_time_sec\":%.3f,"
      "\"ingested\":%lld,\"dropped\":%lld,\"outputs\":%lld,"
      "\"throughput_fps\":%.2f,\"drop_rate\":%.5f,\"realtime\":%s,"
      "\"tyolo_service_fps\":%.2f,\"mean_snm_batch\":%.2f,"
      "\"gpu0_util\":%.3f,\"gpu1_util\":%.3f,\"cpu_util\":%.3f,"
      "\"output_latency_p50_ms\":%.2f,\"output_latency_p99_ms\":%.2f}\n",
      setup.num_streams, setup.online ? "true" : "false", r.sim_time_sec,
      static_cast<long long>(r.total.prefetch.passed),
      static_cast<long long>(r.total.dropped_at_ingest),
      static_cast<long long>(r.total.ref.passed), r.throughput_fps, r.drop_rate,
      r.realtime ? "true" : "false", r.tyolo_service_fps, r.mean_snm_batch,
      r.gpu0_utilization, r.gpu1_utilization, r.cpu_utilization,
      r.output_latency_ms.p50(), r.output_latency_ms.p99());
  return 0;
}
